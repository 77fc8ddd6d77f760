(* Bench-local checks: the order statistics, the regression verdicts, and a
   1 %-size pass of every workload whose metric names must be exactly the
   ones BENCHMARK.json declares. Usage: test_perf.exe BENCHMARK.json *)

open Perfbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end

let test_quantiles () =
  let a = Array.init 100 (fun i -> i + 1) in
  check "p50 of 1..100" (Stats.nearest_rank a 50. = 50);
  check "p99 of 1..100" (Stats.nearest_rank a 99. = 99);
  check "p100 of 1..100" (Stats.nearest_rank a 100. = 100);
  check "p1 of 1..100" (Stats.nearest_rank a 1. = 1);
  check "p0.5 rounds up" (Stats.nearest_rank a 0.5 = 1);
  let b = Array.init 1000 (fun i -> i + 1) in
  check "p99.9 of 1..1000" (Stats.nearest_rank b 99.9 = 999);
  check "single sample" (Stats.nearest_rank [| 7 |] 99. = 7);
  check "no tail at 10" (Stats.tail_percentile 10 = None);
  check "tail at 1000" (Stats.tail_percentile 1000 = Some 99.);
  check "tail at 100" (Stats.tail_percentile 100 = Some 90.);
  (* the tail percentile leaves exactly ten samples above its value *)
  (match Stats.tail_percentile 1000 with
  | Some p ->
      let v = Stats.nearest_rank b p in
      check "ten beyond the tail" (Array.fold_left (fun n x -> if x > v then n + 1 else n) 0 b = 10)
  | None -> check "tail exists" false);
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  check "python quartiles" (Stats.quartiles xs = (2.75, 5.5, 8.25));
  check "median even" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  check "p10 of a list" (Stats.percentile (List.rev xs) 10. = 1.);
  check "p90 of a list" (Stats.percentile xs 90. = 9.);
  check "p90 of one" (Stats.percentile [ 5. ] 90. = 5.);
  check "spread" (Float.abs (Stats.spread xs -. (5.5 /. 5.5)) < 1e-12);
  check "spread of equal values" (Stats.spread [ 3.; 3.; 3. ] = 0.)

let test_verdicts () =
  let open Stats in
  let a = [ 100.; 101.; 99.; 100.; 100.5; 99.5 ] in
  let shift k = List.map (fun x -> x *. k) a in
  check "same" (verdict Higher ~bound:0.1 ~a ~b:(shift 0.95) = Same);
  check "worse throughput" (verdict Higher ~bound:0.1 ~a ~b:(shift 0.8) = Worse);
  check "better throughput" (verdict Higher ~bound:0.1 ~a ~b:(shift 1.2) = Better);
  check "worse latency" (verdict Lower ~bound:0.1 ~a ~b:(shift 1.2) = Worse);
  check "better latency" (verdict Lower ~bound:0.1 ~a ~b:(shift 0.8) = Better);
  let noisy = [ 50.; 150.; 80.; 120.; 100.; 60. ] in
  check "unresolved" (verdict Higher ~bound:0.1 ~a:noisy ~b:(List.map (fun x -> x *. 0.9) noisy) = Unresolved);
  check "noisy but every run better"
    (verdict Higher ~bound:0.1 ~a:noisy ~b:[ 200.; 210.; 220. ] = Better);
  check "exact metric moved" (verdict Lower ~bound:0.01 ~a:[ 10.; 10. ] ~b:[ 10.2; 10.2 ] = Worse);
  check "exact metric held" (verdict Lower ~bound:0.01 ~a:[ 10.; 10. ] ~b:[ 10.; 10. ] = Same);
  check "zero base" (worse_share Lower ~a:0. ~b:1. = infinity)

let test_smoke spec_path =
  let spec = Stats.load_spec spec_path in
  let names ms = List.map (fun (m : Stats.metric) -> (m.Stats.name, m.Stats.unit_)) ms in
  check "workloads match BENCHMARK.json"
    (List.map fst spec.Stats.workloads = List.map (fun w -> w.Workloads.name) Workloads.all);
  List.iter
    (fun traced ->
      let declared = names (if traced then spec.Stats.per_layer else spec.Stats.end_to_end) in
      List.iter
        (fun (w : Workloads.t) ->
          let r = Harness.run w { Harness.smoke_options with Harness.traced } in
          let label = Printf.sprintf "%s%s" w.Workloads.name (if traced then " traced" else "") in
          List.iter (fun p -> Printf.printf "  %s: %s\n" label p) r.Harness.problems;
          check (label ^ " correct") r.Harness.correct;
          check (label ^ " no failures") (r.Harness.failed = 0);
          check (label ^ " metric names")
            (List.map (fun (n, _, u) -> (n, u)) r.Harness.metrics = declared))
        Workloads.all)
    [ false; true ]

let () =
  test_quantiles ();
  test_verdicts ();
  test_smoke Sys.argv.(1);
  if !failures > 0 then begin
    Printf.printf "%d checks failed\n" !failures;
    exit 1
  end
