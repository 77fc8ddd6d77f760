(* Tests for the discrete-event core (heap, engine) and the network cost
   model. *)

module Time = Simnet.Time
module Engine = Simnet.Engine

let check = Alcotest.check

(* --- heap --- *)

let test_heap_ordering () =
  let h = Simnet.Heap.create () in
  List.iter (fun p -> Simnet.Heap.push h ~priority:(Int64.of_int p) p)
    [ 5; 1; 4; 1; 3; 9; 0 ];
  let rec drain acc =
    match Simnet.Heap.pop h with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  check (Alcotest.list Alcotest.int) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ] (drain [])

let test_heap_fifo_ties () =
  let h = Simnet.Heap.create () in
  List.iter (fun v -> Simnet.Heap.push h ~priority:7L v) [ "a"; "b"; "c" ];
  let rec drain acc =
    match Simnet.Heap.pop h with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  check (Alcotest.list Alcotest.string) "insertion order" [ "a"; "b"; "c" ]
    (drain [])

let prop_heap_sorts =
  QCheck.Test.make ~count:200 ~name:"heap pops sorted"
    QCheck.(list (int_bound 1_000_000))
    (fun l ->
      let h = Simnet.Heap.create () in
      List.iter (fun p -> Simnet.Heap.push h ~priority:(Int64.of_int p) p) l;
      let rec drain acc =
        match Simnet.Heap.pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      drain [] = List.stable_sort compare l)

(* --- engine --- *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e (Time.us 30) (fun () -> log := 3 :: !log);
  Engine.schedule_at e (Time.us 10) (fun () -> log := 1 :: !log);
  Engine.schedule_at e (Time.us 20) (fun () -> log := 2 :: !log);
  Engine.run e;
  check (Alcotest.list Alcotest.int) "order" [ 1; 2; 3 ] (List.rev !log);
  check Alcotest.int64 "clock at last event" (Time.us 30) (Engine.now e)

let test_engine_cascading () =
  let e = Engine.create () in
  let fired = ref 0 in
  let rec chain n =
    if n > 0 then
      Engine.schedule_after e (Time.us 1) (fun () ->
          incr fired;
          chain (n - 1))
  in
  chain 5;
  Engine.run e;
  check Alcotest.int "all fired" 5 !fired;
  check Alcotest.int64 "clock" (Time.us 5) (Engine.now e)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun us -> Engine.schedule_at e (Time.us us) (fun () -> fired := us :: !fired))
    [ 10; 20; 30 ];
  Engine.run_until e (Time.us 20);
  check (Alcotest.list Alcotest.int) "only due" [ 10; 20 ] (List.rev !fired);
  check Alcotest.int64 "clock exactly" (Time.us 20) (Engine.now e);
  check Alcotest.int "pending" 1 (Engine.pending e)

let test_engine_advance () =
  let e = Engine.create () in
  Engine.advance e (Time.us 5);
  Engine.advance e (Time.us 5);
  check Alcotest.int64 "advance" (Time.us 10) (Engine.now e);
  (match Engine.advance e (-1L) with
  | () -> Alcotest.fail "negative advance must raise"
  | exception Invalid_argument _ -> ());
  Engine.advance_to e (Time.us 3);
  check Alcotest.int64 "no rewind" (Time.us 10) (Engine.now e)

(* --- netcost --- *)

let native = Simnet.Hostprofile.bare_metal_linux
let link = Simnet.Link.ethernet_100g

let test_netcost_packets () =
  let mss = Simnet.Link.mss link in
  let b = Simnet.Netcost.one_way ~sender:native ~receiver:native ~link 100 in
  check Alcotest.int "one packet" 1 b.Simnet.Netcost.packets;
  let b2 =
    Simnet.Netcost.one_way ~sender:native ~receiver:native ~link (mss + 1)
  in
  check Alcotest.int "two packets" 2 b2.Simnet.Netcost.packets;
  let b0 = Simnet.Netcost.one_way ~sender:native ~receiver:native ~link 0 in
  check Alcotest.int "empty still a packet" 1 b0.Simnet.Netcost.packets

let test_netcost_monotone_in_size () =
  let t n =
    Simnet.Netcost.one_way_time ~sender:native ~receiver:native ~link n
  in
  let sizes = [ 0; 64; 1024; 9000; 65536; 1 lsl 20; 16 lsl 20 ] in
  let times = List.map t sizes in
  let rec ascending = function
    | a :: (b :: _ as rest) -> Time.compare a b <= 0 && ascending rest
    | _ -> true
  in
  check Alcotest.bool "monotone" true (ascending times)

let test_netcost_offloads_help () =
  let crippled =
    Simnet.Hostprofile.with_offloads native (Simnet.Offload.disable_bulk native.Simnet.Hostprofile.offloads)
  in
  let n = 64 lsl 20 in
  let fast =
    Simnet.Netcost.throughput_bytes_per_s ~sender:native ~receiver:native ~link n
  in
  let slow =
    Simnet.Netcost.throughput_bytes_per_s ~sender:crippled ~receiver:native
      ~link n
  in
  check Alcotest.bool "offloads increase throughput" true (fast > slow *. 1.5)

let test_netcost_latency_floor () =
  (* A 1-byte message can never beat the link latency. *)
  let t = Simnet.Netcost.one_way_time ~sender:native ~receiver:native ~link 1 in
  check Alcotest.bool "above latency" true
    (Time.compare t (Time.ns link.Simnet.Link.latency_ns) > 0)

let test_netcost_negative () =
  match Simnet.Netcost.one_way ~sender:native ~receiver:native ~link (-1) with
  | _ -> Alcotest.fail "negative size must raise"
  | exception Invalid_argument _ -> ()

let prop_netcost_superadditive =
  (* Sending n bytes in one message is never slower than the per-message
     fixed costs would make two half-sized messages. *)
  QCheck.Test.make ~count:100 ~name:"netcost: one message beats two halves"
    QCheck.(int_range 2 (8 lsl 20))
    (fun n ->
      let t k =
        Time.to_float_s
          (Simnet.Netcost.one_way_time ~sender:native ~receiver:native ~link k)
      in
      t n <= t (n / 2) +. t (n - (n / 2)) +. 1e-12)

(* --- random variates --- *)

let test_variate_determinism () =
  let a = Simnet.Random_variate.create ~seed:7 in
  let b = Simnet.Random_variate.create ~seed:7 in
  let c = Simnet.Random_variate.create ~seed:8 in
  let stream g = List.init 20 (fun _ -> Simnet.Random_variate.uniform g) in
  let sa = stream a in
  check Alcotest.bool "same seed same stream" true (sa = stream b);
  check Alcotest.bool "different seed differs" false (sa = stream c);
  List.iter
    (fun v -> check Alcotest.bool "in [0,1)" true (v >= 0.0 && v < 1.0))
    sa

let test_variate_statistics () =
  let g = Simnet.Random_variate.create ~seed:42 in
  let n = 20_000 in
  (* uniform mean ~ 0.5 *)
  let mean f =
    let acc = ref 0.0 in
    for _ = 1 to n do
      acc := !acc +. f ()
    done;
    !acc /. Float.of_int n
  in
  let u = mean (fun () -> Simnet.Random_variate.uniform g) in
  check Alcotest.bool "uniform mean" true (Float.abs (u -. 0.5) < 0.02);
  let e = mean (fun () -> Simnet.Random_variate.exponential g ~mean:3.0) in
  check Alcotest.bool "exponential mean" true (Float.abs (e -. 3.0) < 0.15);
  (* bounded pareto stays in range *)
  for _ = 1 to 1_000 do
    let v = Simnet.Random_variate.pareto g ~shape:1.5 ~scale:1.0 ~max:100.0 in
    if v < 0.999 || v > 100.001 then
      Alcotest.failf "pareto out of range: %f" v
  done;
  (* uniform_int covers its range *)
  let seen = Array.make 10 false in
  for _ = 1 to 1_000 do
    seen.(Simnet.Random_variate.uniform_int g 10) <- true
  done;
  check Alcotest.bool "uniform_int covers" true (Array.for_all Fun.id seen)

let test_poisson_arrivals () =
  let g = Simnet.Random_variate.create ~seed:5 in
  let arrivals =
    Simnet.Random_variate.poisson_arrivals g ~mean_gap:(Time.us 100) ~count:500
  in
  check Alcotest.int "count" 500 (List.length arrivals);
  let rec ascending = function
    | a :: (b :: _ as rest) -> Time.compare a b <= 0 && ascending rest
    | _ -> true
  in
  check Alcotest.bool "sorted" true (ascending arrivals);
  (* total span ~ count * mean_gap *)
  let last = List.nth arrivals 499 in
  let span_us = Time.to_float_us last in
  check Alcotest.bool "span plausible" true
    (span_us > 35_000.0 && span_us < 70_000.0)

let suite =
  [
    Alcotest.test_case "variate determinism" `Quick test_variate_determinism;
    Alcotest.test_case "variate statistics" `Quick test_variate_statistics;
    Alcotest.test_case "poisson arrivals" `Quick test_poisson_arrivals;
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap FIFO on ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "engine event ordering" `Quick test_engine_ordering;
    Alcotest.test_case "engine cascading events" `Quick test_engine_cascading;
    Alcotest.test_case "engine run_until" `Quick test_engine_run_until;
    Alcotest.test_case "engine advance" `Quick test_engine_advance;
    Alcotest.test_case "netcost packet counts" `Quick test_netcost_packets;
    Alcotest.test_case "netcost monotone" `Quick test_netcost_monotone_in_size;
    Alcotest.test_case "netcost offloads help" `Quick test_netcost_offloads_help;
    Alcotest.test_case "netcost latency floor" `Quick test_netcost_latency_floor;
    Alcotest.test_case "netcost negative size" `Quick test_netcost_negative;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_heap_sorts; prop_netcost_superadditive ]
