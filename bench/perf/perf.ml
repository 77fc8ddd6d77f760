(* perf.exe — the repository benchmark (see README.md).

     perf.exe run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                  [--json PATH]
     perf.exe compare A.json B.json

   Both read BENCHMARK.json from the current directory (the repository
   root). [run] prints one "workload metric value unit" line per metric
   and, as its last line, a JSON object {correct, attempted, failed,
   metrics}. It exits non-zero when any output check fails. With several
   workloads it runs each in a fresh child process of itself, one after
   another. [--json PATH] appends the result (plus workload, seed and
   trace) as one line to PATH, the input [compare] reads. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: perf.exe run [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
     [--json PATH]\n\
    \       perf.exe compare A.json B.json";
  exit 2

type run_args = {
  workloads : string list;
  seed : int;
  seconds : float option;
  traced : bool;
  json : string option;
}

let benchmark = "BENCHMARK.json"

let parse_run args =
  let rec go a = function
    | [] -> { a with workloads = List.rev a.workloads }
    | "--workload" :: w :: rest -> go { a with workloads = w :: a.workloads } rest
    | "--seed" :: n :: rest -> go { a with seed = int_of_string n } rest
    | "--seconds" :: s :: rest -> go { a with seconds = Some (float_of_string s) } rest
    | "--trace" :: t :: rest -> go { a with traced = int_of_string t <> 0 } rest
    | "--json" :: p :: rest -> go { a with json = Some p } rest
    | arg :: _ ->
        prerr_endline ("perf.exe: unknown argument " ^ arg);
        usage ()
  in
  try
    go { workloads = []; seed = 42; seconds = None; traced = false; json = None } args
  with Failure _ -> usage ()

(* The names and units a run emits must be the ones BENCHMARK.json
   declares, in its order. *)
let spec_mismatch (spec : Stats.spec) (r : Harness.result) ~traced =
  let declared =
    List.map
      (fun (m : Stats.metric) -> (m.Stats.name, m.Stats.unit_))
      (if traced then spec.Stats.per_layer else spec.Stats.end_to_end)
  in
  let emitted = List.map (fun (n, _, u) -> (n, u)) r.Harness.metrics in
  if declared = emitted then None
  else Some (Printf.sprintf "emitted metrics differ from %s" benchmark)

let result_json ?(extra = []) (r : Harness.result) =
  Json.Obj
    (extra
    @ [
        ("correct", Json.Bool r.Harness.correct);
        ("attempted", Json.Num (float_of_int r.Harness.attempted));
        ("failed", Json.Num (float_of_int r.Harness.failed));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
               r.Harness.metrics) );
      ])

let run_one (a : run_args) spec (w : Workloads.t) =
  let d = Harness.default_options in
  let o =
    {
      d with
      Harness.seed = a.seed;
      traced = a.traced;
      seconds = Option.value ~default:d.Harness.seconds a.seconds;
    }
  in
  let r = Harness.run w o in
  let r =
    match spec_mismatch spec r ~traced:a.traced with
    | None -> r
    | Some p -> { r with Harness.correct = false; problems = r.Harness.problems @ [ p ] }
  in
  List.iter
    (fun p -> Printf.eprintf "perf: %s: %s\n" w.Workloads.name p)
    (r.Harness.problems @ r.Harness.notes);
  List.iter
    (fun (n, v, u) -> Printf.printf "%s %s %s %s\n" w.Workloads.name n (Json.number v) u)
    r.Harness.metrics;
  Printf.printf "%s error_rate %s ratio\n" w.Workloads.name
    (Json.number (float_of_int r.Harness.failed /. float_of_int r.Harness.attempted));
  Option.iter
    (fun path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc
        (Json.to_string
           (result_json r
              ~extra:
                [
                  ("workload", Json.Str w.Workloads.name);
                  ("seed", Json.Num (float_of_int a.seed));
                  ("trace", Json.Num (if a.traced then 1. else 0.));
                ]));
      output_char oc '\n';
      close_out oc)
    a.json;
  print_endline (Json.to_string (result_json r));
  if r.Harness.correct then 0 else 1

(* Each workload in its own process, so no heap or GC state carries over. *)
let run_children (a : run_args) names =
  let pass =
    [ "--seed"; string_of_int a.seed ]
    @ (match a.seconds with Some s -> [ "--seconds"; Printf.sprintf "%g" s ] | None -> [])
    @ (if a.traced then [ "--trace"; "1" ] else [])
    @ match a.json with Some p -> [ "--json"; p ] | None -> []
  in
  List.fold_left
    (fun status name ->
      flush_all ();
      let argv = Array.of_list ((Sys.executable_name :: "run" :: "--workload" :: [ name ]) @ pass) in
      let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> status
      | _ -> 1)
    0 names

(* BENCHMARK.json is the catalogue every run is checked against. *)
let load_benchmark () =
  if not (Sys.file_exists benchmark) then begin
    prerr_endline ("perf.exe: no " ^ benchmark ^ " in the current directory");
    exit 2
  end;
  Stats.load_spec benchmark

let run args =
  let a = parse_run args in
  let spec = load_benchmark () in
  let names = if a.workloads = [] then List.map (fun w -> w.Workloads.name) Workloads.all else a.workloads in
  match names with
  | [ name ] -> (
      match Workloads.find name with
      | Some w -> run_one a spec w
      | None ->
          prerr_endline ("perf.exe: unknown workload " ^ name);
          2)
  | names ->
      List.iter
        (fun n -> if Workloads.find n = None then (prerr_endline ("perf.exe: unknown workload " ^ n); exit 2))
        names;
      run_children a names

let load_results path =
  Json.read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         let j = Json.of_string l in
         let metrics =
           match Json.field "metrics" j with
           | Json.Obj kvs -> List.map (fun (k, v) -> (k, Json.to_num (Json.field "value" v))) kvs
           | _ -> []
         in
         (Json.to_str (Json.field "workload" j), metrics))

let compare args =
  match args with
  | [ fa; fb ] ->
      let spec = load_benchmark () in
      let ra = load_results fa and rb = load_results fb in
      let values rs w m =
        List.filter_map (fun (w', ms) -> if w' = w then List.assoc_opt m ms else None) rs
      in
      let worse = ref 0 in
      Printf.printf "%-18s %-30s %14s %14s %9s  %s\n" "workload" "metric" "A median" "B median"
        "delta" "verdict";
      List.iter
        (fun (w, _) ->
          List.iter
            (fun (m : Stats.metric) ->
              match (values ra w m.Stats.name, values rb w m.Stats.name) with
              | [], _ | _, [] -> ()
              | a, b ->
                  let ma = Stats.median a and mb = Stats.median b in
                  let verdict =
                    match m.Stats.bound with
                    | None -> "-"
                    | Some bound ->
                        let v = Stats.verdict m.Stats.better ~bound ~a ~b in
                        if v = Stats.Worse then incr worse;
                        Stats.verdict_to_string v
                  in
                  let delta =
                    if ma = 0. then if mb = 0. then "0%" else "n/a"
                    else Printf.sprintf "%+.2f%%" (100. *. (mb -. ma) /. Float.abs ma)
                  in
                  Printf.printf "%-18s %-30s %14.6g %14.6g %9s  %s\n" w m.Stats.name ma mb delta
                    verdict)
            (spec.Stats.end_to_end @ spec.Stats.per_layer))
        spec.Stats.workloads;
      if !worse > 0 then 1 else 0
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> exit (run args)
  | _ :: "compare" :: args -> exit (compare args)
  | _ -> usage ()
