(* One workload run: set-up, warm-up, timed trials until the time budget
   is spent, the determinism guard, and the metrics. The untraced run
   measures the end-to-end metrics on a stack with no wrappers; the traced
   run alternates trials between a plain and a wrapped stack, takes the
   per-layer split from the wrapped one and the tracing cost from the
   difference. *)

module W = Workloads
module Samples = Probe.Samples

type options = {
  seed : int;
  seconds : float;
  traced : bool;
  scale : float;  (** workload size; 1.0 is the benchmark, 0.01 the smoke pass *)
  setups : int;  (** fewest stacks built (and warmed) to time set-up; the last is kept *)
  min_trials : int;
}

let default_options =
  { seed = 42; seconds = 20.; traced = false; scale = 1.0; setups = 3; min_trials = 3 }

let smoke_options = { default_options with seconds = 0.; scale = 0.01; setups = 1; min_trials = 1 }

(* The catalogue, in BENCHMARK.json order, with the unit each value is
   computed in. Virtual (simulated) time gets its own unit so it is never
   mistaken for host time. *)
let end_to_end_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "op/s");
    ("op_p50_us", "us");
    ("alloc_words_per_op", "words");
    ("heap_peak_mib", "MiB");
    ("vtime_per_op_us", "virtual_us");
  ]

let per_layer_units =
  [
    ("op_p99_us", "us");
    ("op_samples", "count");
    ("payload_mib_per_s", "MiB/s");
    ("vtime_p50_us", "virtual_us");
    ("vtime_p99_us", "virtual_us");
    ("shed_ratio", "ratio");
    ("fairness_jain", "index");
    ("loop.self_ns_per_op", "ns");
    ("loop.alloc_words_per_op", "words");
    ("client.self_ns_per_op", "ns");
    ("client.alloc_words_per_op", "words");
    ("client.rpc_retries", "count");
    ("channel.self_ns_per_op", "ns");
    ("channel.alloc_words_per_op", "words");
    ("channel.bytes_per_op", "bytes");
    ("channel.sends_per_op", "count");
    ("channel.recvs_per_op", "count");
    ("channel.network_vtime_share", "ratio");
    ("channel.timeouts", "count");
    ("tcp.wire_segments_per_op", "count");
    ("tcp.sw_checksum_bytes_per_op", "bytes");
    ("tcp.staging_copies_per_op", "count");
    ("tcp.gro_merged_ratio", "ratio");
    ("tcp.retransmissions", "count");
    ("rpcdev.parse_hit_ratio", "ratio");
    ("rpcdev.max_queue_depth", "count");
    ("doorbell.avg_batch", "count");
    ("doorbell.deadline_flush_ratio", "ratio");
    ("pool.hit_ratio", "ratio");
    ("pool.drops", "count");
    ("server.self_ns_per_op", "ns");
    ("server.alloc_words_per_op", "words");
    ("server.dup_hits", "count");
    ("admission.admitted", "count");
    ("admission.shed", "count");
    ("admission.rejected_quota", "count");
    ("lease.denied_mallocs", "count");
    ("lease.reclaimed_bytes", "bytes");
    ("gc.minor_collections_per_kop", "count");
    ("gc.major_collections_per_kop", "count");
    ("gc.promoted_words_per_op", "words");
    ("trace.overhead_pct", "%");
    ("trace.attributed_pct", "%");
    ("harness.alloc_words_per_op", "words");
  ]

let units_for ~traced = if traced then per_layer_units else end_to_end_units

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  problems : string list;
  notes : string list;
}

(* Sized for the longest budget at the fastest op rate with room to
   spare; untouched capacity costs address space, not memory. *)
let sample_capacity = 1 lsl 24

(* Minor words the closed loop, and with it [Probe.timed] that every
   workload's loop times its ops with, allocates per op of its own: the
   difference between a long and a short run of an empty op, so fixed costs
   cancel. Must be 0. *)
let harness_alloc_per_op () =
  let engine = Simnet.Engine.create () in
  let samples = Samples.create 4096 in
  let vlat = Array.make 2000 0 in
  let cost ~traced n =
    let w0 = Probe.words () in
    ignore
      (W.closed_loop ~traced ~engine ~samples ~n ~vlat ~op:ignore ~verify:(fun _ -> true));
    Probe.words () - w0
  in
  let per traced = float_of_int (cost ~traced 2000 - cost ~traced 1000) /. 1000. in
  (* the first pass pays one-time initialisation *)
  ignore (per false);
  Float.max (per false) (per true)

let max_setups = 25
let seconds_of_ns ns = float_of_int ns /. 1e9

(* Counter deltas accumulated over the trials of one stack. *)
type acc = {
  mutable trials : int;
  mutable served : int;
  mutable elapsed_ns : int;
  mutable vspan_ns : int;
  mutable rates : float list;  (** served ops per host second, one per trial *)
  mutable p50s : float list;  (** nearest-rank median op latency (ns), one per trial *)
  deltas : (string, float) Hashtbl.t;
  gauges : (string, float) Hashtbl.t;
  layer_ns : int array;
  layer_words : int array;
  mutable sends : int;
  mutable recvs : int;
  mutable bytes : int;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable promoted : float;
}

let new_acc () =
  {
    trials = 0;
    served = 0;
    elapsed_ns = 0;
    vspan_ns = 0;
    rates = [];
    p50s = [];
    deltas = Hashtbl.create 16;
    gauges = Hashtbl.create 4;
    layer_ns = Array.make 4 0;
    layer_words = Array.make 4 0;
    sends = 0;
    recvs = 0;
    bytes = 0;
    minor_gcs = 0;
    major_gcs = 0;
    promoted = 0.;
  }

let gauge_names = [ "rpcdev.max_queue_depth" ]

let delta acc name = Option.value ~default:0. (Hashtbl.find_opt acc.deltas name)

let run_trial (inst : W.instance) acc ~samples ~wrapped =
  inst.W.prepare ();
  let first_sample = samples.Samples.n in
  let c0 = inst.W.counters () in
  let p0 = Oncrpc.Pool.stats Oncrpc.Pool.default in
  let g0 = Gc.quick_stat () in
  if wrapped then Probe.reset ();
  let b = inst.W.run () in
  if wrapped then begin
    ignore (Probe.switch Probe.loop);
    let st = Probe.st in
    Array.iteri (fun i v -> acc.layer_ns.(i) <- acc.layer_ns.(i) + v) st.Probe.self_ns;
    Array.iteri
      (fun i v -> acc.layer_words.(i) <- acc.layer_words.(i) + v)
      st.Probe.self_words;
    acc.sends <- acc.sends + st.Probe.sends;
    acc.recvs <- acc.recvs + st.Probe.recvs;
    acc.bytes <- acc.bytes + st.Probe.bytes
  end;
  let g1 = Gc.quick_stat () in
  let p1 = Oncrpc.Pool.stats Oncrpc.Pool.default in
  let c1 = inst.W.counters () in
  List.iter
    (fun (k, v1) ->
      if List.mem k gauge_names then Hashtbl.replace acc.gauges k v1
      else
        let v0 = Option.value ~default:0. (List.assoc_opt k c0) in
        Hashtbl.replace acc.deltas k (delta acc k +. (v1 -. v0)))
    c1;
  let add k d = Hashtbl.replace acc.deltas k (delta acc k +. float_of_int d) in
  add "pool.hits" (p1.Oncrpc.Pool.hits - p0.Oncrpc.Pool.hits);
  add "pool.misses" (p1.Oncrpc.Pool.misses - p0.Oncrpc.Pool.misses);
  add "pool.drops" (p1.Oncrpc.Pool.drops - p0.Oncrpc.Pool.drops);
  acc.minor_gcs <- acc.minor_gcs + (g1.Gc.minor_collections - g0.Gc.minor_collections);
  acc.major_gcs <- acc.major_gcs + (g1.Gc.major_collections - g0.Gc.major_collections);
  acc.promoted <- acc.promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  acc.trials <- acc.trials + 1;
  acc.served <- acc.served + b.W.served;
  acc.elapsed_ns <- acc.elapsed_ns + b.W.elapsed_ns;
  acc.vspan_ns <- acc.vspan_ns + b.W.vspan_ns;
  acc.rates <- (float_of_int b.W.served /. seconds_of_ns (max 1 b.W.elapsed_ns)) :: acc.rates;
  let trial_samples = Samples.sorted ~from:first_sample samples in
  if Array.length trial_samples > 0 then
    acc.p50s <- float_of_int (Stats.nearest_rank trial_samples 50.) :: acc.p50s;
  b

(* Host-time figures of a run: the trial at the fast quartile. A trial is
   a whole, fixed repetition of the workload (long enough to hold its
   minor and major GC work), so what the program costs is in every trial;
   what varies between trials is mostly the host — on a shared machine
   whole stretches of a run go up to 1.8x slow. The fast quartile moves
   only when three quarters of a run is slowed, where the median moves at
   half. A faster percentile would be steadier still against the host,
   but on bulk-transfer (about 14 trials, each with whatever share of a
   1 GB heap's major GC cycle it draws) it tracks the luckiest trials. *)
let rate acc = Stats.percentile acc.rates 75.
let p50_ns acc = Stats.percentile acc.p50s 25.

let ratio a b = if b = 0. then 0. else a /. b
let per_op acc v = ratio v (float_of_int acc.served)
let us_of_ns ns = float_of_int ns /. 1000.

let run (w : W.t) (o : options) =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let failed = ref 0 and attempted = ref 0 in
  let metrics = ref [] and notes = ref [] in
  let units = units_for ~traced:o.traced in
  let emit name v =
    match List.assoc_opt name units with
    | Some u -> metrics := (name, v, u) :: !metrics
    | None -> problem "metric %s is not in the catalogue" name
  in
  let start = Probe.now () in
  let budget_ns = int_of_float (o.seconds *. 1e9) in
  (try
     let harness_words = harness_alloc_per_op () in
     if harness_words <> 0. then
       problem "the timing loop allocates %.3f words per op" harness_words;
     let build ~traced samples =
       w.W.build ~seed:o.seed ~scale:o.scale ~traced ~samples
     in
     let warm (inst : W.instance) =
       inst.W.prepare ();
       let b = inst.W.run () in
       failed := !failed + b.W.errors
     in
     let plain_samples = Samples.create sample_capacity in
     (* set-up: build a stack and run its warm-up trial *)
     let setup_times = ref [] in
     let setup () =
       Gc.full_major ();
       let t0 = Probe.now () in
       let inst = build ~traced:false plain_samples in
       warm inst;
       let dt = Probe.now () - t0 in
       setup_times := seconds_of_ns dt :: !setup_times;
       Samples.clear plain_samples;
       inst
     in
     let inst = setup () in
     let wrapped_samples = Samples.create (if o.traced then sample_capacity else 1) in
     let wrapped =
       if o.traced then begin
         let inst = build ~traced:true wrapped_samples in
         warm inst;
         Samples.clear wrapped_samples;
         Some inst
       end
       else None
     in
     let pa = new_acc () and wa = new_acc () in
     (* determinism guard: every virtual and allocation figure of every
        trial equals the first timed trial's, traced or not *)
     let first = ref None and heap_words = ref 0 and diverged = ref false in
     let note (b : W.batch) =
       failed := !failed + b.W.errors;
       attempted := !attempted + b.W.offered;
       match !first with
       | None ->
           first := Some (b, W.signature b);
           (* read here, not at the end, so the figure does not depend on
              how many trials the time budget allowed *)
           heap_words := (Gc.quick_stat ()).Gc.top_heap_words
       | Some (_, reference) -> if W.signature b <> reference then diverged := true
     in
     (* the whole run fits in the budget: trials until five sixths of it
        are spent, set-ups in the last sixth *)
     let trials_end = start + (budget_ns / 6 * 5) in
     while pa.trials < o.min_trials || Probe.now () < trials_end do
       note (run_trial inst pa ~samples:plain_samples ~wrapped:false);
       Option.iter
         (fun inst -> note (run_trial inst wa ~samples:wrapped_samples ~wrapped:true))
         wrapped
     done;
     if !diverged then
       problem "determinism: trials differ in virtual time, outcome or allocation";
     let b = fst (Option.get !first) in
     inst.W.check ();
     Option.iter (fun (i : W.instance) -> i.W.check ()) wrapped;
     (* More set-ups for a steadier [setup_s]: at least [setups] in all,
        and more until the budget is spent (cheap set-ups get faster over
        the first few builds in a process, and a median of three would sit
        on that slope). After the trials, so the heap the trials saw does
        not depend on how many fit. *)
     if not o.traced then begin
       let more () =
         let n = List.length !setup_times in
         n < o.setups || (Probe.now () - start < budget_ns && n < max_setups)
       in
       while more () do
         ignore (setup ())
       done
     end;
     let nearest sorted p = if Array.length sorted = 0 then 0 else Stats.nearest_rank sorted p in
     if not o.traced then begin
       emit "setup_s" (Stats.median !setup_times);
       emit "ops_per_s" (rate pa);
       emit "op_p50_us" (p50_ns pa /. 1000.);
       emit "alloc_words_per_op" (ratio (float_of_int b.W.words) (float_of_int b.W.served));
       emit "heap_peak_mib" (float_of_int (!heap_words * (Sys.word_size / 8)) /. 1048576.);
       emit "vtime_per_op_us"
         (ratio (float_of_int b.W.vtime_ns) (float_of_int b.W.served) /. 1000.)
     end
     else begin
       let sorted = Samples.sorted plain_samples in
       let trials = float_of_int wa.trials in
       let d = delta wa in
       let layer i = float_of_int wa.layer_ns.(i) in
       let lwords i = float_of_int wa.layer_words.(i) in
       emit "op_p99_us" (us_of_ns (nearest sorted 99.));
       emit "op_samples" (float_of_int (Array.length sorted));
       notes :=
         (match Stats.tail_percentile (Array.length sorted) with
         | Some p when p >= 99. -> []
         | Some p ->
             [
               Printf.sprintf
                 "op_p99_us rests on fewer than 10 slower samples (p%.4g is the highest that does not)"
                 p;
             ]
         | None -> [ "op_p99_us rests on 10 samples or fewer" ]);
       emit "payload_mib_per_s"
         (ratio (delta pa "payload_bytes") (float_of_int pa.served) *. rate pa /. 1048576.);
       emit "vtime_p50_us" (us_of_ns (nearest b.W.vlat 50.));
       emit "vtime_p99_us" (us_of_ns (nearest b.W.vlat 99.));
       emit "shed_ratio" b.W.shed_ratio;
       emit "fairness_jain" b.W.jain;
       Array.iteri
         (fun i name ->
           emit (name ^ ".self_ns_per_op") (per_op wa (layer i));
           emit (name ^ ".alloc_words_per_op") (per_op wa (lwords i)))
         Probe.layer_names;
       emit "client.rpc_retries" (d "client.retries");
       emit "channel.bytes_per_op" (per_op wa (float_of_int wa.bytes));
       emit "channel.sends_per_op" (per_op wa (float_of_int wa.sends));
       emit "channel.recvs_per_op" (per_op wa (float_of_int wa.recvs));
       emit "channel.network_vtime_share"
         (ratio (d "channel.network_vtime_ns") (float_of_int wa.vspan_ns));
       emit "channel.timeouts" (d "channel.timeouts");
       emit "tcp.wire_segments_per_op" (per_op wa (d "tcp.wire_segments"));
       emit "tcp.sw_checksum_bytes_per_op" (per_op wa (d "tcp.sw_checksum_bytes"));
       emit "tcp.staging_copies_per_op" (per_op wa (d "tcp.staging_copies"));
       emit "tcp.gro_merged_ratio" (ratio (d "tcp.gro_merged") (d "tcp.wire_segments"));
       emit "tcp.retransmissions" (d "tcp.retransmissions");
       emit "rpcdev.parse_hit_ratio" (ratio (d "rpcdev.parse_hits") (d "rpcdev.records"));
       emit "rpcdev.max_queue_depth"
         (Option.value ~default:0. (Hashtbl.find_opt wa.gauges "rpcdev.max_queue_depth"));
       emit "doorbell.avg_batch" (ratio (d "doorbell.batched") (d "doorbell.flushes"));
       emit "doorbell.deadline_flush_ratio"
         (ratio (d "doorbell.flush_deadline") (d "doorbell.flushes"));
       emit "pool.hit_ratio" (ratio (d "pool.hits") (d "pool.hits" +. d "pool.misses"));
       emit "pool.drops" (d "pool.drops");
       emit "server.dup_hits" (d "server.dup_hits");
       emit "admission.admitted" (d "admission.admitted" /. trials);
       emit "admission.shed" (d "admission.shed" /. trials);
       emit "admission.rejected_quota" (d "admission.rejected_quota" /. trials);
       emit "lease.denied_mallocs" (d "lease.denied_mallocs" /. trials);
       emit "lease.reclaimed_bytes" (d "lease.reclaimed_bytes" /. trials);
       emit "gc.minor_collections_per_kop" (1000. *. per_op wa (float_of_int wa.minor_gcs));
       emit "gc.major_collections_per_kop" (1000. *. per_op wa (float_of_int wa.major_gcs));
       emit "gc.promoted_words_per_op" (per_op wa wa.promoted);
       emit "trace.overhead_pct"
         (100. *. (ratio (rate pa) (rate wa) -. 1.));
       emit "trace.attributed_pct"
         (100.
         *. ratio
              (layer Probe.client +. layer Probe.channel +. layer Probe.server)
              (float_of_int wa.elapsed_ns));
       emit "harness.alloc_words_per_op" harness_words
     end
   with e ->
     incr failed;
     problem "%s: %s" w.W.name (Printexc.to_string e));
  if !failed > 0 then problem "%d of %d ops failed" !failed !attempted;
  let metrics =
    List.filter_map
      (fun (name, _) -> List.find_opt (fun (n, _, _) -> n = name) !metrics)
      units
  in
  if !problems = [] && List.length metrics <> List.length units then
    problem "not every metric was measured";
  {
    correct = !problems = [];
    attempted = max 1 !attempted;
    failed = !failed;
    metrics;
    problems = List.rev !problems;
    notes = !notes;
  }
