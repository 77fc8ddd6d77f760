(* Paper-shape reproduction: one function per table/figure of the
   evaluation section. Each prints the same series the paper plots and
   returns the raw numbers so the calibration tests can assert orderings. *)

module Time = Simnet.Time

let mib = 1048576.0

let header title = Printf.printf "\n== %s ==\n%!" title

let table1 () =
  header "Table 1: evaluated configurations";
  Printf.printf "%-9s %-5s %-12s %-10s %s\n" "Name" "app" "OS" "Hypervisor"
    "Network";
  List.iter print_endline (Unikernel.Config.table1_rows ())

(* --- Figure 5: proxy applications --- *)

type app_row = { cfg : Unikernel.Config.t; seconds : float; calls : int;
                 mib_up : float; mib_down : float }

let print_app_rows rows =
  Printf.printf "%-9s %10s %12s %10s %10s\n" "config" "time[s]" "API calls"
    "up[MiB]" "down[MiB]";
  List.iter
    (fun r ->
      Printf.printf "%-9s %10.2f %12d %10.2f %10.2f\n" r.cfg.Unikernel.Config.name
        r.seconds r.calls r.mib_up r.mib_down)
    rows

let app_row cfg (m : Unikernel.Runner.measurement) =
  {
    cfg;
    seconds = Time.to_float_s m.Unikernel.Runner.elapsed;
    calls = m.Unikernel.Runner.api_calls;
    mib_up = Float.of_int m.Unikernel.Runner.memcpy_up /. mib;
    mib_down = Float.of_int m.Unikernel.Runner.memcpy_down /. mib;
  }

(* Run an application in every configuration: numerics are verified once
   on a small functional run in the first configuration (they do not
   depend on the configuration; the unikernel tests verify every one),
   then the measured runs replay the paper's iteration counts with kernel
   execution disabled (timing-identical; see DESIGN.md "Determinism"). *)
let verified_rows ~verify_run ~measured_run =
  ignore
    (Unikernel.Runner.run ~functional:true (List.hd Unikernel.Config.all)
       verify_run);
  let rows =
    List.map
      (fun cfg ->
        app_row cfg (Unikernel.Runner.run ~functional:false cfg measured_run))
      Unikernel.Config.all
  in
  print_app_rows rows;
  rows

let fig5a ?(iterations = Apps.Matrix_mul.paper.Apps.Matrix_mul.iterations) () =
  header
    (Printf.sprintf "Figure 5a: matrixMul, %d iterations (10-run averages in \
                     the paper; deterministic here)" iterations);
  let params = { Apps.Matrix_mul.paper with Apps.Matrix_mul.iterations } in
  verified_rows
    ~verify_run:
      (Apps.Matrix_mul.run ~verify:true
         { params with Apps.Matrix_mul.iterations = 2 })
    ~measured_run:(Apps.Matrix_mul.run ~verify:false params)

let fig5b ?(iterations = Apps.Linear_solver.paper.Apps.Linear_solver.iterations)
    () =
  header
    (Printf.sprintf
       "Figure 5b: cuSolverDn_LinearSolver, LU 900x900, %d iterations"
       iterations);
  let params = { Apps.Linear_solver.paper with Apps.Linear_solver.iterations } in
  verified_rows
    ~verify_run:
      (Apps.Linear_solver.run ~verify:true
         { params with Apps.Linear_solver.iterations = 1 })
    ~measured_run:(Apps.Linear_solver.run ~verify:false params)

let fig5c ?(iterations = Apps.Histogram.paper.Apps.Histogram.iterations) () =
  header (Printf.sprintf "Figure 5c: histogram, 64 MiB, %d iterations" iterations);
  let params = { Apps.Histogram.paper with Apps.Histogram.iterations } in
  verified_rows
    ~verify_run:
      (Apps.Histogram.run ~verify:true
         { params with Apps.Histogram.iterations = 2 })
    ~measured_run:(Apps.Histogram.run ~verify:false params)

(* --- Figure 6: API-call micro-benchmarks --- *)

type micro_row = { mcfg : Unikernel.Config.t; mseconds : float; per_call_us : float }

let print_micro_rows rows =
  Printf.printf "%-9s %12s %14s\n" "config" "total[s]" "per call[us]";
  List.iter
    (fun r ->
      Printf.printf "%-9s %12.3f %14.2f\n" r.mcfg.Unikernel.Config.name
        r.mseconds (r.per_call_us))
    rows

let fig6 which ?(calls = 100_000) () =
  header
    (Printf.sprintf "Figure 6%s: %s x %d"
       (match which with
       | Apps.Micro.Get_device_count -> "a"
       | Apps.Micro.Malloc_free -> "b"
       | Apps.Micro.Kernel_launch -> "c")
       (Apps.Micro.which_to_string which)
       calls);
  let rows =
    List.map
      (fun cfg ->
        let result = ref None in
        let (_ : Unikernel.Runner.measurement) =
          Unikernel.Runner.run ~functional:false cfg (fun env ->
              result := Some (Apps.Micro.run ~calls which env))
        in
        match !result with
        | Some r ->
            {
              mcfg = cfg;
              mseconds = Time.to_float_s r.Apps.Micro.elapsed;
              per_call_us = r.Apps.Micro.ns_per_call /. 1000.0;
            }
        | None -> assert false)
      Unikernel.Config.all
  in
  print_micro_rows rows;
  rows

(* --- Figure 7: bandwidthTest --- *)

type bw_row = { bcfg : Unikernel.Config.t; mib_per_s : float; pct_of_best : float }

let print_bw_rows rows =
  Printf.printf "%-9s %14s %12s\n" "config" "MiB/s" "% of native";
  List.iter
    (fun r ->
      Printf.printf "%-9s %14.1f %12.1f\n" r.bcfg.Unikernel.Config.name
        r.mib_per_s r.pct_of_best)
    rows

let fig7 direction ?(total_bytes = 512 lsl 20) () =
  header
    (Printf.sprintf "Figure 7%s: bandwidthTest %s, %d MiB"
       (match direction with
       | Apps.Bandwidth.Device_to_host -> "a"
       | Apps.Bandwidth.Host_to_device -> "b")
       (Apps.Bandwidth.direction_to_string direction)
       (total_bytes lsr 20));
  let raw =
    List.map
      (fun cfg ->
        let result = ref None in
        let (_ : Unikernel.Runner.measurement) =
          Unikernel.Runner.run ~functional:false cfg (fun env ->
              result := Some (Apps.Bandwidth.measure ~total_bytes direction env))
        in
        match !result with
        | Some r -> (cfg, r.Apps.Bandwidth.mib_per_s)
        | None -> assert false)
      Unikernel.Config.all
  in
  let best = List.fold_left (fun acc (_, v) -> Float.max acc v) 0.0 raw in
  let rows =
    List.map
      (fun (cfg, v) ->
        { bcfg = cfg; mib_per_s = v; pct_of_best = 100.0 *. v /. best })
      raw
  in
  print_bw_rows rows;
  rows

(* --- §4.2 ablation: Linux VM with bulk offloads disabled --- *)

let ablation_offloads ?(total_bytes = 512 lsl 20) () =
  header
    "Ablation (section 4.2): Linux VM with TSO/tx-csum/SG disabled, \
     host-to-device";
  let vm = Unikernel.Config.linux_vm in
  let crippled_profile =
    Simnet.Hostprofile.with_offloads vm.Unikernel.Config.profile
      (Simnet.Offload.disable_bulk
         vm.Unikernel.Config.profile.Simnet.Hostprofile.offloads)
  in
  let crippled =
    { vm with Unikernel.Config.name = "VM-nooff"; profile = crippled_profile }
  in
  let measure cfg =
    let result = ref None in
    let (_ : Unikernel.Runner.measurement) =
      Unikernel.Runner.run ~functional:false cfg (fun env ->
          result :=
            Some
              (Apps.Bandwidth.measure ~total_bytes
                 Apps.Bandwidth.Host_to_device env))
    in
    match !result with
    | Some r -> r.Apps.Bandwidth.mib_per_s
    | None -> assert false
  in
  let with_offloads = measure vm in
  let without = measure crippled in
  Printf.printf "%-24s %14.1f MiB/s\n" "Linux VM (offloads on)" with_offloads;
  Printf.printf "%-24s %14.1f MiB/s  (paper: ~923.9 MiB/s)\n"
    "Linux VM (offloads off)" without;
  (with_offloads, without)

(* --- Figure 7 on the executable stack: per-config offload negotiation.

   Unlike [fig7]/[ablation_offloads], which price transfers with the
   Netcost closed form, this runs a bulk upload through the real
   Endpoint + Netdev datapath: TSO/GRO/checksum effects emerge from
   segmentation and ACK clocking rather than from a formula. The two
   views bracketing each other is the validation. *)

let ablation_offloads_exec ?(total_bytes = 64 lsl 20) () =
  header
    (Printf.sprintf
       "Ablation (Figure 7, executable stack): %d MiB upload over \
        Endpoint+Netdev"
       (total_bytes lsr 20));
  let results = Unikernel.Netbench.ablation ~bytes:total_bytes () in
  let native = List.hd results in
  Printf.printf "%-10s %12s %10s %8s %8s %9s %s\n" "config" "MiB/s" "% native"
    "wire" "rxunits" "swcsumMiB" "offloads";
  List.iter
    (fun (r : Unikernel.Netbench.result) ->
      Printf.printf "%-10s %12.1f %10.1f %8d %8d %9.1f %s\n"
        r.Unikernel.Netbench.name r.Unikernel.Netbench.bandwidth_mib_s
        (100.0
        *. r.Unikernel.Netbench.bandwidth_mib_s
        /. native.Unikernel.Netbench.bandwidth_mib_s)
        r.Unikernel.Netbench.netdev.Tcpstack.Netdev.wire_segments
        r.Unikernel.Netbench.netdev.Tcpstack.Netdev.rx_units
        (float_of_int
           r.Unikernel.Netbench.netdev.Tcpstack.Netdev.sw_checksum_bytes
        /. mib)
        (Format.asprintf "%a" Simnet.Offload.pp
           r.Unikernel.Netbench.offloads))
    results;
  results

(* --- §4.1 analysis table: per-app call counts and transfer volumes --- *)

let fig5_stats () =
  header
    "Section 4.1 profile: API calls and transferred bytes per application \
     (paper: matrixMul 100041 calls / 1.95 MiB; LinearSolver 20047 calls / \
     6.07 GiB; histogram 80033 calls / 64 MiB)";
  let row name calls (m : Unikernel.Runner.measurement) =
    Printf.printf
      "%-22s %10d calls %10.2f MiB memory transfers (%.2f up / %.2f down)\n"
      name calls
      (Float.of_int (m.Unikernel.Runner.memcpy_up + m.Unikernel.Runner.memcpy_down) /. mib)
      (Float.of_int m.Unikernel.Runner.memcpy_up /. mib)
      (Float.of_int m.Unikernel.Runner.memcpy_down /. mib)
  in
  let m =
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Matrix_mul.run ~verify:false Apps.Matrix_mul.paper)
  in
  row "matrixMul" m.Unikernel.Runner.api_calls m;
  let ls =
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Linear_solver.run ~verify:false Apps.Linear_solver.paper)
  in
  row "cuSolverDn_LinearSolver" ls.Unikernel.Runner.api_calls ls;
  let h =
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Histogram.run ~verify:false Apps.Histogram.paper)
  in
  row "histogram" h.Unikernel.Runner.api_calls h;
  (m.Unikernel.Runner.api_calls, ls.Unikernel.Runner.api_calls,
   h.Unikernel.Runner.api_calls)

(* --- ablation: record-marking fragment size --- *)

let ablation_fragsize () =
  header
    "Ablation: RPC record fragment size (RPC-Lib must support fragmented \
     records; smaller fragments add header overhead)";
  Printf.printf "%-14s %14s %16s\n" "fragment" "wire bytes" "time (hermit)";
  let payload = 8 lsl 20 in
  List.map
    (fun fragment_size ->
      (* wire overhead is exact arithmetic on the record format *)
      let fragments = (payload + fragment_size - 1) / fragment_size in
      let wire = payload + (4 * fragments) in
      (* virtual transfer time for the wire bytes from a hermit client *)
      let t =
        Simnet.Netcost.one_way_time
          ~sender:Unikernel.Config.hermit.Unikernel.Config.profile
          ~receiver:Unikernel.Config.server_profile ~link:Unikernel.Config.link
          wire
      in
      Printf.printf "%-14s %14d %16s\n"
        (if fragment_size >= 1 lsl 20 then
           Printf.sprintf "%d MiB" (fragment_size lsr 20)
         else Printf.sprintf "%d KiB" (fragment_size lsr 10))
        wire
        (Format.asprintf "%a" Time.pp t);
      (fragment_size, wire, t))
    [ 1 lsl 12; 1 lsl 14; 1 lsl 16; 1 lsl 20; Oncrpc.Record.max_fragment_size ]

(* --- ablation: transfer strategies --- *)

let ablation_transfer () =
  header
    "Ablation: Cricket memory-transfer strategies (only rpc-arguments is \
     available to unikernels; section 4.2)";
  Printf.printf "%-20s %14s %12s %s\n" "strategy" "est. MiB/s" "unikernel?" "";
  let base =
    Simnet.Netcost.throughput_bytes_per_s
      ~sender:Unikernel.Config.server_profile
      ~receiver:Unikernel.Config.server_profile ~link:Unikernel.Config.link
      (64 lsl 20)
    /. 1048576.0
  in
  List.map
    (fun strategy ->
      let mibs = base *. Cricket.Transfer.bandwidth_multiplier strategy in
      Printf.printf "%-20s %14.1f %12s\n"
        (Cricket.Transfer.to_string strategy)
        mibs
        (if Cricket.Transfer.supported_by_unikernel strategy then "yes"
         else "no");
      (strategy, mibs))
    [ Cricket.Transfer.Rpc_arguments; Cricket.Transfer.Parallel_tcp 4;
      Cricket.Transfer.Parallel_tcp 8; Cricket.Transfer.Infiniband_rdma;
      Cricket.Transfer.Shared_memory ]

(* --- section 5: GPU sharing through configurable schedulers --- *)

(* Serve one run of the section 5 ablations on the serving core: a fresh
   engine and server (kernels timed, not executed), one Tenancy.Core over
   [tenants] with a 1 ns quantum (any item with a cost exhausts its
   tenant's deficit, so round robin moves on after every item) and
   unlimited admission. [items] builds the work from the engine and the
   core, which per-tenant clients dispatch through. *)
let serve_shared ~policy ~tenants items =
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  Cudasim.Context.set_functional (Cricket.Server.context server) false;
  let core =
    Tenancy.Core.create ~engine ~server ~policy ~quantum_ns:1
      ~admission:Tenancy.Admission.unlimited ~tenants ()
  in
  Tenancy.Core.run core (items engine core)

let shared_policies =
  [ Cricket.Sched.Fifo; Cricket.Sched.Round_robin; Cricket.Sched.Priority ]

(* Tenant 0 is "batch" at priority 5, the others [interactive i] at 1. *)
let batch_and_interactive n interactive =
  Array.init n (fun i ->
      if i = 0 then { Tenancy.Core.name = "batch"; priority = 5; caps = None }
      else { Tenancy.Core.name = interactive i; priority = 1; caps = None })

let ablation_scheduler () =
  header
    "Ablation: GPU sharing across many unikernels — scheduler policies \
     (section 5: \"managing the shared access through configurable \
     schedulers\")";
  (* 8 unikernel clients: one batch client whose Pareto-sized jobs arrive
     in a burst, seven interactive clients with Poisson arrivals. Client
     [c] is tenant [c]: "batch" then "uk1".."uk7", in name order. *)
  let rng = Simnet.Random_variate.create ~seed:2023 in
  let jobs =
    List.concat
      (List.init 8 (fun c ->
           if c = 0 then
             List.init 20 (fun i ->
                 ( c,
                   Time.us (i * 50),
                   Time.of_float_ns
                     (1_000.0
                     *. Simnet.Random_variate.pareto rng ~shape:1.3
                          ~scale:400.0 ~max:2_500.0) ))
           else
             List.map
               (fun arrival ->
                 ( c,
                   arrival,
                   Time.us (80 + Simnet.Random_variate.uniform_int rng 80) ))
               (Simnet.Random_variate.poisson_arrivals rng
                  ~mean_gap:(Time.us 1_000) ~count:10)))
    |> List.stable_sort (fun (c, a, _) (c', a', _) ->
           match Time.compare a a' with 0 -> compare c c' | o -> o)
  in
  let tenants = batch_and_interactive 8 (Printf.sprintf "uk%d") in
  Printf.printf "%-13s %12s %16s %16s %10s\n" "policy" "makespan"
    "interactive wait" "batch wait" "fairness";
  List.map
    (fun policy ->
      let max_wait = Array.make 8 Time.zero in
      let result =
        serve_shared ~policy ~tenants (fun engine _ ->
            List.map
              (fun (c, arrival, duration) ->
                {
                  Tenancy.Core.tenant = c;
                  arrival;
                  work =
                    (fun () ->
                      let wait = Time.sub (Simnet.Engine.now engine) arrival in
                      if Time.compare wait max_wait.(c) > 0 then
                        max_wait.(c) <- wait;
                      Simnet.Engine.advance engine duration);
                })
              jobs)
      in
      let interactive_wait =
        Array.fold_left Float.max 0.0
          (Array.map Time.to_float_us (Array.sub max_wait 1 7))
      in
      let makespan = result.Tenancy.Core.makespan in
      Printf.printf "%-13s %12s %13.0f us %13.0f us %10.3f\n"
        (Cricket.Sched.policy_to_string policy)
        (Format.asprintf "%a" Time.pp makespan)
        interactive_wait
        (Time.to_float_us max_wait.(0))
        result.jain;
      (policy, makespan, result.jain))
    shared_policies

(* --- future work (§4.2/§5): TSO for unikernels, vDPA data path --- *)

let ablation_futures ?(total_bytes = 128 lsl 20) () =
  header
    "Projection (section 5 future work): unikernel TSO support and vDPA \
     direct data path";
  Printf.printf "%-18s %14s %14s %14s\n" "config" "H2D MiB/s" "D2H MiB/s"
    "RTT [us]";
  let evaluate cfg =
    let h2d = ref 0.0 and d2h = ref 0.0 and rtt = ref 0.0 in
    let (_ : Unikernel.Runner.measurement) =
      Unikernel.Runner.run ~functional:false cfg (fun env ->
          let r1 =
            Apps.Bandwidth.measure ~total_bytes Apps.Bandwidth.Host_to_device env
          in
          let r2 =
            Apps.Bandwidth.measure ~total_bytes Apps.Bandwidth.Device_to_host env
          in
          let m = Apps.Micro.run ~calls:2_000 Apps.Micro.Get_device_count env in
          h2d := r1.Apps.Bandwidth.mib_per_s;
          d2h := r2.Apps.Bandwidth.mib_per_s;
          rtt := m.Apps.Micro.ns_per_call /. 1e3)
    in
    (!h2d, !d2h, !rtt)
  in
  List.concat_map
    (fun base ->
      List.map
        (fun (label, cfg) ->
          let h2d, d2h, rtt = evaluate cfg in
          let shown =
            if label = "baseline" then base.Unikernel.Config.name
            else base.Unikernel.Config.name ^ label
          in
          Printf.printf "%-18s %14.1f %14.1f %14.2f\n" shown h2d d2h rtt;
          (shown, h2d, d2h, rtt))
        (Unikernel.Futures.variants base))
    [ Unikernel.Config.hermit; Unikernel.Config.unikraft ]

(* --- multi-tenant GPU sharing (§5) --- *)

let ablation_multitenant () =
  header
    "Multi-tenant GPU sharing (section 5): four Hermit unikernels on one \
     A100 through a single Cricket server";
  (* tenant 0 is a heavy batch job, 1-3 are small interactive jobs; each
     step is one saxpy-sized malloc/memset/free *)
  let saxpy_step n (client : Cricket.Client.t) =
    let d = Cricket.Client.malloc client (4 * n) in
    Cricket.Client.memset client ~ptr:d ~value:0 ~len:(4 * n);
    Cricket.Client.free client d
  in
  let tenants = batch_and_interactive 4 (Printf.sprintf "interactive%d") in
  let cfg = Unikernel.Config.hermit in
  List.map
    (fun policy ->
      let calls = Array.make 4 0 and finished_at = Array.make 4 Time.zero in
      let result =
        serve_shared ~policy ~tenants (fun engine core ->
            List.concat
              (List.init 4 (fun i ->
                   (* each tenant has its own RPC channel with its own host
                      profile, dispatching under its tenant identity *)
                   let channel =
                     Unikernel.Simchannel.create ~engine
                       ~client:cfg.Unikernel.Config.profile
                       ~dispatch:(Tenancy.Core.dispatch_for core ~tenant:i) ()
                   in
                   let client =
                     Cricket.Client.create
                       ~launch_extra_ns:cfg.Unikernel.Config.launch_extra_ns
                       ~charge:(Simnet.Engine.advance_ns engine)
                       ~transport:(Unikernel.Simchannel.transport channel)
                       ()
                   in
                   let steps, n = if i = 0 then (40, 1 lsl 20) else (10, 4096) in
                   List.init steps (fun _ ->
                       {
                         Tenancy.Core.tenant = i;
                         arrival = Time.zero;
                         work =
                           (fun () ->
                             saxpy_step n client;
                             calls.(i) <- Cricket.Client.api_calls client;
                             finished_at.(i) <- Simnet.Engine.now engine);
                       }))))
      in
      Format.printf "policy %s, makespan %a@."
        (Cricket.Sched.policy_to_string policy)
        Time.pp result.Tenancy.Core.makespan;
      Array.iteri
        (fun i (t : Tenancy.Core.tenant_result) ->
          Format.printf "  %-12s %4d steps %6d calls  finished at %a@."
            t.name t.completed calls.(i) Time.pp finished_at.(i))
        result.Tenancy.Core.tenants;
      result)
    shared_policies

(* --- ablation: CUDA streams & asynchronous RPC pipelining --- *)

let ablation_pipeline ?(params = Apps.Pipeline.default) () =
  header
    (Printf.sprintf
       "Ablation: stream-ordered async RPC pipelining — %d rounds of \
        upload+saxpy on %d-element vectors (one-way RPCs share a network \
        round trip; sync pays it on every call)"
       params.Apps.Pipeline.rounds params.Apps.Pipeline.elements);
  let modes =
    [ Apps.Pipeline.Sync; Apps.Pipeline.Async 1; Apps.Pipeline.Async 4;
      Apps.Pipeline.Async 16; Apps.Pipeline.Async 64 ]
  in
  Printf.printf "%-9s %-9s %12s %12s %10s %8s %s\n" "config" "mode" "time[ms]"
    "calls/s" "speedup" "bitexact" "";
  List.concat_map
    (fun cfg ->
      let results =
        List.map (fun mode -> Apps.Pipeline.measure ~params mode cfg) modes
      in
      let baseline = List.hd results in
      List.iter
        (fun (r : Apps.Pipeline.result) ->
          Printf.printf "%-9s %-9s %12.3f %12.0f %9.2fx %8s\n"
            cfg.Unikernel.Config.name
            (Apps.Pipeline.mode_name r.Apps.Pipeline.mode)
            (Time.to_float_ms r.Apps.Pipeline.elapsed)
            r.Apps.Pipeline.calls_per_s
            (Time.to_float_s baseline.Apps.Pipeline.elapsed
            /. Time.to_float_s r.Apps.Pipeline.elapsed)
            (if r.Apps.Pipeline.digest = baseline.Apps.Pipeline.digest then
               "yes"
             else "NO"))
        results;
      List.map (fun r -> (cfg, r)) results)
    Unikernel.Config.all

(* --- server-side per-procedure profile --- *)

let proc_profile () =
  header
    "Server-side per-procedure call profile for matrixMul (names resolved \
     from the RPCL spec)";
  let counts = ref [] in
  let (_ : Unikernel.Runner.measurement) =
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (fun env ->
        Apps.Matrix_mul.run ~verify:false
          { Apps.Matrix_mul.default with Apps.Matrix_mul.iterations = 1_000 }
          env;
        counts := Cricket.Server.proc_stats env.Unikernel.Runner.server)
  in
  List.iter
    (fun (name, count) -> Printf.printf "%-32s %8d\n" name count)
    !counts;
  !counts
