(* benchctl: run individual paper experiments from the command line with
   explicit workload parameters — a finer-grained interface than
   bench/main.exe's all-at-once mode. *)

open Cmdliner

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"N"
           ~doc:"OCaml domains to execute shards/scenarios on. Never \
                 changes stdout bytes, only wall-clock time.")

let config_conv =
  let parse s =
    match Unikernel.Config.find s with
    | Some c -> Ok c
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown config %S (C, Rust, \"Linux VM\", \
                              Unikraft, Hermit)" s))
  in
  let print ppf c = Format.pp_print_string ppf c.Unikernel.Config.name in
  Arg.conv (parse, print)

let configs_arg =
  Arg.(value & opt_all config_conv Unikernel.Config.all
       & info [ "c"; "config" ] ~docv:"CONFIG"
           ~doc:"Configuration(s) to run (repeatable; default: all five).")

let report configs run =
  List.iter
    (fun cfg ->
      let m = run cfg in
      Format.printf "%a@." Unikernel.Runner.pp_measurement m)
    configs

(* --- table1 --- *)

let table1_cmd =
  Cmd.v (Cmd.info "table1" ~doc:"print the configuration matrix (Table 1)")
    Term.(
      const (fun () ->
          Printf.printf "%-9s %-5s %-12s %-10s %s\n" "Name" "app" "OS"
            "Hypervisor" "Network";
          List.iter print_endline (Unikernel.Config.table1_rows ()))
      $ const ())

(* --- apps --- *)

let iterations_arg default =
  Arg.(value & opt int default
       & info [ "n"; "iterations" ] ~docv:"N" ~doc:"Iteration count.")

let verify_arg =
  Arg.(value & flag
       & info [ "verify" ]
           ~doc:"Run functionally and verify numerics (slower; uses a \
                 reduced iteration count).")

let matrixmul_cmd =
  let run configs iterations verify =
    report configs (fun cfg ->
        let params = { Apps.Matrix_mul.paper with Apps.Matrix_mul.iterations } in
        if verify then
          Unikernel.Runner.run ~functional:true cfg
            (Apps.Matrix_mul.run ~verify:true
               { params with Apps.Matrix_mul.iterations = min iterations 5 })
        else
          Unikernel.Runner.run ~functional:false cfg
            (Apps.Matrix_mul.run ~verify:false params))
  in
  Cmd.v (Cmd.info "matrixmul" ~doc:"run the matrixMul proxy app (Fig. 5a)")
    Term.(const run $ configs_arg $ iterations_arg 100_000 $ verify_arg)

let solver_cmd =
  let run configs iterations verify =
    report configs (fun cfg ->
        let params =
          { Apps.Linear_solver.paper with Apps.Linear_solver.iterations }
        in
        if verify then
          Unikernel.Runner.run ~functional:true cfg
            (Apps.Linear_solver.run ~verify:true
               { params with Apps.Linear_solver.iterations = 1 })
        else
          Unikernel.Runner.run ~functional:false cfg
            (Apps.Linear_solver.run ~verify:false params))
  in
  Cmd.v
    (Cmd.info "solver" ~doc:"run the cuSolverDn_LinearSolver proxy app (Fig. 5b)")
    Term.(const run $ configs_arg $ iterations_arg 1_000 $ verify_arg)

let histogram_cmd =
  let run configs iterations verify =
    report configs (fun cfg ->
        let params = { Apps.Histogram.paper with Apps.Histogram.iterations } in
        if verify then
          Unikernel.Runner.run ~functional:true cfg
            (Apps.Histogram.run ~verify:true
               { params with Apps.Histogram.iterations = min iterations 3 })
        else
          Unikernel.Runner.run ~functional:false cfg
            (Apps.Histogram.run ~verify:false params))
  in
  Cmd.v (Cmd.info "histogram" ~doc:"run the histogram proxy app (Fig. 5c)")
    Term.(const run $ configs_arg $ iterations_arg 40_000 $ verify_arg)

(* --- micro --- *)

let micro_cmd =
  let which_conv =
    Arg.enum
      [ ("getdevicecount", Apps.Micro.Get_device_count);
        ("mallocfree", Apps.Micro.Malloc_free);
        ("launch", Apps.Micro.Kernel_launch) ]
  in
  let which_arg =
    Arg.(required & pos 0 (some which_conv) None
         & info [] ~docv:"WHICH" ~doc:"getdevicecount | mallocfree | launch")
  in
  let run configs which calls =
    List.iter
      (fun cfg ->
        let result = ref None in
        let (_ : Unikernel.Runner.measurement) =
          Unikernel.Runner.run ~functional:false cfg (fun env ->
              result := Some (Apps.Micro.run ~calls which env))
        in
        match !result with
        | Some r ->
            Printf.printf "%-9s %s x %d: %s (%.2f us/call)\n"
              cfg.Unikernel.Config.name
              (Apps.Micro.which_to_string which)
              calls
              (Format.asprintf "%a" Simnet.Time.pp r.Apps.Micro.elapsed)
              (r.Apps.Micro.ns_per_call /. 1e3)
        | None -> ())
      configs
  in
  Cmd.v (Cmd.info "micro" ~doc:"CUDA API micro-benchmarks (Fig. 6)")
    Term.(
      const run $ configs_arg $ which_arg
      $ Arg.(value & opt int 100_000
             & info [ "calls" ] ~docv:"N" ~doc:"Number of calls."))

(* --- bandwidth --- *)

let bandwidth_cmd =
  let run configs mib =
    List.iter
      (fun cfg ->
        let result = ref None in
        let (_ : Unikernel.Runner.measurement) =
          Unikernel.Runner.run ~functional:false cfg (fun env ->
              let measure = Apps.Bandwidth.measure ~total_bytes:(mib lsl 20) in
              let h2d = measure Apps.Bandwidth.Host_to_device env in
              result := Some (h2d, measure Apps.Bandwidth.Device_to_host env))
        in
        match !result with
        | Some (h2d, d2h) ->
            Printf.printf "%-9s H2D %8.1f MiB/s   D2H %8.1f MiB/s\n"
              cfg.Unikernel.Config.name h2d.Apps.Bandwidth.mib_per_s
              d2h.Apps.Bandwidth.mib_per_s
        | None -> ())
      configs
  in
  Cmd.v (Cmd.info "bandwidth" ~doc:"bandwidthTest port (Fig. 7)")
    Term.(
      const run $ configs_arg
      $ Arg.(value & opt int 512
             & info [ "mib" ] ~docv:"MIB" ~doc:"Total transfer size in MiB."))

(* --- pipeline --- *)

let pipeline_cmd =
  let mode_conv =
    let parse s =
      match s with
      | "sync" -> Ok Apps.Pipeline.Sync
      | _ -> (
          match int_of_string_opt s with
          | Some d when d > 0 -> Ok (Apps.Pipeline.Async d)
          | _ ->
              Error
                (`Msg
                   (Printf.sprintf
                      "bad mode %S (expected \"sync\" or a positive depth)" s)))
    in
    let print ppf m = Format.pp_print_string ppf (Apps.Pipeline.mode_name m) in
    Arg.conv (parse, print)
  in
  let run configs modes rounds elements =
    let params = { Apps.Pipeline.rounds; elements } in
    List.iter
      (fun cfg ->
        let results =
          List.map (fun mode -> Apps.Pipeline.measure ~params mode cfg) modes
        in
        let baseline = List.hd results in
        List.iter
          (fun (r : Apps.Pipeline.result) ->
            Printf.printf
              "%-9s %-9s %10.3f ms %10.0f calls/s %8.2fx %s\n"
              cfg.Unikernel.Config.name
              (Apps.Pipeline.mode_name r.Apps.Pipeline.mode)
              (Simnet.Time.to_float_ms r.Apps.Pipeline.elapsed)
              r.Apps.Pipeline.calls_per_s
              (Simnet.Time.to_float_s baseline.Apps.Pipeline.elapsed
              /. Simnet.Time.to_float_s r.Apps.Pipeline.elapsed)
              (if r.Apps.Pipeline.digest = baseline.Apps.Pipeline.digest then
                 "bit-exact"
               else "DIGEST MISMATCH"))
          results)
      configs
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:"stream-ordered async RPC pipelining ablation (sync vs \
             pipeline depths)")
    Term.(
      const run $ configs_arg
      $ Arg.(value
             & opt_all mode_conv
                 [ Apps.Pipeline.Sync; Apps.Pipeline.Async 1;
                   Apps.Pipeline.Async 4; Apps.Pipeline.Async 16;
                   Apps.Pipeline.Async 64 ]
             & info [ "m"; "mode" ] ~docv:"MODE"
                 ~doc:"Mode(s): \"sync\" or a pipeline depth (repeatable).")
      $ Arg.(value & opt int Apps.Pipeline.default.Apps.Pipeline.rounds
             & info [ "rounds" ] ~docv:"N" ~doc:"Upload+launch rounds.")
      $ Arg.(value & opt int Apps.Pipeline.default.Apps.Pipeline.elements
             & info [ "elements" ] ~docv:"N" ~doc:"f32 elements per vector."))

(* --- offloads --- *)

let offloads_cmd =
  let run configs mib device_off =
    let bytes = mib lsl 20 in
    let device =
      if device_off then Simnet.Offload.none else Simnet.Offload.all
    in
    let results =
      List.filter_map
        (fun (cfg : Unikernel.Config.t) ->
          match cfg.Unikernel.Config.hypervisor with
          | None -> None
          | Some _ ->
              Some
                (Unikernel.Netbench.upload ~device
                   ~name:cfg.Unikernel.Config.name
                   ~profile:cfg.Unikernel.Config.profile ~bytes ()))
        configs
    in
    let native =
      Unikernel.Netbench.upload ~device ~name:"native"
        ~profile:Unikernel.Config.server_profile ~bytes ()
    in
    List.iter
      (fun (r, frac) ->
        Format.printf "%a  (%.1f%% of native)@." Unikernel.Netbench.pp_result
          r (100.0 *. frac))
      (Unikernel.Netbench.relative ~baseline:native (native :: results))
  in
  Cmd.v
    (Cmd.info "offloads"
       ~doc:"bulk-upload offload ablation on the executable TCP stack \
             (Endpoint + Netdev): per-config virtio-net feature \
             negotiation, TSO/GRO/checksum effects, Figure 7 ordering")
    Term.(
      const run $ configs_arg
      $ Arg.(value & opt int 64
             & info [ "mib" ] ~docv:"MIB" ~doc:"Upload size in MiB.")
      $ Arg.(value & flag
             & info [ "no-device-offloads" ]
                 ~doc:"Negotiate against a device advertising no feature \
                       bits (forces every config onto the software path)."))

(* --- faults --- *)

let faults_cmd =
  let run configs iterations dim seed crash_after rates =
    let params =
      {
        Apps.Matrix_mul.ha = dim;
        wa = dim;
        wb = dim;
        iterations;
      }
    in
    List.iter
      (fun cfg ->
        Printf.printf
          "%-9s %-8s %12s %9s %8s %8s %10s %9s %8s %s\n"
          cfg.Unikernel.Config.name "rate" "elapsed" "slowdown" "injected"
          "retries" "recoveries" "replayed" "dup-hits" "digest";
        let baseline = ref None in
        List.iter
          (fun rate ->
            let plan =
              {
                Simnet.Fault.none with
                Simnet.Fault.seed;
                drop_rate = rate;
                crashes =
                  (if crash_after > 0 then
                     [ { Simnet.Fault.after_records = crash_after;
                         down_for = Simnet.Time.ms 2 } ]
                   else []);
              }
            in
            let digest = ref "" in
            let report =
              Unikernel.Runner.run_with_faults ~functional:true ~plan cfg
                (Apps.Matrix_mul.run ~verify:true ~digest_out:digest params)
            in
            let elapsed =
              report.Unikernel.Runner.measurement.Unikernel.Runner.elapsed
            in
            let base_elapsed, base_digest =
              match !baseline with
              | Some b -> b
              | None ->
                  baseline := Some (elapsed, !digest);
                  (elapsed, !digest)
            in
            Printf.printf
              "%-9s %-8g %12s %8.2fx %8d %8d %10d %9d %8d %s\n"
              cfg.Unikernel.Config.name rate
              (Format.asprintf "%a" Simnet.Time.pp elapsed)
              (Simnet.Time.to_float_s elapsed
              /. Simnet.Time.to_float_s base_elapsed)
              (Simnet.Fault.injected report.Unikernel.Runner.faults)
              report.Unikernel.Runner.rpc_retries
              report.Unikernel.Runner.recoveries
              report.Unikernel.Runner.replayed_calls
              report.Unikernel.Runner.dup_hits
              (if !digest = base_digest then "bit-exact"
               else "DIGEST MISMATCH"))
          rates)
      configs
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"fault-injection ablation: matrixMul under record-drop rates \
             (optionally with a scheduled server crash), reporting \
             retries, recoveries and slowdown vs the fault-free run")
    Term.(
      const run $ configs_arg
      $ Arg.(value & opt int 500
             & info [ "n"; "iterations" ] ~docv:"N" ~doc:"Kernel launches.")
      $ Arg.(value & opt int 64
             & info [ "dim" ] ~docv:"D"
                 ~doc:"Square matrix dimension (multiple of 32; small keeps \
                       the functional run fast).")
      $ Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
             ~doc:"Fault-plan PRNG seed.")
      $ Arg.(value & opt int 0
             & info [ "crash-after" ] ~docv:"N"
                 ~doc:"Also crash (and restart) the server after N records \
                       (0 = never).")
      $ Arg.(value & opt_all float [ 0.0; 1e-4; 1e-3; 1e-2 ]
             & info [ "r"; "rate" ] ~docv:"RATE"
                 ~doc:"Record drop rate(s) (repeatable)."))

(* --- latency --- *)

let latency_cmd =
  (* per-layer latency decomposition of a short matrixMul run: the
     Figure 4/5 story told by the observability spans instead of the
     aggregate measurement. Layers nest shim ⊇ rpc ⊇ (net + dispatch),
     so subtracting the inner total from the outer gives exclusive time. *)
  let run configs iterations tcp trace_out =
    let ns_ms ns = Int64.to_float ns /. 1e6 in
    Printf.printf "%-9s %10s %9s %9s %9s %9s %9s %9s\n" "config" "elapsed"
      "shim" "rpc" "network" "dispatch" "gpu" "app";
    List.iter
      (fun cfg ->
        let obs = Obs.Recorder.create () in
        Obs.Recorder.set_enabled obs true;
        let params =
          { Apps.Matrix_mul.ha = 64; wa = 64; wb = 64; iterations }
        in
        let app = Apps.Matrix_mul.run ~verify:true params in
        let m =
          if tcp then fst (Unikernel.Runner.run_tcp ~obs cfg app)
          else Unikernel.Runner.run ~obs cfg app
        in
        let total l = Obs.Recorder.layer_total_ns obs l in
        let excl outer inner = Int64.max 0L (Int64.sub outer inner) in
        let shim_t = total "shim" and rpc_t = total "rpc" in
        let net_t = total "net" and disp_t = total "dispatch" in
        let gpu_t = total "gpu" in
        let elapsed = m.Unikernel.Runner.elapsed in
        Printf.printf
          "%-9s %9.3fms %8.3fms %8.3fms %8.3fms %8.3fms %8.3fms %8.3fms\n"
          cfg.Unikernel.Config.name (ns_ms elapsed)
          (ns_ms (excl shim_t rpc_t))
          (ns_ms (excl rpc_t (Int64.add net_t disp_t)))
          (ns_ms net_t)
          (ns_ms (excl disp_t gpu_t))
          (ns_ms gpu_t)
          (ns_ms (excl elapsed shim_t));
        (match Obs.Recorder.histogram obs "span/shim" with
        | Some h ->
            Printf.printf "          per-call shim latency: %s\n"
              (Format.asprintf "%a" Obs.Histogram.pp h)
        | None -> ());
        (* buffer-pool effectiveness across the run, as counters *)
        let p = Oncrpc.Pool.stats Oncrpc.Pool.default in
        Obs.Recorder.incr obs ~by:p.Oncrpc.Pool.hits "pool.hits";
        Obs.Recorder.incr obs ~by:p.Oncrpc.Pool.misses "pool.misses";
        match trace_out with
        | Some file ->
            let path =
              Printf.sprintf "%s.%s.json" file
                (String.map
                   (fun c -> if c = ' ' then '-' else Char.lowercase_ascii c)
                   cfg.Unikernel.Config.name)
            in
            let oc = open_out path in
            output_string oc (Obs.Trace_export.to_json obs);
            close_out oc;
            Printf.printf "          trace written to %s\n" path
        | None -> ())
      configs
  in
  Cmd.v
    (Cmd.info "latency"
       ~doc:"per-layer latency breakdown (client shim / RPC / network / \
             server dispatch / GPU) of a short matrixMul run, from the \
             observability spans; optionally dumps Chrome trace_event JSON")
    Term.(
      const run $ configs_arg
      $ Arg.(value & opt int 5
             & info [ "n"; "iterations" ] ~docv:"N" ~doc:"Kernel launches.")
      $ Arg.(value & flag
             & info [ "tcp" ]
                 ~doc:"Route the RPC bytes through the executable TCP stack \
                       instead of the closed-form channel.")
      $ Arg.(value & opt (some string) None
             & info [ "trace-out" ] ~docv:"PREFIX"
                 ~doc:"Also write a Chrome trace_event JSON file per config \
                       (PREFIX.<config>.json; open in chrome://tracing)."))

(* --- trace --- *)

let trace_cmd =
  let run iterations =
    let engine = Simnet.Engine.create () in
    let server =
      Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) ()
    in
    let obs =
      Obs.Recorder.create ~clock:(fun () -> Simnet.Engine.now engine) ()
    in
    Obs.Recorder.set_enabled obs true;
    Cricket.Server.set_obs server obs;
    Cudasim.Context.set_functional (Cricket.Server.context server) false;
    let client = Cricket.Local.connect server in
    Apps.Matrix_mul.run ~verify:false
      { Apps.Matrix_mul.default with Apps.Matrix_mul.iterations }
      { Unikernel.Runner.client; engine; cfg = Unikernel.Config.rust_native;
        server };
    List.iter
      (fun (s : Obs.Recorder.span_info) ->
        if s.layer = "dispatch" then
          Format.printf "%a %s (%a)@." Simnet.Time.pp s.start_ns s.name
            Simnet.Time.pp (Int64.sub s.stop_ns s.start_ns))
      (Obs.Recorder.spans obs)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"trace the RPC stream of a short matrixMul run: one line per \
             server dispatch span (virtual start, procedure and xid, \
             duration)")
    Term.(
      const run
      $ Arg.(value & opt int 5 & info [ "n"; "iterations" ] ~docv:"N"))

(* --- tenants --- *)

let tenants_cmd =
  let policy_conv =
    Arg.enum
      [ ("fifo", Cricket.Sched.Fifo); ("rr", Cricket.Sched.Round_robin);
        ("priority", Cricket.Sched.Priority) ]
  in
  let run smoke uniform tenants items seed policy mean_gap_us
      per_tenant_window global_window high_water shards domains =
    let base = if smoke then Tenancy.Loadgen.smoke else Tenancy.Loadgen.default in
    let override v = function Some x -> x | None -> v in
    let params =
      {
        base with
        Tenancy.Loadgen.tenants = override base.Tenancy.Loadgen.tenants tenants;
        items_per_tenant = override base.Tenancy.Loadgen.items_per_tenant items;
        seed = override base.Tenancy.Loadgen.seed seed;
        mean_gap =
          (match mean_gap_us with
          | Some us -> Simnet.Time.us us
          | None -> base.Tenancy.Loadgen.mean_gap);
        policies =
          (match policy with
          | Some p -> [ p ]
          | None -> base.Tenancy.Loadgen.policies);
        admission =
          {
            Tenancy.Admission.per_tenant_window =
              override base.Tenancy.Loadgen.admission
                .Tenancy.Admission.per_tenant_window per_tenant_window;
            global_window =
              override base.Tenancy.Loadgen.admission
                .Tenancy.Admission.global_window global_window;
            high_water =
              override base.Tenancy.Loadgen.admission
                .Tenancy.Admission.high_water high_water;
          };
        uniform = uniform || base.Tenancy.Loadgen.uniform;
        shards = override base.Tenancy.Loadgen.shards shards;
        domains;
      }
    in
    (* Time each policy separately so calls/sec is per policy. Wall-clock
       goes to stderr only: stdout must stay byte-identical across
       --domains counts (a golden diffs it). *)
    let timed =
      List.map
        (fun p ->
          let t0 = Unix.gettimeofday () in
          let r = Tenancy.Loadgen.run_policy params p in
          (r, Unix.gettimeofday () -. t0))
        params.Tenancy.Loadgen.policies
    in
    print_string (Tenancy.Loadgen.to_string (List.map fst timed));
    let throughput (r : Tenancy.Loadgen.report) wall =
      if wall > 0. then float_of_int r.Tenancy.Loadgen.completed /. wall
      else 0.
    in
    let name (r : Tenancy.Loadgen.report) =
      Cricket.Sched.policy_to_string r.Tenancy.Loadgen.policy
    in
    let width =
      List.fold_left (fun w (r, _) -> max w (String.length (name r))) 0 timed
    in
    List.iter
      (fun (r, wall) ->
        Printf.eprintf "wall: %-*s domains=%d %8.3f s %12.0f calls/s\n%!"
          width (name r) params.Tenancy.Loadgen.domains wall
          (throughput r wall))
      timed
  in
  Cmd.v
    (Cmd.info "tenants"
       ~doc:"multi-tenant serving-core load harness: thousands of simulated \
             clients with Poisson arrivals and a mixed workload against one \
             Cricket server, under leases, admission windows and fair-share \
             dispatch; reports per-policy p50/p99 sojourn, typed rejection \
             counts and the Jain fairness index. Seed-deterministic: equal \
             seeds print byte-identical reports.")
    Term.(
      const run
      $ Arg.(value & flag
             & info [ "smoke" ]
                 ~doc:"CI-sized run (1k tenants, tighter windows).")
      $ Arg.(value & flag
             & info [ "uniform" ]
                 ~doc:"Identical cheap items for every tenant (fairness \
                       baseline: DRR should push Jain toward 1).")
      $ Arg.(value & opt (some int) None & info [ "tenants" ] ~docv:"N")
      $ Arg.(value & opt (some int) None
             & info [ "items" ] ~docv:"N" ~doc:"Work items per tenant.")
      $ Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED")
      $ Arg.(value & opt (some policy_conv) None
             & info [ "policy" ] ~docv:"POLICY"
                 ~doc:"Run one policy only (fifo | rr | priority); default \
                       runs all three.")
      $ Arg.(value & opt (some int) None
             & info [ "mean-gap-us" ] ~docv:"US"
                 ~doc:"Per-tenant Poisson inter-arrival mean.")
      $ Arg.(value & opt (some int) None
             & info [ "per-tenant-window" ] ~docv:"N")
      $ Arg.(value & opt (some int) None & info [ "global-window" ] ~docv:"N")
      $ Arg.(value & opt (some int) None & info [ "high-water" ] ~docv:"N")
      $ Arg.(value & opt (some int) None
             & info [ "shards" ] ~docv:"N"
                 ~doc:"Logical serving shards (part of the workload \
                       definition; changing it changes the report).")
      $ domains_arg)

(* --- migrate --- *)

let migrate_cmd =
  let run smoke seed buf_kib batches dirty_kib budget_us domains =
    let module MH = Migrate.Harness in
    let module ME = Migrate.Engine in
    let buf_kib =
      match buf_kib with Some b -> b | None -> if smoke then 256 else 1024
    in
    let batches =
      match batches with Some b -> b | None -> if smoke then 12 else 24
    in
    let pre = batches / 3 in
    let dirty_rates =
      match dirty_kib with
      | Some d -> [ d ]
      | None -> if smoke then [ 16; 64 ] else [ 16; 64; 256 ]
    in
    let config =
      { ME.default with ME.pause_budget = Simnet.Time.us budget_us }
    in
    let params profile dirty fault =
      { MH.profile; buf_kib; batches; pre_batches = pre;
        dirty_kib = min dirty buf_kib; seed; fault; config }
    in
    Printf.printf
      "live session migration: pre-copy with incremental GPU checkpoints \
       (seed %d)\n"
      seed;
    Printf.printf
      "buffer %d KiB, %d write batches (%d before migration), stop \
       threshold %d KiB, max %d rounds, pause budget %.0f us\n\n"
      buf_kib batches pre
      (config.ME.stop_bytes / 1024)
      config.ME.max_rounds
      (Simnet.Time.to_float_us config.ME.pause_budget);
    Printf.printf "%-10s %11s %6s %9s %10s %10s %6s %9s %11s  %s\n" "profile"
      "dirty/batch" "rounds" "base KiB" "delta KiB" "full KiB" "saved"
      "pause us" "downtime ok" "state";
    (* Every sweep point is an independent simulation: run them across
       domains, then print rows in job order — stdout stays byte-identical
       for any --domains (a golden diffs it). *)
    let sweep_jobs =
      List.concat_map
        (fun (cfg : Unikernel.Config.t) ->
          List.map (fun dirty -> (cfg, dirty)) dirty_rates)
        Unikernel.Config.all
    in
    let sweep =
      Par.Pool.map ~domains
        (fun ((cfg : Unikernel.Config.t), dirty) ->
          let r = MH.run (params cfg dirty None) in
          match r.MH.outcome with
          | MH.Completed rep ->
              let kib n = float_of_int n /. 1024. in
              let saved =
                100.
                *. (1.
                   -. float_of_int rep.ME.total_bytes
                      /. float_of_int (max 1 rep.ME.full_total_bytes))
              in
              let pause_us = Simnet.Time.to_float_us rep.ME.pause in
              let downtime_ok =
                Simnet.Time.compare rep.ME.pause rep.ME.pause_budget <= 0
              in
              Printf.sprintf
                "%-10s %8d KiB %6d %9.1f %10.1f %10.1f %5.1f%% %9.1f %11s  %s\n"
                cfg.Unikernel.Config.name dirty
                (List.length rep.ME.rounds)
                (kib rep.ME.base_bytes)
                (kib (rep.ME.total_bytes - rep.ME.base_bytes))
                (kib rep.ME.full_total_bytes)
                saved pause_us
                (if downtime_ok then "yes" else "NO")
                (if r.MH.digest_ok then "digest ok" else "DIGEST MISMATCH")
          | MH.Aborted { phase; reason } ->
              Printf.sprintf "%-10s %8d KiB  aborted at %s: %s\n"
                cfg.Unikernel.Config.name dirty
                (ME.phase_to_string phase)
                reason)
        sweep_jobs
    in
    List.iter print_string sweep;
    (* Adversarial plans against the migration channel. Every scenario must
       end in one of exactly two states: session handed off (destination
       serving) or clean rollback (source serving) — never half-moved. *)
    let chaos_dirty = List.nth dirty_rates (List.length dirty_rates - 1) in
    Printf.printf
      "\nfault injection on the migration channel (rust profile, %d \
       KiB/batch):\n"
      chaos_dirty;
    let scenarios =
      [
        ("drop 20% of records", Simnet.Fault.drops ~seed 0.20);
        ( "duplicate 20%, delay 30% by 200 us",
          { Simnet.Fault.none with Simnet.Fault.seed; duplicate_rate = 0.2;
            delay_rate = 0.3; delay = Simnet.Time.us 200 } );
        ( "partition until t=2 ms, then heal",
          { Simnet.Fault.none with Simnet.Fault.partitions =
              [ (Simnet.Time.zero, Simnet.Time.ms 2) ] } );
        ( "destination crash early (after 3 records)",
          { Simnet.Fault.none with Simnet.Fault.crashes =
              [ { Simnet.Fault.after_records = 3;
                  down_for = Simnet.Time.us 300 } ] } );
        ( "destination crash late (after 12 records)",
          { Simnet.Fault.none with Simnet.Fault.crashes =
              [ { Simnet.Fault.after_records = 12;
                  down_for = Simnet.Time.us 300 } ] } );
      ]
    in
    let chaos =
      Par.Pool.map ~domains
        (fun (name, plan) ->
          let r =
            MH.run (params Unikernel.Config.rust_native chaos_dirty (Some plan))
          in
          let injected =
            match r.MH.fault_stats with
            | Some s -> Simnet.Fault.injected s + s.Simnet.Fault.crashes_fired
            | None -> 0
          in
          let state =
            match r.MH.outcome with
            | MH.Completed rep ->
                Printf.sprintf "handed off in %d rounds, pause %.1f us"
                  (List.length rep.ME.rounds)
                  (Simnet.Time.to_float_us rep.ME.pause)
            | MH.Aborted { phase; _ } ->
                Printf.sprintf "rolled back at %s, source serving"
                  (ME.phase_to_string phase)
          in
          let authority =
            match r.MH.outcome with
            | MH.Completed _ ->
                if r.MH.dst_audit.MH.lease_present
                   && r.MH.dst_audit.MH.ledger_live
                   && not r.MH.src_audit.MH.lease_present
                then "lease on dst"
                else "LEASE LEAK"
            | MH.Aborted _ ->
                if r.MH.src_audit.MH.lease_present
                   && r.MH.src_audit.MH.ledger_live
                   && not r.MH.dst_audit.MH.lease_present
                then "lease on src"
                else "LEASE LEAK"
          in
          Printf.sprintf "  %-42s %3d faults  %-38s %-12s %s\n" name injected
            state authority
            (if r.MH.digest_ok then "digest ok" else "DIGEST MISMATCH"))
        scenarios
    in
    List.iter print_string chaos
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:
         "live-migrate an active GPU session between two simulated Cricket \
          servers using incremental (dirty-page) checkpoints: pre-copy \
          delta rounds while the source keeps serving, stop-and-copy under \
          a pause budget, lease handoff at commit. Sweeps downtime vs \
          dirty-page rate across the Table 1 host profiles, then replays \
          adversarial fault plans (loss, duplication, partition, \
          mid-transfer destination crash) on the migration channel. \
          Seed-deterministic: equal seeds print byte-identical reports.")
    Term.(
      const run
      $ Arg.(value & flag
             & info [ "smoke" ] ~doc:"CI-sized run (smaller buffer, fewer \
                                      rates).")
      $ Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED")
      $ Arg.(value & opt (some int) None
             & info [ "buf-kib" ] ~docv:"KIB"
                 ~doc:"Tenant device buffer size.")
      $ Arg.(value & opt (some int) None
             & info [ "batches" ] ~docv:"N" ~doc:"Total write batches.")
      $ Arg.(value & opt (some int) None
             & info [ "dirty-kib" ] ~docv:"KIB"
                 ~doc:"Bytes rewritten per batch (one rate instead of the \
                       sweep).")
      $ Arg.(value & opt int 5000
             & info [ "pause-budget-us" ] ~docv:"US"
                 ~doc:"Abort instead of committing if stop-and-copy exceeds \
                       this.")
      $ domains_arg)

(* --- rpcacc --- *)

let rpcacc_cmd =
  let run smoke calls arg_bytes window domains =
    let module RB = Unikernel.Rpcbench in
    let calls =
      match calls with Some c -> c | None -> if smoke then 384 else 2048
    in
    let offload_str o = Format.asprintf "%a" Simnet.Offload.pp o in
    Printf.printf
      "RPC small-call throughput: software parse vs device parse vs device \
       parse + doorbell batching\n";
    Printf.printf
      "%d calls of %d-byte args, pipeline window %d, virtual-time \
       throughput over the executable TCP stack\n\n"
      calls arg_bytes window;
    Printf.printf "%-12s %-22s %-42s %10s %8s %10s %8s %8s %9s\n" "profile"
      "mode" "negotiated" "kcalls/s" "speedup" "parse-hit" "steered"
      "flushes" "avg-batch";
    (* Every cell is an independent simulation: run them across domains
       and print in job order, so stdout is byte-identical for any
       --domains value (a golden diffs it). *)
    let jobs =
      List.concat_map
        (fun profile -> List.map (fun mode -> (profile, mode)) RB.modes)
        (RB.profiles ())
    in
    let cells =
      Par.Pool.map ~domains
        (fun (profile, mode) ->
          RB.run ~calls ~arg_bytes ~window ~profile ~mode ())
        jobs
    in
    List.iter
      (fun (name, _) ->
        let cells = List.filter (fun r -> r.RB.profile = name) cells in
        let software =
          (List.find (fun r -> r.RB.mode = RB.Software) cells).RB.calls_per_sec
        in
        List.iter
          (fun (r : RB.result) ->
            let speedup =
              if software > 0. then r.RB.calls_per_sec /. software else 0.
            in
            let flushes, avg_batch =
              match r.RB.doorbell with
              | Some d when d.Oncrpc.Doorbell.flushes > 0 ->
                  ( d.Oncrpc.Doorbell.flushes,
                    float_of_int d.Oncrpc.Doorbell.batched
                    /. float_of_int d.Oncrpc.Doorbell.flushes )
              | _ -> (0, 0.)
            in
            let parse_hits, steered =
              match r.RB.rpcdev with
              | Some s ->
                  (s.Tcpstack.Rpcdev.parse_hits, s.Tcpstack.Rpcdev.steered)
              | None -> (0, 0)
            in
            Printf.printf
              "%-12s %-22s %-42s %10.1f %7.2fx %10d %8d %8d %9.1f\n"
              r.RB.profile (RB.mode_name r.RB.mode)
              (offload_str r.RB.negotiated)
              (r.RB.calls_per_sec /. 1e3)
              speedup parse_hits steered flushes avg_batch)
          cells;
        let parity =
          match List.map (fun r -> r.RB.reply_digest) cells with
          | [] -> true
          | d :: rest -> List.for_all (Int64.equal d) rest
        in
        Printf.printf "%-12s %-22s reply streams byte-identical: %s\n" name
          "(digest parity)"
          (if parity then "yes" else "NO — MODES DIVERGE"))
      (RB.profiles ())
  in
  Cmd.v
    (Cmd.info "rpcacc"
       ~doc:"small-call RPC throughput with the RPC-aware offload engine \
             (RPCAcc direction): record framing, header parse and dispatch \
             steering in the device, plus doorbell batching — software vs \
             device ablation per host profile. Virtual-time numbers; \
             byte-deterministic.")
    Term.(
      const run
      $ Arg.(value & flag
             & info [ "smoke" ] ~doc:"CI-sized run (384 calls).")
      $ Arg.(value & opt (some int) None
             & info [ "calls" ] ~docv:"N" ~doc:"Calls per (profile, mode).")
      $ Arg.(value & opt int 64
             & info [ "arg-bytes" ] ~docv:"B" ~doc:"Opaque argument size.")
      $ Arg.(value & opt int 32
             & info [ "window" ] ~docv:"N"
                 ~doc:"Pipeline window / doorbell batch size.")
      $ domains_arg)

(* --- fleet: heterogeneous multi-GPU superoptimizer sweep --- *)

let fleet_cmd =
  let run smoke max_len batch domains =
    let max_len = match max_len with Some l -> l | None -> if smoke then 4 else 6 in
    let batch = match batch with Some b -> b | None -> if smoke then 256 else 2048 in
    let specs =
      if smoke then
        List.filter
          (fun s -> s.Apps.Superopt.spec_name <> "deep2")
          Apps.Superopt.demo_specs
      else Apps.Superopt.demo_specs
    in
    let mixes =
      [
        ("node", Gpusim.Device.gpu_node);
        ("a100x4", [ Gpusim.Device.a100; Gpusim.Device.a100;
                     Gpusim.Device.a100; Gpusim.Device.a100 ]);
        ("t4-p40", [ Gpusim.Device.t4; Gpusim.Device.t4;
                     Gpusim.Device.p40; Gpusim.Device.p40 ]);
      ]
    in
    let policies = [ Fleet.Cluster.Round_robin; Fleet.Cluster.Cost_aware ] in
    Printf.printf
      "heterogeneous GPU fleet: exhaustive superoptimizer search\n\
       %d specs, program length <= %d, %d candidates per launch, %d device \
       mixes x %d policies\n\n"
      (List.length specs) max_len batch (List.length mixes)
      (List.length policies);

    (* Compatibility routing on display: a fat binary holding only sm_52
       and sm_70 images. Under the cross-major rule the T4s (7.5) can run
       the sm_70 image; the A100 (8.0) and P40 (6.1) cannot run anything
       in it — and a fleet with no eligible device is a typed reject. *)
    Printf.printf "compat routing (fatbin with sm_52 + sm_70 images only):\n";
    let legacy =
      Apps.Superopt.fatbin ~archs:[ (5, 2); (7, 0) ] ()
    in
    List.iter
      (fun (mix_name, devices) ->
        let cluster = Fleet.Cluster.create devices in
        match Fleet.Cluster.load_module cluster legacy with
        | Ok m ->
            let devs =
              Fleet.Cluster.eligible m
              |> List.map (fun i ->
                     Printf.sprintf "%d (cc %d.%d)" i
                       (Fleet.Cluster.device cluster i).Gpusim.Device.compute_major
                       (Fleet.Cluster.device cluster i).Gpusim.Device.compute_minor)
              |> String.concat ", "
            in
            Printf.printf "  %-7s -> eligible devices: %s\n" mix_name devs
        | Error e ->
            Printf.printf "  %-7s -> typed reject: %s\n" mix_name
              (Fleet.Cluster.error_message e))
      mixes;
    print_newline ();

    (* Every (mix, policy) cell is an independent simulation; run the
       cells across domains and print in job order so stdout is
       byte-identical for any --domains. *)
    let cells =
      List.concat_map
        (fun mix -> List.map (fun p -> (mix, p)) policies)
        mixes
    in
    let results =
      Par.Pool.map ~domains
        (fun ((mix_name, devices), policy) ->
          let cluster = Fleet.Cluster.create ~policy devices in
          let findings =
            List.map
              (fun spec ->
                match
                  Apps.Superopt.search ~cluster ~batch ~max_len spec
                with
                | Ok r -> (spec, r)
                | Error e ->
                    failwith
                      (Printf.sprintf "fleet %s/%s: %s" mix_name
                         (Fleet.Cluster.policy_name policy)
                         (Fleet.Cluster.error_message e)))
              specs
          in
          let makespan = Fleet.Cluster.barrier cluster in
          ( mix_name, policy, findings, makespan,
            Fleet.Cluster.stats cluster,
            Fleet.Cluster.total_launches cluster,
            Fleet.Cluster.incompatible_launches cluster,
            Fleet.Cluster.digest cluster ))
        cells
    in

    (* The search result is a property of the spec, not of the fleet: every
       cell must find the same programs. *)
    let reference_findings =
      match results with
      | (_, _, f, _, _, _, _, _) :: _ -> f
      | [] -> []
    in
    let parity =
      List.for_all
        (fun (_, _, f, _, _, _, _, _) ->
          List.for_all2
            (fun (_, a) (_, b) ->
              a.Apps.Superopt.program = b.Apps.Superopt.program)
            reference_findings f)
        results
    in
    Printf.printf "found programs (%s across all %d cells):\n"
      (if parity then "identical" else "NOT IDENTICAL")
      (List.length results);
    List.iter
      (fun (spec, (r : Apps.Superopt.search_result)) ->
        let found =
          match r.Apps.Superopt.program with
          | Some p ->
              Printf.sprintf "%s (len %d)"
                (Apps.Superopt.program_to_string p)
                (List.length p)
          | None -> Printf.sprintf "none of length <= %d" max_len
        in
        Printf.printf "  %-8s %-24s -> %s\n" spec.Apps.Superopt.spec_name
          (Apps.Superopt.program_to_string spec.Apps.Superopt.reference)
          found)
      reference_findings;
    print_newline ();

    List.iter
      (fun (mix_name, policy, findings, makespan, stats, launches, incompat,
            digest) ->
        let candidates =
          List.fold_left
            (fun acc (_, r) -> acc + r.Apps.Superopt.candidates)
            0 findings
        in
        Printf.printf
          "%-7s %-4s  makespan %8.3f ms  %6d launches  %8d candidates  \
           incompat %d  digest %016Lx\n"
          mix_name
          (Fleet.Cluster.policy_name policy)
          (Simnet.Time.to_float_ms makespan)
          launches candidates incompat digest;
        List.iter
          (fun (s : Fleet.Cluster.device_stats) ->
            Printf.printf
              "        dev %d %-22s %6d launches  busy %8.3f ms  util %5.1f%%\n"
              s.Fleet.Cluster.ds_id
              s.Fleet.Cluster.ds_name s.Fleet.Cluster.ds_launches
              (Simnet.Time.to_float_ms s.Fleet.Cluster.ds_busy)
              (100. *. s.Fleet.Cluster.ds_utilization))
          stats)
      results;
    print_newline ();
    let makespan_of mix policy =
      List.find_map
        (fun (m, p, _, makespan, _, _, _, _) ->
          if m = mix && p = policy then Some makespan else None)
        results
    in
    List.iter
      (fun (mix_name, _) ->
        match
          (makespan_of mix_name Fleet.Cluster.Round_robin,
           makespan_of mix_name Fleet.Cluster.Cost_aware)
        with
        | Some rr, Some cost when Simnet.Time.compare cost Simnet.Time.zero > 0
          ->
            Printf.printf
              "%-7s cost-aware vs round-robin makespan: %.2fx\n" mix_name
              (Int64.to_float rr /. Int64.to_float cost)
        | _ -> ())
      mixes;
    print_newline ();

    (* The same fleet discipline over real RPC: one Cricket server holding
       the whole node, a tenant-routed transport, a multi-device session
       steering launches with cudaSetDevice. The fatbin carries sm_70 +
       sm_80 images, so the P40 (6.1) is ineligible — its launch count and
       per-device RPC traffic must stay at the discovery-time baseline. *)
    Printf.printf "multi-device session over RPC (gpu_node, tenant \"uk0\"):\n";
    let engine = Simnet.Engine.create () in
    let clock = Cudasim.Context.engine_clock engine in
    let server =
      Cricket.Server.create ~devices:Gpusim.Device.gpu_node ~clock ()
    in
    let registry =
      Tenancy.Lease.create
        ~now:(fun () -> clock.Cudasim.Context.now ())
        ~ctx:(fun () -> Cricket.Server.context server)
        ()
    in
    Tenancy.Lease.install registry server;
    ignore
      (Tenancy.Lease.grant registry ~tenant:"uk0" Tenancy.Lease.default_caps);
    let client = Cricket.Local.connect_for server ~tenant:"uk0" in
    let session = Fleet.Session.connect client in
    let rpc_fatbin = Apps.Superopt.fatbin ~archs:[ (7, 0); (8, 0) ] () in
    (match Fleet.Session.load_module session rpc_fatbin with
    | Error e ->
        Printf.printf "  load_module: %s\n" (Fleet.Cluster.error_message e)
    | Ok m -> (
        Printf.printf "  eligible devices: %s\n"
          (String.concat ", "
             (List.map string_of_int (Fleet.Session.eligible m)));
        match Fleet.Session.get_function session m Apps.Superopt.kernel_name with
        | Error e ->
            Printf.printf "  get_function: %s\n"
              (Fleet.Cluster.error_message e)
        | Ok func ->
            let spec_table =
              Apps.Superopt.table_of_program [ 0; 6; 2; 7; 1; 5 ]
            in
            let rpc_batch = 64 in
            let bufs =
              List.map
                (fun dev ->
                  Cricket.Client.set_device client dev;
                  let d_table = Cricket.Client.malloc client 256 in
                  let d_flags = Cricket.Client.malloc client rpc_batch in
                  Cricket.Client.memcpy_h2d client ~dst:d_table spec_table;
                  (dev, (d_table, d_flags)))
                (Fleet.Session.eligible m)
            in
            let matches = ref 0 in
            for len = 1 to 3 do
              let total = int_of_float (8. ** float_of_int len) in
              let base = ref 0 in
              while !base < total do
                let n = min rpc_batch (total - !base) in
                let b = !base in
                (match
                   Fleet.Session.launch session func
                     ~grid:{ Cricket.Client.x = (n + 127) / 128; y = 1; z = 1 }
                     ~block:{ Cricket.Client.x = 128; y = 1; z = 1 }
                     (fun dev ->
                       let d_table, d_flags = List.assoc dev bufs in
                       [|
                         Gpusim.Kernels.Ptr (Int64.to_int d_table);
                         Gpusim.Kernels.Ptr (Int64.to_int d_flags);
                         Gpusim.Kernels.I64 (Int64.of_int b);
                         Gpusim.Kernels.I32 (Int32.of_int n);
                         Gpusim.Kernels.I32 (Int32.of_int len);
                       |])
                 with
                | Error e ->
                    failwith
                      (Printf.sprintf "session launch: %s"
                         (Fleet.Cluster.error_message e))
                | Ok dev ->
                    let _, d_flags = List.assoc dev bufs in
                    let flags =
                      Cricket.Client.memcpy_d2h client ~src:d_flags ~len:n
                    in
                    Bytes.iter
                      (fun c -> if c = '\001' then incr matches)
                      flags);
                base := !base + rpc_batch
              done
            done;
            Fleet.Session.synchronize session;
            Printf.printf
              "  searched lengths 1-3 for a depth-6 spec: %d matches \
               (expected 0)\n"
              !matches;
            Printf.printf "  session launches per device:%s\n"
              (String.concat ""
                 (List.map
                    (fun (d, n) -> Printf.sprintf " %d:%d" d n)
                    (Fleet.Session.launches session)));
            Printf.printf "  server RPC calls per device:%s\n"
              (String.concat ""
                 (List.map
                    (fun (d, n) -> Printf.sprintf " %d:%d" d n)
                    (Cricket.Server.device_calls server)));
            List.iter
              (fun (dev, (d_table, d_flags)) ->
                Cricket.Client.set_device client dev;
                Cricket.Client.free client d_table;
                Cricket.Client.free client d_flags)
              bufs;
            (match Tenancy.Lease.find registry "uk0" with
            | Some lease ->
                Printf.printf
                  "  tenant calls: %s  lease mem in use after frees: %d B\n"
                  (String.concat ", "
                     (List.map
                        (fun (t, n) -> Printf.sprintf "%s=%d" t n)
                        (Cricket.Server.tenant_calls server)))
                  lease.Tenancy.Lease.mem_used
            | None -> ());
            (match Cricket.Client.set_device client (-1) with
            | () -> Printf.printf "  set_device(-1): unexpectedly succeeded\n"
            | exception Cudasim.Error.Cuda_error e ->
                Printf.printf "  set_device(-1): typed CUDA error (%s)\n"
                  (Cudasim.Error.to_string e))))
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"heterogeneous multi-GPU fleet running the exhaustive \
             shortest-program superoptimizer: device-mix x scheduler-policy \
             sweep with compatibility routing (cross-major SASS images are \
             never executed), per-device utilization, and a multi-device \
             RPC session with tenancy accounting. Virtual-time numbers; \
             byte-deterministic.")
    Term.(
      const run
      $ Arg.(value & flag
             & info [ "smoke" ] ~doc:"CI-sized run (length <= 4).")
      $ Arg.(value & opt (some int) None
             & info [ "max-len" ] ~docv:"L"
                 ~doc:"Longest program length to search.")
      $ Arg.(value & opt (some int) None
             & info [ "batch" ] ~docv:"N" ~doc:"Candidates per launch.")
      $ domains_arg)

let main =
  Cmd.group
    (Cmd.info "benchctl" ~doc:"run individual paper experiments")
    [ table1_cmd; matrixmul_cmd; solver_cmd; histogram_cmd; micro_cmd;
      bandwidth_cmd; pipeline_cmd; tenants_cmd; trace_cmd;
      faults_cmd; offloads_cmd; latency_cmd; migrate_cmd; rpcacc_cmd;
      fleet_cmd ]

let () = exit (Cmd.eval main)
