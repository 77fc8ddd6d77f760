(* Tests for the host configurations, the virtual-time RPC channel and the
   application runner — including the calibration assertions that pin the
   paper's qualitative findings (orderings and approximate ratios). *)

module Time = Simnet.Time

let check = Alcotest.check

(* --- configurations (Table 1) --- *)

let test_table1 () =
  let names = List.map (fun c -> c.Unikernel.Config.name) Unikernel.Config.all in
  check (Alcotest.list Alcotest.string) "table 1 order"
    [ "C"; "Rust"; "Linux VM"; "Unikraft"; "Hermit" ] names;
  check Alcotest.int "rows" 5 (List.length (Unikernel.Config.table1_rows ()));
  check Alcotest.bool "hermit is unikernel" true
    (Unikernel.Config.is_unikernel Unikernel.Config.hermit);
  check Alcotest.bool "vm is not" false
    (Unikernel.Config.is_unikernel Unikernel.Config.linux_vm);
  check Alcotest.bool "find" true
    (Unikernel.Config.find "hermit" = Some Unikernel.Config.hermit);
  check Alcotest.bool "find miss" true (Unikernel.Config.find "beos" = None);
  (* only native configs run without a hypervisor *)
  List.iter
    (fun c ->
      check Alcotest.bool
        (c.Unikernel.Config.name ^ " hypervisor")
        (c.Unikernel.Config.os <> Unikernel.Config.Rocky_native)
        (c.Unikernel.Config.hypervisor <> None))
    Unikernel.Config.all

let test_unikernel_offload_gaps () =
  (* the feature gaps §4.2 blames: no TSO/GRO in either unikernel; no
     checksum offload in Unikraft; Hermit has the two features the paper's
     RustyHermit work added (csum offload, mergeable buffers) *)
  let off c = c.Unikernel.Config.profile.Simnet.Hostprofile.offloads in
  let hermit = off Unikernel.Config.hermit in
  let unikraft = off Unikernel.Config.unikraft in
  let vm = off Unikernel.Config.linux_vm in
  check Alcotest.bool "no TSO in unikernels" true
    ((not hermit.Simnet.Offload.tso) && not unikraft.Simnet.Offload.tso);
  check Alcotest.bool "no GRO in unikernels" true
    ((not hermit.Simnet.Offload.gro) && not unikraft.Simnet.Offload.gro);
  check Alcotest.bool "hermit csum offload" true hermit.Simnet.Offload.tx_checksum;
  check Alcotest.bool "hermit mrg_rxbuf" true hermit.Simnet.Offload.mrg_rxbuf;
  check Alcotest.bool "unikraft lacks csum offload" false
    unikraft.Simnet.Offload.tx_checksum;
  check Alcotest.bool "vm has every classic offload" true
    (Simnet.Offload.rpc_none vm = Simnet.Offload.all);
  check Alcotest.bool "vm acks rpc engine except steering" true
    (vm.Simnet.Offload.rpc_framing && vm.Simnet.Offload.rpc_parse
    && vm.Simnet.Offload.rpc_doorbell
    && not vm.Simnet.Offload.rpc_steer)

(* --- simchannel --- *)

let test_simchannel_charges_time () =
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~memory_capacity:(1 lsl 22)
      ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  let channel =
    Unikernel.Simchannel.create ~engine
      ~client:Unikernel.Config.hermit.Unikernel.Config.profile
      ~dispatch:(Cricket.Server.dispatch server) ()
  in
  let client =
    Cricket.Client.create ~transport:(Unikernel.Simchannel.transport channel) ()
  in
  let t0 = Simnet.Engine.now engine in
  ignore (Cricket.Client.get_device_count client);
  let t1 = Simnet.Engine.now engine in
  check Alcotest.bool "call advanced virtual time" true (Time.compare t1 t0 > 0);
  (* plausible RTT: tens of microseconds, not seconds *)
  let rtt_us = Time.to_float_us (Time.sub t1 t0) in
  check Alcotest.bool "plausible RTT" true (rtt_us > 10.0 && rtt_us < 1000.0);
  let stats = Unikernel.Simchannel.stats channel in
  check Alcotest.int "one exchange" 1 stats.Unikernel.Simchannel.messages;
  check Alcotest.bool "bytes counted" true
    (stats.Unikernel.Simchannel.bytes_to_server > 0
    && stats.Unikernel.Simchannel.bytes_from_server > 0)

(* A record the client has not finished writing is not dispatched: the
   channel waits for the rest, so the waiting client sees its
   retransmission timeout; the rest arriving completes the record. A
   header claiming more than a record may hold is refused, typed, before
   anything is allocated for it. *)
let test_simchannel_partial_records () =
  let engine = Simnet.Engine.create () in
  let dispatched = ref [] in
  let channel =
    Unikernel.Simchannel.create ~engine
      ~client:Unikernel.Config.hermit.Unikernel.Config.profile
      ~dispatch:(fun record ->
        dispatched := record :: !dispatched;
        "reply:" ^ record)
      ()
  in
  let tr = Unikernel.Simchannel.transport channel in
  let buf = Bytes.create 64 in
  let expect_timeout what =
    match tr.Oncrpc.Transport.recv buf 0 64 with
    | n -> Alcotest.failf "%s: read %d bytes, expected a timeout" what n
    | exception Oncrpc.Transport.Timeout -> ()
  in
  let wire = Oncrpc.Record.to_wire "0123456789" in
  (* a 2-byte tail: not even a whole header *)
  Oncrpc.Transport.send_string tr (String.sub wire 0 2);
  expect_timeout "2-byte tail";
  (* a header and a short body *)
  Oncrpc.Transport.send_string tr (String.sub wire 2 5);
  expect_timeout "short body";
  check Alcotest.int "nothing dispatched" 0 (List.length !dispatched);
  (* the rest of the record arrives: dispatched once, answered *)
  Oncrpc.Transport.send_string tr (String.sub wire 7 (String.length wire - 7));
  let reply = Oncrpc.Record.read tr in
  check (Alcotest.list Alcotest.string) "dispatched whole" [ "0123456789" ]
    !dispatched;
  check Alcotest.string "reply" "reply:0123456789" reply;
  let s = Unikernel.Simchannel.stats channel in
  check Alcotest.int "timeouts" 2 s.Unikernel.Simchannel.timeouts;
  check Alcotest.int "request bytes counted once" (String.length wire)
    s.Unikernel.Simchannel.bytes_to_server;
  (* an oversized claim *)
  dispatched := [];
  Oncrpc.Transport.send_string tr "\xff\xff\xff\xff";
  (match tr.Oncrpc.Transport.recv buf 0 64 with
  | _ -> Alcotest.fail "expected Oversized"
  | exception Oncrpc.Record.Oversized { claimed; _ } ->
      check Alcotest.int "claimed" 0x7fffffff claimed);
  check Alcotest.int "oversized not dispatched" 0 (List.length !dispatched);
  (* the broken stream was dropped; the next record goes through *)
  Oncrpc.Record.write tr "next";
  check Alcotest.string "after the refusal" "reply:next" (Oncrpc.Record.read tr)

(* Figure 6 calls over the cost-model channel allocate a fixed number of
   words each, however many are made: the at-most-once cache, the reply
   encoder, the record walk and the stream queue all stay flat. The bounds
   leave room over today's figures (150 words for cudaGetDeviceCount, 383
   for a cudaMalloc + cudaFree pair, 343 for a launch) and sit well under
   what this path used to cost (770, 1634 and 1032). *)
let test_small_call_allocation () =
  let cfg = Unikernel.Config.hermit in
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  Cudasim.Context.set_functional (Cricket.Server.context server) false;
  let channel =
    Unikernel.Simchannel.create ~engine ~client:cfg.Unikernel.Config.profile
      ~dispatch:(Cricket.Server.dispatch server) ()
  in
  let client =
    Cricket.Client.create ~launch_extra_ns:cfg.Unikernel.Config.launch_extra_ns
      ~charge:(fun ns -> Simnet.Engine.advance engine (Time.ns ns))
      ~transport:(Unikernel.Simchannel.transport channel) ()
  in
  let kbuf = Cricket.Client.malloc client 4096 in
  let modul = Apps.Workload.load_standard_module client in
  let fill = Apps.Workload.get_kernel client ~modul Gpusim.Kernels.fill_name in
  let args =
    [| Gpusim.Kernels.Ptr (Int64.to_int kbuf); Gpusim.Kernels.F32 1.0;
       Gpusim.Kernels.I32 1024l |]
  in
  let dim = { Cricket.Client.x = 1; y = 1; z = 1 } in
  let block = { Cricket.Client.x = 256; y = 1; z = 1 } in
  let words_per_call n op =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      op ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  List.iter
    (fun (name, bound, op) ->
      (* past the dup cache's 4096 entries, so the ring has wrapped *)
      ignore (words_per_call 5_000 op);
      let small = words_per_call 1_000 op in
      let large = words_per_call 10_000 op in
      check (Alcotest.float 0.0) (name ^ ": same words per call") small large;
      if large > bound then
        Alcotest.failf "%s: %.2f words per call, bound %.0f" name large bound)
    [
      ( "cudaGetDeviceCount", 300.,
        fun () -> ignore (Cricket.Client.get_device_count client) );
      ( "cudaMalloc + cudaFree", 800.,
        fun () -> Cricket.Client.free client (Cricket.Client.malloc client 1_048_576) );
      ( "cuLaunchKernel", 700.,
        fun () -> Cricket.Client.launch client fill ~grid:dim ~block args );
    ]

let test_runner_measures () =
  let m =
    Unikernel.Runner.run Unikernel.Config.rust_native (fun env ->
        ignore (Cricket.Client.get_device_count env.Unikernel.Runner.client))
  in
  check Alcotest.int "api calls" 1 m.Unikernel.Runner.api_calls;
  check Alcotest.bool "elapsed > 0" true
    (Time.compare m.Unikernel.Runner.elapsed Time.zero > 0);
  check Alcotest.bool "network time <= elapsed" true
    (Time.compare m.Unikernel.Runner.network_time m.Unikernel.Runner.elapsed <= 0)

let test_runner_rng_cost_differs () =
  let elapsed cfg =
    (Unikernel.Runner.run cfg (fun env -> Unikernel.Runner.charge_rng env (1 lsl 20)))
      .Unikernel.Runner.elapsed
  in
  let c = elapsed Unikernel.Config.c_native in
  let rust = elapsed Unikernel.Config.rust_native in
  check Alcotest.bool "C rng slower" true (Time.compare c rust > 0)

(* --- calibration: the paper's qualitative findings --- *)

let per_call cfg =
  let result = ref Time.zero in
  let (_ : Unikernel.Runner.measurement) =
    Unikernel.Runner.run ~functional:false cfg (fun env ->
        let r = Apps.Micro.run ~calls:2_000 Apps.Micro.Get_device_count env in
        result := r.Apps.Micro.elapsed)
  in
  Time.to_float_us !result /. 2_000.0

let test_fig6_latency_ordering () =
  let native = per_call Unikernel.Config.rust_native in
  let hermit = per_call Unikernel.Config.hermit in
  let unikraft = per_call Unikernel.Config.unikraft in
  let vm = per_call Unikernel.Config.linux_vm in
  (* Fig. 6: native fastest; Hermit the best virtualized config; the Linux
     VM the worst; unikernels need more than double the native time. *)
  check Alcotest.bool "native < hermit" true (native < hermit);
  check Alcotest.bool "hermit < unikraft" true (hermit < unikraft);
  check Alcotest.bool "unikraft < vm" true (unikraft < vm);
  check Alcotest.bool "hermit > 2x native" true (hermit > 2.0 *. native);
  check Alcotest.bool "vm < 4x native" true (vm < 4.0 *. native)

let bandwidth cfg direction =
  let result = ref 0.0 in
  let (_ : Unikernel.Runner.measurement) =
    Unikernel.Runner.run ~functional:false cfg (fun env ->
        let r = Apps.Bandwidth.measure ~total_bytes:(64 lsl 20) direction env in
        result := r.Apps.Bandwidth.mib_per_s)
  in
  !result

let test_fig7_bandwidth_shape () =
  let native_h2d = bandwidth Unikernel.Config.rust_native Apps.Bandwidth.Host_to_device in
  let native_d2h = bandwidth Unikernel.Config.rust_native Apps.Bandwidth.Device_to_host in
  let vm_h2d = bandwidth Unikernel.Config.linux_vm Apps.Bandwidth.Host_to_device in
  let vm_d2h = bandwidth Unikernel.Config.linux_vm Apps.Bandwidth.Device_to_host in
  let hermit_h2d = bandwidth Unikernel.Config.hermit Apps.Bandwidth.Host_to_device in
  let hermit_d2h = bandwidth Unikernel.Config.hermit Apps.Bandwidth.Device_to_host in
  let unikraft_h2d = bandwidth Unikernel.Config.unikraft Apps.Bandwidth.Host_to_device in
  (* VM retains most of native bandwidth; unikernels collapse *)
  check Alcotest.bool "vm >= 65% native (h2d)" true
    (vm_h2d >= 0.65 *. native_h2d);
  check Alcotest.bool "vm >= 65% native (d2h)" true
    (vm_d2h >= 0.65 *. native_d2h);
  check Alcotest.bool "hermit < 20% native" true
    (hermit_h2d < 0.20 *. native_h2d);
  (* hermit's receive path is the bad direction (paper: ~9.8%) *)
  check Alcotest.bool "hermit d2h worse than h2d" true (hermit_d2h < hermit_h2d);
  check Alcotest.bool "hermit d2h ~ 6-13% native" true
    (hermit_d2h > 0.05 *. native_d2h && hermit_d2h < 0.14 *. native_d2h);
  check Alcotest.bool "unikraft collapses" true
    (unikraft_h2d < 0.15 *. native_h2d)

let test_offload_ablation_shape () =
  (* §4.2: disabling TSO/tx-csum/SG in the VM drops H2D to ~924 MiB/s *)
  let vm = Unikernel.Config.linux_vm in
  let crippled =
    { vm with
      Unikernel.Config.profile =
        Simnet.Hostprofile.with_offloads vm.Unikernel.Config.profile
          (Simnet.Offload.disable_bulk
             vm.Unikernel.Config.profile.Simnet.Hostprofile.offloads) }
  in
  let bw = bandwidth crippled Apps.Bandwidth.Host_to_device in
  check Alcotest.bool "ablated VM near 1 GiB/s" true (bw > 600.0 && bw < 1600.0)

let app_elapsed cfg run =
  (Unikernel.Runner.run ~functional:false cfg run).Unikernel.Runner.elapsed

let test_fig5_shapes () =
  (* scaled-down iteration counts keep the test fast; ratios are
     scale-free because per-iteration costs dominate *)
  let mm cfg =
    Time.to_float_s
      (app_elapsed cfg
         (Apps.Matrix_mul.run ~verify:false
            { Apps.Matrix_mul.default with Apps.Matrix_mul.iterations = 2_000 }))
  in
  let native = mm Unikernel.Config.rust_native in
  let hermit = mm Unikernel.Config.hermit in
  let vm = mm Unikernel.Config.linux_vm in
  let unikraft = mm Unikernel.Config.unikraft in
  check Alcotest.bool "matrixMul: hermit ~2x native" true
    (hermit > 1.8 *. native && hermit < 2.6 *. native);
  check Alcotest.bool "matrixMul: unikernels <= vm" true
    (hermit <= vm && unikraft <= vm);
  (* C ~ Rust for matrixMul (minor difference) *)
  let c = mm Unikernel.Config.c_native in
  check Alcotest.bool "matrixMul: C within 15% of Rust" true
    (c < 1.15 *. native);
  (* linear solver: transfer-heavy, hermit overhead much smaller *)
  let ls cfg =
    Time.to_float_s
      (app_elapsed cfg
         (Apps.Linear_solver.run ~verify:false
            { Apps.Linear_solver.default with Apps.Linear_solver.iterations = 30 }))
  in
  let ls_native = ls Unikernel.Config.rust_native in
  let ls_hermit = ls Unikernel.Config.hermit in
  let overhead = (ls_hermit -. ls_native) /. ls_native in
  check Alcotest.bool "solver: hermit overhead ~26.6%" true
    (overhead > 0.15 && overhead < 0.45);
  check Alcotest.bool "solver overhead < matrixMul overhead" true
    (overhead < (hermit -. native) /. native)

let test_fig5c_c_vs_rust () =
  let hist cfg =
    Time.to_float_s
      (app_elapsed cfg
         (Apps.Histogram.run ~verify:false
            { Apps.Histogram.default with Apps.Histogram.iterations = 2_000 }))
  in
  let c = hist Unikernel.Config.c_native in
  let rust = hist Unikernel.Config.rust_native in
  (* paper: Rust ≈37.6 % faster on histogram, driven by init RNG *)
  check Alcotest.bool "C slower on histogram" true (c > 1.2 *. rust);
  let hermit = hist Unikernel.Config.hermit in
  check Alcotest.bool "histogram: hermit ~2x rust" true
    (hermit > 1.7 *. rust && hermit < 2.8 *. rust)

(* --- future-work projections (§5) --- *)

let test_futures_improve_unikernels () =
  let rtt cfg = per_call cfg in
  let base = rtt Unikernel.Config.hermit in
  let vdpa = rtt (Unikernel.Futures.with_vdpa Unikernel.Config.hermit) in
  check Alcotest.bool "vdpa cuts latency" true (vdpa < 0.8 *. base);
  (* vDPA cannot beat native: the guest stack still runs *)
  check Alcotest.bool "vdpa >= native" true
    (vdpa >= per_call Unikernel.Config.rust_native);
  let bw cfg = bandwidth cfg Apps.Bandwidth.Host_to_device in
  let base_bw = bw Unikernel.Config.hermit in
  let tso_bw = bw (Unikernel.Futures.with_tso Unikernel.Config.hermit) in
  let both_bw = bw (Unikernel.Futures.with_tso_and_vdpa Unikernel.Config.hermit) in
  check Alcotest.bool "tso raises bandwidth significantly" true
    (tso_bw > 1.8 *. base_bw);
  check Alcotest.bool "tso+vdpa raises it further" true (both_bw > tso_bw);
  (* TSO must not change small-message latency *)
  let tso_rtt = rtt (Unikernel.Futures.with_tso Unikernel.Config.hermit) in
  check Alcotest.bool "tso latency-neutral" true
    (Float.abs (tso_rtt -. base) /. base < 0.05);
  check Alcotest.int "four variants" 4
    (List.length (Unikernel.Futures.variants Unikernel.Config.hermit))

(* --- multi-tenant sharing (§5) --- *)

let tenant name priority steps =
  {
    Unikernel.Multitenant.name;
    config = Unikernel.Config.hermit;
    priority;
    work =
      List.init steps (fun _ client ->
          let d = Cricket.Client.malloc client 4096 in
          Cricket.Client.free client d);
  }

let finished report name =
  (List.find
     (fun t -> t.Unikernel.Multitenant.tenant = name)
     report.Unikernel.Multitenant.tenants)
    .Unikernel.Multitenant.finished_at

let test_multitenant_policies () =
  let specs = [ tenant "big" 5 30; tenant "small" 1 5 ] in
  let fifo = Unikernel.Multitenant.run ~policy:Cricket.Sched.Fifo specs in
  let rr = Unikernel.Multitenant.run ~policy:Cricket.Sched.Round_robin specs in
  let prio = Unikernel.Multitenant.run ~policy:Cricket.Sched.Priority specs in
  (* all work completes under every policy, same total *)
  List.iter
    (fun r ->
      check Alcotest.int "tenants" 2 (List.length r.Unikernel.Multitenant.tenants);
      List.iter
        (fun t ->
          check Alcotest.bool "all steps ran" true
            (t.Unikernel.Multitenant.steps > 0))
        r.Unikernel.Multitenant.tenants)
    [ fifo; rr; prio ];
  (* fifo makes "small" wait behind "big"; rr and priority do not *)
  check Alcotest.bool "rr helps small tenant" true
    (Time.compare (finished rr "small") (finished fifo "small") < 0);
  check Alcotest.bool "priority helps small most" true
    (Time.compare (finished prio "small") (finished rr "small") <= 0);
  (* makespan is policy-independent (work conserving) *)
  check Alcotest.int64 "same makespan" fifo.Unikernel.Multitenant.makespan
    rr.Unikernel.Multitenant.makespan

let test_multitenant_isolation () =
  (* tenants get distinct allocations on the shared GPU; interleaving must
     not corrupt them *)
  let pattern i = Bytes.make 512 (Char.chr (0x30 + i)) in
  let results = Array.make 3 false in
  let specs =
    List.init 3 (fun i ->
        {
          Unikernel.Multitenant.name = Printf.sprintf "t%d" i;
          config = Unikernel.Config.hermit;
          priority = 1;
          work =
            [
              (fun client ->
                let d = Cricket.Client.malloc client 512 in
                Cricket.Client.memcpy_h2d client ~dst:d (pattern i);
                let back = Cricket.Client.memcpy_d2h client ~src:d ~len:512 in
                results.(i) <- Bytes.equal back (pattern i);
                Cricket.Client.free client d);
            ];
        })
  in
  ignore (Unikernel.Multitenant.run ~policy:Cricket.Sched.Round_robin specs);
  Array.iteri
    (fun i ok -> check Alcotest.bool (Printf.sprintf "tenant %d intact" i) true ok)
    results

(* --- numerics through every configuration --- *)

let test_apps_verify_everywhere () =
  (* a small functional run of each app must verify in every config *)
  List.iter
    (fun cfg ->
      ignore
        (Unikernel.Runner.run ~functional:true cfg
           (Apps.Matrix_mul.run ~verify:true
              { Apps.Matrix_mul.ha = 64; wa = 64; wb = 64; iterations = 2 }));
      ignore
        (Unikernel.Runner.run ~functional:true cfg
           (Apps.Histogram.run ~verify:true
              { Apps.Histogram.data_bytes = 1 lsl 16; iterations = 2 }));
      ignore
        (Unikernel.Runner.run ~functional:true cfg
           (Apps.Linear_solver.run ~verify:true
              { Apps.Linear_solver.n = 48; iterations = 1 }));
      ignore
        (Unikernel.Runner.run ~functional:true cfg (fun env ->
             ignore (Apps.Bandwidth.run env))))
    Unikernel.Config.all

let test_app_call_counts_match_paper () =
  (* §4.1 reports per-app API-call counts; ours must have the same shape:
     matrixMul ≈ iterations + small constant, histogram ≈ 2·iterations. *)
  let m =
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Matrix_mul.run ~verify:false
         { Apps.Matrix_mul.paper with Apps.Matrix_mul.iterations = 1_000 })
  in
  check Alcotest.bool "matrixMul calls ~ iterations + setup" true
    (m.Unikernel.Runner.api_calls >= 1_000
    && m.Unikernel.Runner.api_calls < 1_100);
  let h =
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Histogram.run ~verify:false
         { Apps.Histogram.paper with Apps.Histogram.iterations = 1_000 })
  in
  check Alcotest.bool "histogram calls ~ 2*iterations + setup" true
    (h.Unikernel.Runner.api_calls >= 2_000
    && h.Unikernel.Runner.api_calls < 2_100);
  let ls =
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Linear_solver.run ~verify:false
         { Apps.Linear_solver.paper with Apps.Linear_solver.iterations = 100 })
  in
  (* ~13 calls/iteration (paper: ≈20) and ~6.5 MB/iteration transferred *)
  check Alcotest.bool "solver calls per iteration" true
    (ls.Unikernel.Runner.api_calls > 800 && ls.Unikernel.Runner.api_calls < 2_200);
  let mb_per_iter =
    Float.of_int ls.Unikernel.Runner.bytes_to_server /. 100.0 /. 1048576.0
  in
  check Alcotest.bool "solver ~6.2 MiB/iteration up" true
    (mb_per_iter > 5.5 && mb_per_iter < 7.0)

let suite =
  [
    Alcotest.test_case "table 1 configurations" `Quick test_table1;
    Alcotest.test_case "unikernel offload gaps" `Quick
      test_unikernel_offload_gaps;
    Alcotest.test_case "simchannel charges time" `Quick
      test_simchannel_charges_time;
    Alcotest.test_case "runner measurement" `Quick test_runner_measures;
    Alcotest.test_case "rng cost differs by language" `Quick
      test_runner_rng_cost_differs;
    Alcotest.test_case "fig6 latency ordering" `Slow test_fig6_latency_ordering;
    Alcotest.test_case "fig7 bandwidth shape" `Slow test_fig7_bandwidth_shape;
    Alcotest.test_case "offload ablation shape" `Slow
      test_offload_ablation_shape;
    Alcotest.test_case "fig5 application shapes" `Slow test_fig5_shapes;
    Alcotest.test_case "fig5c C vs Rust" `Slow test_fig5c_c_vs_rust;
    Alcotest.test_case "futures: tso/vdpa projections" `Slow
      test_futures_improve_unikernels;
    Alcotest.test_case "multi-tenant policies" `Quick test_multitenant_policies;
    Alcotest.test_case "multi-tenant isolation" `Quick
      test_multitenant_isolation;
    Alcotest.test_case "apps verify in every config" `Slow
      test_apps_verify_everywhere;
    Alcotest.test_case "call counts match paper profile" `Slow
      test_app_call_counts_match_paper;
    Alcotest.test_case "simchannel partial and oversized records" `Quick
      test_simchannel_partial_records;
    Alcotest.test_case "small-call allocation is per-call constant" `Quick
      test_small_call_allocation;
  ]
