(* The multi-tenant serving core: admission windows with typed
   rejections, DRR fair-share dispatch, leases with virtual-time TTL and
   device-memory reclaim, the end-to-end Core loop, and the load
   harness's byte-determinism. The capstone scenario: a lease that
   expires while the server is down mid-session-recovery must deny the
   journal replay with a typed Lease_expired — never a partial replay —
   and return the tenant's arena bytes to baseline. *)

module Time = Simnet.Time
module Engine = Simnet.Engine

let check = Alcotest.check

(* --- admission --- *)

let test_admission_windows () =
  let adm =
    Tenancy.Admission.create
      ~config:
        { Tenancy.Admission.per_tenant_window = 2; global_window = 4;
          high_water = 4 }
      ~n_tenants:3 ()
  in
  check Alcotest.bool "first admitted" true
    (Tenancy.Admission.offer adm ~tenant:0 = Ok ());
  check Alcotest.bool "second admitted" true
    (Tenancy.Admission.offer adm ~tenant:0 = Ok ());
  (* per-tenant window full *)
  check Alcotest.bool "third over quota" true
    (Tenancy.Admission.offer adm ~tenant:0
    = Error Tenancy.Admission.Over_quota);
  (* other tenants still fit until the global wall *)
  check Alcotest.bool "tenant 1 admitted" true
    (Tenancy.Admission.offer adm ~tenant:1 = Ok ());
  check Alcotest.bool "tenant 2 admitted" true
    (Tenancy.Admission.offer adm ~tenant:2 = Ok ());
  check Alcotest.bool "global wall" true
    (Tenancy.Admission.offer adm ~tenant:2
    = Error Tenancy.Admission.Overloaded);
  (* completion frees a slot *)
  Tenancy.Admission.complete adm ~tenant:0;
  check Alcotest.bool "slot freed" true
    (Tenancy.Admission.offer adm ~tenant:0 = Ok ());
  let s = Tenancy.Admission.stats adm in
  check Alcotest.int "admitted" 5 s.Tenancy.Admission.admitted;
  check Alcotest.int "quota rejections" 1 s.Tenancy.Admission.rejected_quota;
  check Alcotest.int "overload rejections" 1
    s.Tenancy.Admission.rejected_overload

let test_admission_load_shedding () =
  (* between high_water and global_window only tenants with nothing in
     flight get in: light tenants survive a heavy neighbour's burst *)
  let adm =
    Tenancy.Admission.create
      ~config:
        { Tenancy.Admission.per_tenant_window = 100; global_window = 100;
          high_water = 2 }
      ~n_tenants:2 ()
  in
  check Alcotest.bool "heavy 1" true
    (Tenancy.Admission.offer adm ~tenant:0 = Ok ());
  check Alcotest.bool "heavy 2" true
    (Tenancy.Admission.offer adm ~tenant:0 = Ok ());
  (* high water reached: the heavy tenant is shed... *)
  check Alcotest.bool "heavy shed" true
    (Tenancy.Admission.offer adm ~tenant:0
    = Error Tenancy.Admission.Overloaded);
  (* ...but a tenant with nothing in flight is still admitted *)
  check Alcotest.bool "light admitted" true
    (Tenancy.Admission.offer adm ~tenant:1 = Ok ());
  check Alcotest.int "shed counted" 1
    (Tenancy.Admission.stats adm).Tenancy.Admission.shed

(* --- dispatch --- *)

let drr ?(quantum = 1_000) tenants =
  Tenancy.Dispatch.create ~policy:Cricket.Sched.Round_robin
    ~quantum_ns:quantum
    ~tenants:(Array.of_list tenants)
    ~priorities:(Array.make (List.length tenants) 0)
    ()

let drain_with_costs d cost_of =
  let order = ref [] in
  let rec go () =
    match Tenancy.Dispatch.next d with
    | None -> ()
    | Some (tenant, item) ->
        order := (tenant, item) :: !order;
        Tenancy.Dispatch.charge d ~tenant ~cost_ns:(cost_of tenant item);
        go ()
  in
  go ();
  List.rev !order

let test_drr_equal_share () =
  (* tenant 0's items cost 4x tenant 1's; with both backlogged, DRR must
     serve tenant 1 about 4x as many items per unit time: equal virtual
     service, not equal item counts *)
  let d = drr ~quantum:4_000 [ "a"; "b" ] in
  for i = 0 to 39 do
    Tenancy.Dispatch.enqueue d ~tenant:0 i;
    Tenancy.Dispatch.enqueue d ~tenant:1 i
  done;
  let costs = function 0 -> 4_000 | _ -> 1_000 in
  let order = drain_with_costs d (fun t _ -> costs t) in
  (* look at the first 20 served: service should be near-equal *)
  let first = List.filteri (fun i _ -> i < 20) order in
  let busy = [| 0; 0 |] in
  List.iter (fun (t, _) -> busy.(t) <- busy.(t) + costs t) first;
  let ratio = float_of_int busy.(0) /. float_of_int busy.(1) in
  check Alcotest.bool "near-equal virtual service" true
    (ratio > 0.5 && ratio < 2.0);
  check Alcotest.int "everything served eventually" 80 (List.length order);
  check Alcotest.bool "rotations happened" true
    (Tenancy.Dispatch.rotations d > 0)

let test_drr_deterministic () =
  let run () =
    let d = drr [ "a"; "b"; "c" ] in
    for i = 0 to 29 do
      Tenancy.Dispatch.enqueue d ~tenant:(i mod 3) i
    done;
    drain_with_costs d (fun t i -> 500 + (137 * t) + (31 * (i mod 5)))
  in
  check Alcotest.bool "same enqueue sequence, same service order" true
    (run () = run ())

let test_dispatch_priority_classes () =
  let d =
    Tenancy.Dispatch.create ~policy:Cricket.Sched.Priority ~quantum_ns:1_000
      ~tenants:[| "low"; "high" |] ~priorities:[| 5; 1 |] ()
  in
  Tenancy.Dispatch.enqueue d ~tenant:0 "l1";
  Tenancy.Dispatch.enqueue d ~tenant:1 "h1";
  Tenancy.Dispatch.enqueue d ~tenant:0 "l2";
  Tenancy.Dispatch.enqueue d ~tenant:1 "h2";
  let order = drain_with_costs d (fun _ _ -> 100) in
  check
    Alcotest.(list (pair int string))
    "high class drains before low" [ (1, "h1"); (1, "h2"); (0, "l1"); (0, "l2") ]
    order

let test_dispatch_fifo_order () =
  let d =
    Tenancy.Dispatch.create ~policy:Cricket.Sched.Fifo ~tenants:[| "a"; "b" |]
      ~priorities:[| 0; 0 |] ()
  in
  Tenancy.Dispatch.enqueue d ~tenant:1 "x";
  Tenancy.Dispatch.enqueue d ~tenant:0 "y";
  Tenancy.Dispatch.enqueue d ~tenant:1 "z";
  let order = drain_with_costs d (fun _ _ -> 100) in
  check
    Alcotest.(list (pair int string))
    "arrival order" [ (1, "x"); (0, "y"); (1, "z") ]
    order

(* --- leases against a live server --- *)

let make_server () =
  let engine = Engine.create () in
  let server =
    Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  Cudasim.Context.set_functional (Cricket.Server.context server) false;
  (engine, server)

let used_bytes server =
  Gpusim.Memory.used_bytes
    (Gpusim.Gpu.memory (Cudasim.Context.gpu (Cricket.Server.context server)))

let connect_tenant core ~tenant engine =
  Cricket.Client.create
    ~charge:(fun ns -> Engine.advance engine (Time.ns ns))
    ~transport:
      (Cricket.Local.transport_of_dispatch (fun record ->
           Tenancy.Core.dispatch_for core ~tenant record))
    ()

let test_lease_caps_enforced () =
  let engine, server = make_server () in
  let caps =
    { Tenancy.Lease.mem_bytes = 8192; streams = 1; ttl = Time.s 10 }
  in
  let core =
    Tenancy.Core.create ~engine ~server ~policy:Cricket.Sched.Round_robin
      ~tenants:[| { Tenancy.Core.name = "t0"; priority = 0; caps = Some caps } |]
      ()
  in
  let client = connect_tenant core ~tenant:0 engine in
  let p1 = Cricket.Client.malloc client 4096 in
  let _p2 = Cricket.Client.malloc client 4096 in
  (* cap reached: the next allocation fails like device OOM *)
  (match Cricket.Client.malloc client 16 with
  | _ -> Alcotest.fail "expected allocation failure at the cap"
  | exception Cudasim.Error.Cuda_error Cudasim.Error.Memory_allocation -> ());
  (* freeing makes room again *)
  Cricket.Client.free client p1;
  let p3 = Cricket.Client.malloc client 4096 in
  check Alcotest.bool "allocation after free succeeds" true (p3 <> 0L);
  (* stream cap: one live stream allowed *)
  let s1 = Cricket.Client.stream_create client in
  (match Cricket.Client.stream_create client with
  | _ -> Alcotest.fail "expected stream cap rejection"
  | exception Cudasim.Error.Cuda_error _ -> ());
  Cricket.Client.stream_destroy client s1;
  let s2 = Cricket.Client.stream_create client in
  check Alcotest.bool "stream after destroy succeeds" true (s2 <> 0L);
  let stats = Tenancy.Lease.stats (Tenancy.Core.lease_registry core) in
  check Alcotest.int "denied mallocs" 1 stats.Tenancy.Lease.denied_mallocs;
  check Alcotest.int "denied streams" 1 stats.Tenancy.Lease.denied_streams

let test_lease_expiry_reclaims_memory () =
  let engine, server = make_server () in
  let baseline = used_bytes server in
  let caps =
    { Tenancy.Lease.mem_bytes = 1 lsl 20; streams = 4; ttl = Time.ms 5 }
  in
  let core =
    Tenancy.Core.create ~engine ~server ~policy:Cricket.Sched.Round_robin
      ~tenants:[| { Tenancy.Core.name = "t0"; priority = 0; caps = Some caps } |]
      ()
  in
  let registry = Tenancy.Core.lease_registry core in
  let client = connect_tenant core ~tenant:0 engine in
  let _p = Cricket.Client.malloc client 65536 in
  let _s = Cricket.Client.stream_create client in
  check Alcotest.bool "arena grew" true (used_bytes server > baseline);
  (match Tenancy.Lease.find registry "t0" with
  | Some l ->
      check Alcotest.int "lease accounts the allocation" 65536
        l.Tenancy.Lease.mem_used
  | None -> Alcotest.fail "lease missing");
  (* renewal extends expiry *)
  (match Tenancy.Lease.renew registry ~tenant:"t0" with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "renewal of an active lease");
  (* let the (renewed) lease run out in virtual time *)
  Engine.advance engine (Time.ms 6);
  (* the next call is denied with the typed Lease_expired auth error *)
  (match Cricket.Client.malloc client 256 with
  | _ -> Alcotest.fail "expected Lease_expired denial"
  | exception
      Oncrpc.Client.Rpc_error
        (Oncrpc.Client.Call_rejected (Oncrpc.Message.Auth_error stat)) ->
      check Alcotest.bool "typed reason recovers" true
        (Cricket.Server.reject_of_auth_stat stat = Some `Lease_expired));
  (* ...and the tenant's device memory and streams were reclaimed *)
  check Alcotest.int "arena back to baseline" baseline (used_bytes server);
  let stats = Tenancy.Lease.stats registry in
  check Alcotest.int "one expiry" 1 stats.Tenancy.Lease.expiries;
  check Alcotest.int "bytes reclaimed" 65536
    stats.Tenancy.Lease.reclaimed_bytes;
  check Alcotest.int "stream reclaimed" 1
    stats.Tenancy.Lease.reclaimed_streams;
  match Tenancy.Lease.check registry ~tenant:"t0" with
  | Error `Expired -> ()
  | _ -> Alcotest.fail "lease should be Expired"

(* --- the serving core end to end --- *)

let test_core_typed_rejections_and_fairness () =
  let engine, server = make_server () in
  let tenants =
    Array.init 4 (fun i ->
        { Tenancy.Core.name = Printf.sprintf "t%d" i; priority = 0;
          caps = None })
  in
  let core =
    Tenancy.Core.create ~engine ~server ~policy:Cricket.Sched.Round_robin
      ~admission:
        { Tenancy.Admission.per_tenant_window = 1; global_window = 64;
          high_water = 64 }
      ~tenants ()
  in
  let clients = Array.init 4 (fun i -> connect_tenant core ~tenant:i engine) in
  let work i () =
    let p = Cricket.Client.malloc clients.(i) 4096 in
    Cricket.Client.free clients.(i) p
  in
  (* two items per tenant at the same instant: the second of each pair
     finds the tenant window full and is rejected Over_quota *)
  let items =
    List.concat
      (List.init 4 (fun i ->
           [
             { Tenancy.Core.tenant = i; arrival = Time.zero; work = work i };
             { Tenancy.Core.tenant = i; arrival = Time.zero; work = work i };
           ]))
  in
  let result = Tenancy.Core.run core items in
  check Alcotest.int "one completion per tenant" 4
    result.Tenancy.Core.completed;
  check Alcotest.int "one Over_quota per tenant" 4
    result.Tenancy.Core.rejected;
  Array.iter
    (fun (tr : Tenancy.Core.tenant_result) ->
      check Alcotest.int "tenant completed" 1 tr.Tenancy.Core.completed;
      check Alcotest.int "tenant rejected quota" 1
        tr.Tenancy.Core.rejected_quota)
    result.Tenancy.Core.tenants;
  (* identical work per tenant: Jain over busy time should be ~1 *)
  check Alcotest.bool "fair share" true (result.Tenancy.Core.jain > 0.99);
  check Alcotest.bool "sojourn recorded" true
    (Obs.Histogram.count result.Tenancy.Core.aggregate = 4)

let test_core_obs_labels () =
  let engine, server = make_server () in
  let obs = Obs.Recorder.create () in
  Obs.Recorder.set_enabled obs true;
  let core =
    Tenancy.Core.create ~engine ~server ~policy:Cricket.Sched.Fifo ~obs
      ~tenants:
        [|
          { Tenancy.Core.name = "uk0"; priority = 0; caps = None };
          { Tenancy.Core.name = "uk1"; priority = 0; caps = None };
        |]
      ()
  in
  let clients = Array.init 2 (fun i -> connect_tenant core ~tenant:i engine) in
  let item i =
    { Tenancy.Core.tenant = i; arrival = Time.zero;
      work =
        (fun () ->
          let p = Cricket.Client.malloc clients.(i) 1024 in
          Cricket.Client.free clients.(i) p);
    }
  in
  let (_ : Tenancy.Core.result) = Tenancy.Core.run core [ item 0; item 1 ] in
  check Alcotest.int "per-tenant served counter" 1
    (Obs.Recorder.counter obs
       (Obs.Recorder.tenant_label "tenancy.served" ~tenant:"uk0"));
  let served = Obs.Recorder.counters_prefixed obs ~prefix:"tenancy.served" in
  check Alcotest.int "one labelled counter per tenant" 2 (List.length served);
  match Obs.Recorder.tenant_of_label (fst (List.hd served)) with
  | Some ("tenancy.served", "uk0") -> ()
  | _ -> Alcotest.fail "label parse"

(* --- load harness determinism --- *)

let tiny_params =
  {
    Tenancy.Loadgen.smoke with
    Tenancy.Loadgen.tenants = 60;
    items_per_tenant = 3;
    mean_gap = Time.ms 2;
    admission =
      { Tenancy.Admission.per_tenant_window = 2; global_window = 16;
        high_water = 12 };
  }

let test_loadgen_deterministic () =
  let a = Tenancy.Loadgen.to_string (Tenancy.Loadgen.run tiny_params) in
  let b = Tenancy.Loadgen.to_string (Tenancy.Loadgen.run tiny_params) in
  check Alcotest.string "byte-identical reports" a b;
  (* a different seed produces a different trajectory *)
  let c =
    Tenancy.Loadgen.to_string
      (Tenancy.Loadgen.run { tiny_params with Tenancy.Loadgen.seed = 43 })
  in
  check Alcotest.bool "seed matters" true (a <> c)

let test_loadgen_accounts_every_item () =
  List.iter
    (fun (r : Tenancy.Loadgen.report) ->
      check Alcotest.int "offered = completed + rejected"
        r.Tenancy.Loadgen.items
        (r.Tenancy.Loadgen.completed + r.Tenancy.Loadgen.rejected_quota
       + r.Tenancy.Loadgen.rejected_overload
       + r.Tenancy.Loadgen.rejected_expired);
      check Alcotest.int "no errors" 0 r.Tenancy.Loadgen.errors)
    (Tenancy.Loadgen.run tiny_params)

let test_loadgen_uniform_fairness () =
  let reports =
    Tenancy.Loadgen.run
      {
        tiny_params with
        Tenancy.Loadgen.uniform = true;
        policies = [ Cricket.Sched.Round_robin ];
      }
  in
  List.iter
    (fun (r : Tenancy.Loadgen.report) ->
      check Alcotest.bool "DRR fair on uniform load" true
        (r.Tenancy.Loadgen.jain >= 0.9))
    reports

(* --- lease expiry during session recovery (no partial replay) --- *)

let test_lease_expiry_during_recovery () =
  let engine = Engine.create () in
  let clock = Cudasim.Context.engine_clock engine in
  let ckpt_file = Filename.temp_file "tenancy-session" ".ckpt" in
  let checkpoint_dir = Filename.dirname ckpt_file in
  let checkpoint_name = Filename.basename ckpt_file in
  let first = Cricket.Server.create ~checkpoint_dir ~clock () in
  Cudasim.Context.set_functional (Cricket.Server.context first) false;
  let server = ref first in
  let registry =
    Tenancy.Lease.create
      ~now:(fun () -> Engine.now engine)
      ~ctx:(fun () -> Cricket.Server.context !server)
      ()
  in
  Tenancy.Lease.install registry !server;
  ignore
    (Tenancy.Lease.grant registry ~tenant:"t0"
       { Tenancy.Lease.mem_bytes = 1 lsl 20; streams = 4; ttl = Time.ms 4 });
  (* the server crashes mid-workload and stays down past the lease TTL *)
  let plan =
    {
      Simnet.Fault.none with
      Simnet.Fault.seed = 11;
      crashes = [ { Simnet.Fault.after_records = 60; down_for = Time.ms 8 } ];
    }
  in
  let fault = Simnet.Fault.make plan in
  let channel =
    Unikernel.Simchannel.create ~engine
      ~client:Unikernel.Config.hermit.Unikernel.Config.profile ~fault
      ~on_crash:(fun ~down_for:_ ->
        let fresh = Cricket.Server.respawn !server in
        Cudasim.Context.set_functional (Cricket.Server.context fresh) false;
        (* the supervisor re-installs the lease hooks on the new process *)
        Tenancy.Lease.install registry fresh;
        server := fresh)
      ~dispatch:(fun request ->
        Cricket.Server.dispatch_for !server ~tenant:"t0" request)
      ()
  in
  let client =
    Cricket.Client.create
      ~charge:(fun ns -> Engine.advance engine (Time.ns ns))
      ~transport:(Unikernel.Simchannel.transport channel)
      ()
  in
  Cricket.Client.enable_recovery
    ~retry:{ Oncrpc.Client.default_retry with max_attempts = 12 }
    ~checkpoint_every:8 ~checkpoint_name client
    ~now:(fun () -> Engine.now engine)
    ~sleep:(fun ns -> Engine.advance engine ns)
    ~reconnect:(fun () -> Unikernel.Simchannel.reconnect channel)
    ();
  let lost = ref false in
  (try
     (* journalled allocations the recovery protocol would replay *)
     for _ = 1 to 60 do
       ignore (Cricket.Client.malloc client 4096)
     done
   with Cricket.Client.Session_lost _ -> lost := true);
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt_file with Sys_error _ -> ())
    (fun () ->
      check Alcotest.bool "session lost, not silently replayed" true !lost;
      check Alcotest.bool "client flags the lost session" true
        (Cricket.Client.session_lost client);
      (* the crash actually fired and the lease expired during the outage *)
      check Alcotest.int "crash fired" 1
        (Unikernel.Simchannel.stats channel).Unikernel.Simchannel.crashes;
      (match Tenancy.Lease.check registry ~tenant:"t0" with
      | Error `Expired -> ()
      | _ -> Alcotest.fail "lease should be Expired");
      let stats = Tenancy.Lease.stats registry in
      check Alcotest.bool "recovery calls were denied as Lease_expired" true
        (stats.Tenancy.Lease.expired_denials > 0);
      (* no partial replay: the respawned server holds zero tenant bytes *)
      check Alcotest.int "arena back to baseline" 0 (used_bytes !server);
      (* every later call fails fast with the sticky error *)
      match Cricket.Client.get_device_count client with
      | _ -> Alcotest.fail "expected sticky Session_lost"
      | exception Cricket.Client.Session_lost _ -> ())

(* --- what a tenant costs --- *)

let kib_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1024.

(* N clients of one server, each after one 32 KiB upload and download:
   the heap reachable from them and not from the server, in KiB per
   client. The server is left out because its at-most-once cache keeps
   replies by design. *)
let served_kib_per_client n =
  let _, server = make_server () in
  let len = 32 lsl 10 in
  let payload = Bytes.make len 's' in
  let clients =
    Array.init n (fun i ->
        let c = Cricket.Local.connect_for server ~tenant:(Printf.sprintf "t%d" i) in
        let dst = Cricket.Client.malloc c len in
        Cricket.Client.memcpy_h2d c ~dst payload;
        ignore (Cricket.Client.memcpy_d2h c ~src:dst ~len);
        c)
  in
  let own =
    Obj.reachable_words (Obj.repr (clients, server))
    - Obj.reachable_words (Obj.repr server)
  in
  kib_of_words own /. float_of_int n

(* N built tenants that have made no call: the core with a lease per
   tenant, and one client per tenant over the record-level loopback. *)
let idle_tenant_words n =
  let engine, server = make_server () in
  let caps = { Tenancy.Lease.mem_bytes = 1 lsl 20; streams = 1; ttl = Time.s 10 } in
  let core =
    Tenancy.Core.create ~engine ~server ~policy:Cricket.Sched.Round_robin
      ~tenants:
        (Array.init n (fun i ->
             { Tenancy.Core.name = Printf.sprintf "t%d" i; priority = 0;
               caps = Some caps }))
      ()
  in
  let clients = Array.init n (fun tenant -> connect_tenant core ~tenant engine) in
  Obj.reachable_words (Obj.repr (core, clients))

(* A served tenant keeps at most 4 KiB once its call is over: nothing of
   the transfer stays in its loopback. An idle tenant costs at most 10 KiB,
   measured as the slope between 100 and 400 tenants. *)
let test_tenant_cost () =
  List.iter
    (fun n ->
      let kib = served_kib_per_client n in
      check Alcotest.bool
        (Printf.sprintf "%d served clients: %.2f KiB each <= 4" n kib)
        true (kib <= 4.))
    [ 100; 400 ];
  let slope =
    kib_of_words (idle_tenant_words 400 - idle_tenant_words 100) /. 300.
  in
  check Alcotest.bool
    (Printf.sprintf "idle tenant: %.2f KiB <= 10" slope)
    true (slope <= 10.)

let suite =
  [
    Alcotest.test_case "admission windows" `Quick test_admission_windows;
    Alcotest.test_case "admission load shedding" `Quick
      test_admission_load_shedding;
    Alcotest.test_case "DRR equal virtual service" `Quick test_drr_equal_share;
    Alcotest.test_case "DRR deterministic" `Quick test_drr_deterministic;
    Alcotest.test_case "priority classes strict" `Quick
      test_dispatch_priority_classes;
    Alcotest.test_case "fifo arrival order" `Quick test_dispatch_fifo_order;
    Alcotest.test_case "lease caps enforced" `Quick test_lease_caps_enforced;
    Alcotest.test_case "lease expiry reclaims memory" `Quick
      test_lease_expiry_reclaims_memory;
    Alcotest.test_case "core typed rejections + fairness" `Quick
      test_core_typed_rejections_and_fairness;
    Alcotest.test_case "core per-tenant obs labels" `Quick
      test_core_obs_labels;
    Alcotest.test_case "loadgen byte-deterministic" `Quick
      test_loadgen_deterministic;
    Alcotest.test_case "loadgen accounts every item" `Quick
      test_loadgen_accounts_every_item;
    Alcotest.test_case "loadgen uniform fairness" `Quick
      test_loadgen_uniform_fairness;
    Alcotest.test_case "lease expiry during recovery" `Quick
      test_lease_expiry_during_recovery;
    Alcotest.test_case "tenant cost: served and idle" `Quick test_tenant_cost;
  ]
