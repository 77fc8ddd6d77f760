(* The five workloads. Each builds its own stack from public constructors
   and, when traced, threads the {!Probe} wrappers through the two
   boundaries it owns: the channel's client transport and the server's
   dispatch closure. The stack code is the program's; only the wiring is
   the bench's. *)

module Time = Simnet.Time
module Engine = Simnet.Engine
module C = Cricket.Client
module Samples = Probe.Samples

(* What one timed batch (a "trial") did. Everything but [elapsed_ns] is a
   deterministic function of the seed, so the harness requires it to be
   identical across trials and between the traced and untraced stacks. *)
type batch = {
  offered : int;  (** ops attempted *)
  served : int;  (** ops completed (offered − shed) *)
  errors : int;  (** ops that raised or returned a wrong result *)
  elapsed_ns : int;  (** host time of the measured part *)
  words : int;  (** minor words the measured part allocated *)
  vtime_ns : int;  (** virtual service time of the served ops *)
  vspan_ns : int;  (** virtual time the engine advanced *)
  vlat : int array;  (** per-op virtual latency (sojourn), sorted *)
  shed_ratio : float;  (** refused ÷ offered, counted in items *)
  jain : float;
}

let signature b =
  ( b.offered,
    b.served,
    b.errors,
    b.words,
    b.vtime_ns,
    b.vspan_ns,
    b.vlat,
    Int64.bits_of_float b.shed_ratio,
    Int64.bits_of_float b.jain )

type instance = {
  prepare : unit -> unit;  (** untimed set-up before each batch *)
  run : unit -> batch;
  counters : unit -> (string * float) list;
      (** cumulative stack counters, by per-layer metric source name *)
  check : unit -> unit;  (** end-of-run invariants; raises [Failure] *)
}

type t = {
  name : string;
  build :
    seed:int -> scale:float -> traced:bool -> samples:Samples.t -> instance;
}

let fail fmt = Printf.ksprintf failwith fmt
let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))
let vnow engine = Int64.to_int (Engine.now engine)

let charge engine ns = Engine.advance engine (Time.ns ns)

let server_stack ~functional engine =
  let server =
    Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  Cudasim.Context.set_functional (Cricket.Server.context server) functional;
  server

let wrap_dispatch traced f = if traced then Probe.dispatch f else f
let wrap_transport traced t = if traced then Probe.transport t else t

(* The closed loop every single-client workload shares: op [i] is timed
   (host and allocation), its virtual latency recorded, then [verify i]
   checks its output outside the measured interval. *)
let closed_loop ~traced ~engine ~samples ~n ~vlat ~op ~verify =
  let elapsed = ref 0 and words = ref 0 and errors = ref 0 in
  let v0 = vnow engine in
  for i = 0 to n - 1 do
    let vt = vnow engine in
    let w0 = Probe.words () in
    elapsed := !elapsed + Probe.timed ~traced samples ~per:1 op i;
    words := !words + (Probe.words () - w0);
    vlat.(i) <- vnow engine - vt;
    if not (verify i) then incr errors
  done;
  let vspan = vnow engine - v0 in
  let vl = Array.copy vlat in
  Array.sort Int.compare vl;
  {
    offered = n;
    served = n;
    errors = !errors;
    elapsed_ns = !elapsed;
    words = !words;
    vtime_ns = vspan;
    vspan_ns = vspan;
    vlat = vl;
    shed_ratio = 0.;
    jain = 1.0;
  }

let client_counters client =
  let s = Oncrpc.Client.stats (C.rpc client) in
  [
    ("client.retries", float_of_int s.Oncrpc.Client.retries);
    ("payload_bytes", float_of_int (C.memcpy_bytes_up client + C.memcpy_bytes_down client));
  ]

let simchannel_counters ch =
  let s = Unikernel.Simchannel.stats ch in
  [
    ("channel.network_vtime_ns", Int64.to_float s.Unikernel.Simchannel.network_time);
    ("channel.timeouts", float_of_int s.Unikernel.Simchannel.timeouts);
  ]

let tcpchannel_counters ch =
  let module T = Unikernel.Tcpchannel in
  let s = T.stats ch in
  let nd = T.netdev_stats ch in
  let c, sv = T.endpoint_stats ch in
  let rexmit =
    c.Tcpstack.Endpoint.retransmissions + sv.Tcpstack.Endpoint.retransmissions
  in
  [
    ("channel.network_vtime_ns", Int64.to_float s.T.network_time);
    ("channel.timeouts", float_of_int s.T.timeouts);
    ("tcp.wire_segments", float_of_int nd.Tcpstack.Netdev.wire_segments);
    ("tcp.sw_checksum_bytes", float_of_int nd.Tcpstack.Netdev.sw_checksum_bytes);
    ("tcp.staging_copies", float_of_int nd.Tcpstack.Netdev.staging_copies);
    ("tcp.gro_merged", float_of_int nd.Tcpstack.Netdev.gro_merged);
    ("tcp.retransmissions", float_of_int rexmit);
  ]
  @ (match T.rpcdev_stats ch with
    | None -> []
    | Some r ->
        [
          ("rpcdev.records", float_of_int r.Tcpstack.Rpcdev.records);
          ("rpcdev.parse_hits", float_of_int r.Tcpstack.Rpcdev.parse_hits);
          ("rpcdev.max_queue_depth", float_of_int r.Tcpstack.Rpcdev.max_queue_depth);
        ])
  @
  match T.doorbell_stats ch with
  | None -> []
  | Some d ->
      [
        ("doorbell.flushes", float_of_int d.Oncrpc.Doorbell.flushes);
        ("doorbell.batched", float_of_int d.Oncrpc.Doorbell.batched);
        ("doorbell.flush_deadline", float_of_int d.Oncrpc.Doorbell.flush_deadline);
      ]

(* --- small-calls: the Fig. 6 rotation, Hermit over the cost-model
   channel, GPU timing only (kernels do not execute). --- *)

let small_calls =
  let build ~seed ~scale ~traced ~samples =
    let cfg = Unikernel.Config.hermit in
    let engine = Engine.create () in
    let server = server_stack ~functional:false engine in
    let channel =
      Unikernel.Simchannel.create ~engine ~client:cfg.Unikernel.Config.profile
        ~dispatch:(wrap_dispatch traced (Cricket.Server.dispatch server))
        ()
    in
    let client =
      C.create ~launch_extra_ns:cfg.Unikernel.Config.launch_extra_ns
        ~charge:(charge engine)
        ~transport:(wrap_transport traced (Unikernel.Simchannel.transport channel))
        ()
    in
    let devices = C.get_device_count client in
    let kbuf = C.malloc client 4096 in
    let modul = Apps.Workload.load_standard_module client in
    let fill = Apps.Workload.get_kernel client ~modul Gpusim.Kernels.fill_name in
    let args =
      [|
        Gpusim.Kernels.Ptr (Int64.to_int kbuf);
        Gpusim.Kernels.F32 (float_of_int (seed land 0xffff));
        Gpusim.Kernels.I32 1024l;
      |]
    in
    let grid = { C.x = 1; y = 1; z = 1 } and block = { C.x = 256; y = 1; z = 1 } in
    let n = 3 * scaled scale 40_000 in
    let vlat = Array.make n 0 in
    let count = ref 0 and ptr = ref 0L in
    let op i =
      match i mod 3 with
      | 0 -> count := C.get_device_count client
      | 1 ->
          let p = C.malloc client 1_048_576 in
          ptr := p;
          C.free client p
      | _ -> C.launch client fill ~grid ~block args
    in
    let verify i =
      match i mod 3 with
      | 0 -> !count = devices
      | 1 -> !ptr <> 0L && !ptr <> kbuf
      | _ -> true
    in
    {
      (* launches queue on the default stream until a sync retires them;
         one untimed sync per trial keeps every trial's heap the same *)
      prepare = (fun () -> C.device_synchronize client);
      run = (fun () -> closed_loop ~traced ~engine ~samples ~n ~vlat ~op ~verify);
      counters =
        (fun () ->
          client_counters client @ simchannel_counters channel
          @ [ ("server.dup_hits", float_of_int (Cricket.Server.dup_hits server)) ]);
      check =
        (fun () ->
          if devices < 1 then fail "small-calls: %d devices" devices;
          let served = Cricket.Server.calls_served server in
          if served <> C.api_calls client then
            fail "small-calls: server served %d calls, client issued %d" served
              (C.api_calls client));
    }
  in
  { name = "small-calls"; build }

(* --- bulk-transfer: 64 MiB h2d then d2h of a seeded buffer, Hermit over
   the executable TCP stack, functional server. --- *)

let bulk_transfer =
  let build ~seed ~scale ~traced ~samples =
    let cfg = Unikernel.Config.hermit in
    let engine = Engine.create () in
    let server = server_stack ~functional:true engine in
    let dispatch = wrap_dispatch traced (Cricket.Server.dispatch server) in
    (* A fresh connection per trial: TCP state (congestion window, segment
       boundaries) otherwise carries over and no two trials would do the
       same work. The handshake is set-up, not measured. *)
    let connect () =
      let channel =
        Unikernel.Tcpchannel.create ~engine ~client:cfg.Unikernel.Config.profile
          ~dispatch ()
      in
      let client =
        C.create ~launch_extra_ns:cfg.Unikernel.Config.launch_extra_ns
          ~charge:(charge engine)
          ~transport:(wrap_transport traced (Unikernel.Tcpchannel.transport channel))
          ()
      in
      (channel, client)
    in
    let conn = ref (connect ()) in
    let len = max 65_536 (scaled scale (64 lsl 20)) in
    let payload = Apps.Workload.xorshift_bytes ~seed len in
    let dst = C.malloc (snd !conn) len in
    let back = ref Bytes.empty in
    let vlat = Array.make 1 0 in
    (* an op is the round trip: timed apart, the two copies would split
       the major GC work their ~700 MB of allocation each brings wherever
       it happens to land *)
    let op _ =
      let client = snd !conn in
      C.memcpy_h2d client ~dst payload;
      back := C.memcpy_d2h client ~src:dst ~len
    in
    let verify _ = Bytes.equal !back payload in
    {
      (* the harness snapshots counters after [prepare], so per-trial deltas
         only ever span one connection *)
      prepare = (fun () -> conn := connect ());
      run =
        (fun () ->
          let b = closed_loop ~traced ~engine ~samples ~n:1 ~vlat ~op ~verify in
          back := Bytes.empty;
          b);
      counters =
        (fun () ->
          let channel, client = !conn in
          client_counters client @ tcpchannel_counters channel
          @ [ ("server.dup_hits", float_of_int (Cricket.Server.dup_hits server)) ]);
      check = ignore;
    }
  in
  { name = "bulk-transfer"; build }

(* --- gpu-kernels: matrixMul, cuBLAS sgemm and histogram256 executed by
   the GPU simulator, over the in-process loopback. --- *)

let gpu_kernels =
  let build ~seed ~scale ~traced ~samples =
    let engine = Engine.create () in
    let server = server_stack ~functional:true engine in
    let client =
      C.create ~charge:(charge engine)
        ~transport:
          (wrap_transport traced
             (Cricket.Local.transport_of_dispatch
                (wrap_dispatch traced (Cricket.Server.dispatch server))))
        ()
    in
    let n = if scale >= 1. then 128 else 32 in
    let mat_bytes = 4 * n * n in
    let expected = float_of_int n *. 0.5 in
    let data_len = max 4096 (scaled scale 1_048_576) in
    let data = Apps.Workload.xorshift_bytes ~seed data_len in
    let reference = Array.make 256 0 in
    Bytes.iter (fun c -> reference.(Char.code c) <- reference.(Char.code c) + 1) data;
    let upload v =
      let d = C.malloc client mat_bytes in
      C.memcpy_h2d client ~dst:d
        (Apps.Workload.f32_bytes (Apps.Workload.fill_constant (n * n) v));
      d
    in
    let a = upload 1.0 and b = upload 0.5 in
    let c = C.malloc client mat_bytes in
    let d_data = C.malloc client data_len in
    C.memcpy_h2d client ~dst:d_data data;
    let d_partial = C.malloc client 1024 and d_hist = C.malloc client 1024 in
    let modul = Apps.Workload.load_standard_module client in
    let kernel = Apps.Workload.get_kernel client ~modul in
    let matmul = kernel Gpusim.Kernels.matrix_mul_name in
    let histogram = kernel Gpusim.Kernels.histogram256_name in
    let merge = kernel Gpusim.Kernels.merge_histogram256_name in
    let cublas = C.cublas_create client in
    let ptr p = Gpusim.Kernels.Ptr (Int64.to_int p) in
    let matmul_args =
      [| ptr c; ptr a; ptr b; Gpusim.Kernels.I32 (Int32.of_int n); Gpusim.Kernels.I32 (Int32.of_int n) |]
    in
    let hist_args = [| ptr d_partial; ptr d_data; Gpusim.Kernels.I32 (Int32.of_int data_len) |] in
    let merge_args = [| ptr d_hist; ptr d_partial; Gpusim.Kernels.I32 1l |] in
    let dim x y = { C.x; y; z = 1 } in
    let out = ref Bytes.empty in
    let ops = 3 * scaled scale 3 in
    let vlat = Array.make ops 0 in
    let op i =
      match i mod 3 with
      | 0 ->
          C.launch client matmul ~grid:(dim (n / 32) (n / 32)) ~block:(dim 32 32)
            matmul_args;
          C.device_synchronize client;
          out := C.memcpy_d2h client ~src:c ~len:mat_bytes
      | 1 ->
          C.cublas_sgemm client ~handle:cublas ~m:n ~n ~k:n ~alpha:1.0 ~a ~lda:n ~b
            ~ldb:n ~beta:0.0 ~c ~ldc:n;
          C.device_synchronize client;
          out := C.memcpy_d2h client ~src:c ~len:mat_bytes
      | _ ->
          C.launch client histogram ~grid:(dim 240 1) ~block:(dim 192 1) hist_args;
          C.launch client merge ~grid:(dim 256 1) ~block:(dim 256 1) merge_args;
          C.device_synchronize client;
          out := C.memcpy_d2h client ~src:d_hist ~len:1024
    in
    let verify i =
      let o = !out in
      out := Bytes.empty;
      if i mod 3 < 2 then begin
        let ok = ref (Bytes.length o = mat_bytes) in
        for k = 0 to (Bytes.length o / 4) - 1 do
          if Int32.float_of_bits (Bytes.get_int32_le o (4 * k)) <> expected then
            ok := false
        done;
        !ok
      end
      else begin
        let ok = ref (Bytes.length o = 1024) and sum = ref 0 in
        for k = 0 to (Bytes.length o / 4) - 1 do
          let v = Int32.to_int (Bytes.get_int32_le o (4 * k)) in
          sum := !sum + v;
          if v <> reference.(k) then ok := false
        done;
        !ok && !sum = data_len
      end
    in
    {
      prepare = ignore;
      run = (fun () -> closed_loop ~traced ~engine ~samples ~n:ops ~vlat ~op ~verify);
      counters =
        (fun () ->
          client_counters client
          @ [ ("server.dup_hits", float_of_int (Cricket.Server.dup_hits server)) ]);
      check = ignore;
    }
  in
  { name = "gpu-kernels"; build }

(* --- tenants-contended: an open loop of Poisson arrivals per tenant into
   one Tenancy.Core (DRR), every tenant its own client. --- *)

type kind = Small | Transfer | Compute

let transfer_bytes = 32_768

let run_item client ~payload kind ~repeat =
  for _ = 1 to repeat do
    match kind with
    | Small ->
        let p = C.malloc client 4096 in
        C.memset client ~ptr:p ~value:0 ~len:4096;
        C.free client p
    | Transfer ->
        let p = C.malloc client transfer_bytes in
        C.memcpy_h2d client ~dst:p payload;
        let back = C.memcpy_d2h client ~src:p ~len:transfer_bytes in
        C.free client p;
        if not (Bytes.equal back payload) then fail "tenants: transfer corrupted"
    | Compute ->
        let n = 32 in
        let bytes = n * n * 4 in
        let h = C.cublas_create client in
        let a = C.malloc client bytes in
        let b = C.malloc client bytes in
        let c = C.malloc client bytes in
        C.cublas_sgemm client ~handle:h ~m:n ~n ~k:n ~alpha:1.0 ~a ~lda:n ~b ~ldb:n
          ~beta:0.0 ~c ~ldc:n;
        C.free client a;
        C.free client b;
        C.free client c;
        C.cublas_destroy client h
  done

(* Kinds in the Loadgen proportions (Small 60 / Transfer 30 / Compute 10 %),
   exact rather than drawn, then shuffled. *)
let shuffled_kinds rv count =
  let n_transfer = count * 3 / 10 and n_compute = count / 10 in
  let kinds =
    Array.init count (fun i ->
        if i < n_compute then Compute
        else if i < n_compute + n_transfer then Transfer
        else Small)
  in
  for i = count - 1 downto 1 do
    let j = Simnet.Random_variate.uniform_int rv (i + 1) in
    let x = kinds.(i) in
    kinds.(i) <- kinds.(j);
    kinds.(j) <- x
  done;
  kinds

let schedule_seed = 42

let tenants_contended =
  let build ~seed ~scale ~traced ~samples =
    let module Core = Tenancy.Core in
    let module Rv = Simnet.Random_variate in
    let n_tenants = max 4 (scaled scale 2_000) in
    let per_tenant = 4 and heavy_every = 10 and heavy_factor = 8 in
    let engine = Engine.create () in
    let server = server_stack ~functional:true engine in
    let specs =
      Array.init n_tenants (fun i ->
          {
            Core.name = Printf.sprintf "t%05d" i;
            priority = i mod 3;
            caps = Some { Tenancy.Lease.default_caps with mem_bytes = 1 lsl 20 };
          })
    in
    let core =
      Core.create ~engine ~server ~policy:Cricket.Sched.Round_robin
        ~admission:
          { Tenancy.Admission.per_tenant_window = 3; global_window = 128; high_water = 112 }
        ~tenants:specs ()
    in
    let clients =
      Array.init n_tenants (fun j ->
          C.create ~charge:(charge engine)
            ~transport:
              (wrap_transport traced
                 (Cricket.Local.transport_of_dispatch
                    (wrap_dispatch traced (fun record ->
                         Core.dispatch_for core ~tenant:j record))))
            ())
    in
    (* --seed picks the bytes every transfer carries and checks. The
       arrival schedule and the kind of each item come from a fixed seed:
       which items admission sheds depends on the schedule, and with it the
       mix of work served, so with a seeded schedule the per-op allocation
       and virtual time would move by about 2 % and 0.6 % between seeds and
       hide regressions smaller than that. *)
    let payload = Apps.Workload.xorshift_bytes ~seed transfer_bytes in
    let seed = schedule_seed in
    let heavy j = j mod heavy_every = 0 in
    let n_heavy = (n_tenants + heavy_every - 1) / heavy_every in
    let kinds_heavy = shuffled_kinds (Rv.substream ~seed ~index:0) (per_tenant * n_heavy) in
    let kinds_light =
      shuffled_kinds (Rv.substream ~seed ~index:1) (per_tenant * (n_tenants - n_heavy))
    in
    let next_heavy = ref 0 and next_light = ref 0 in
    (* Core.run counts an item that raises as an error *)
    let work j kind =
      let client = clients.(j) in
      let repeat = if heavy j then heavy_factor else 1 in
      let item () = run_item client ~payload kind ~repeat in
      fun () -> ignore (Probe.timed ~traced samples ~per:repeat item ())
    in
    (* (tenant, arrival offset, work) for every item, fixed for the run *)
    let plan =
      Array.init n_tenants (fun j ->
          let arrivals =
            Rv.poisson_arrivals
              (Rv.substream ~seed ~index:(2 + j))
              ~mean_gap:(Time.ms 60) ~count:per_tenant
          in
          List.map
            (fun at ->
              let kind =
                if heavy j then (
                  incr next_heavy;
                  kinds_heavy.(!next_heavy - 1))
                else (
                  incr next_light;
                  kinds_light.(!next_light - 1))
              in
              (j, at, work j kind))
            arrivals)
      |> Array.to_list |> List.concat
    in
    let n_items = List.length plan in
    (* an op is one run of an item shape: a heavy tenant's item is
       [heavy_factor] ops *)
    let weight j = if heavy j then heavy_factor else 1 in
    let offered = List.fold_left (fun acc (j, _, _) -> acc + weight j) 0 plan in
    let items = ref [] in
    let admitted = ref 0 and shed_total = ref 0 and quota = ref 0 in
    let prepare () =
      (* a fresh trial starts where the last one left the clock *)
      let base = Engine.now engine in
      items :=
        List.map
          (fun (tenant, at, work) -> { Core.tenant; arrival = Int64.add base at; work })
          plan
        |> List.stable_sort (fun (a : Core.item) b ->
               match Time.compare a.arrival b.arrival with
               | 0 -> compare a.tenant b.tenant
               | c -> c)
    in
    let run () =
      let its = !items in
      items := [];
      let v0 = vnow engine in
      let w0 = Probe.words () in
      let t0 = Probe.now () in
      let r = Core.run core its in
      let t1 = Probe.now () in
      let w1 = Probe.words () in
      let sojourns =
        Array.to_list r.Core.timeline
        |> List.filter_map (fun (ev : Core.event) ->
               match ev.Core.ev_kind with
               | Core.Served -> Some (Int64.to_int (Time.sub ev.Core.ev_time ev.Core.ev_arrival))
               | Core.Shed _ -> None)
        |> Array.of_list
      in
      Array.sort Int.compare sojourns;
      if r.Core.completed + r.Core.rejected <> n_items then
        fail "tenants: %d completed + %d refused <> %d offered" r.Core.completed
          r.Core.rejected n_items;
      List.iter
        (fun (l : Tenancy.Lease.lease) ->
          if l.Tenancy.Lease.mem_used <> 0 || l.Tenancy.Lease.live_streams <> 0 then
            fail "tenants: lease of %s holds %d bytes after the trial" l.Tenancy.Lease.tenant
              l.Tenancy.Lease.mem_used)
        (Tenancy.Lease.leases (Core.lease_registry core));
      let a = r.Core.admission in
      admitted := !admitted + a.Tenancy.Admission.admitted;
      shed_total := !shed_total + a.Tenancy.Admission.shed;
      quota := !quota + a.Tenancy.Admission.rejected_quota;
      {
        offered;
        served =
          Array.fold_left ( + ) 0
            (Array.mapi
               (fun j (tr : Core.tenant_result) -> weight j * (tr.Core.completed - tr.Core.errors))
               r.Core.tenants);
        errors = Array.fold_left (fun acc (tr : Core.tenant_result) -> acc + tr.Core.errors) 0 r.Core.tenants;
        elapsed_ns = t1 - t0;
        words = w1 - w0;
        vtime_ns =
          Array.fold_left
            (fun acc (tr : Core.tenant_result) -> acc + Int64.to_int tr.Core.busy_ns)
            0 r.Core.tenants;
        vspan_ns = vnow engine - v0;
        vlat = sojourns;
        shed_ratio = float_of_int r.Core.rejected /. float_of_int n_items;
        jain = r.Core.jain;
      }
    in
    {
      prepare;
      run;
      counters =
        (fun () ->
          let l = Tenancy.Lease.stats (Core.lease_registry core) in
          let sum f = Array.fold_left (fun acc c -> acc + f c) 0 clients in
          [
            ("client.retries",
              float_of_int
                (sum (fun c -> (Oncrpc.Client.stats (C.rpc c)).Oncrpc.Client.retries)));
            ("payload_bytes",
              float_of_int (sum (fun c -> C.memcpy_bytes_up c + C.memcpy_bytes_down c)));
            ("server.dup_hits", float_of_int (Cricket.Server.dup_hits server));
            ("admission.admitted", float_of_int !admitted);
            ("admission.shed", float_of_int !shed_total);
            ("admission.rejected_quota", float_of_int !quota);
            ("lease.denied_mallocs", float_of_int l.Tenancy.Lease.denied_mallocs);
            ("lease.reclaimed_bytes", float_of_int l.Tenancy.Lease.reclaimed_bytes);
          ]);
      check = ignore;
    }
  in
  { name = "tenants-contended"; build }

(* --- rpc-pipelined: the RPCAcc echo program, 64-byte arguments, a window
   of 32 calls in flight on one connection over the executable TCP stack
   with device framing/parse/steer and doorbell batching. --- *)

module Rpcbench = Unikernel.Rpcbench

let window = 32
let arg_bytes = 64

let rpc_pipelined =
  let build ~seed ~scale ~traced ~samples =
    let engine = Engine.create () in
    let srv = Oncrpc.Server.create ~name:"rpcacc-echo" () in
    Oncrpc.Server.set_dup_cache srv;
    Oncrpc.Server.register srv ~prog:Rpcbench.echo_prog ~vers:Rpcbench.echo_vers
      [ (Rpcbench.echo_proc, fun dec enc -> Xdr.Encode.opaque enc (Xdr.Decode.opaque dec)) ];
    let ident = "tenant-0" in
    let admission =
      Tenancy.Admission.create ~config:Tenancy.Admission.unlimited ~n_tenants:1 ()
    in
    let parsed ~ident:_ (p : Tcpstack.Rpcdev.parsed) record =
      match Tenancy.Admission.offer admission ~tenant:0 with
      | Error _ -> fail "rpc-pipelined: admission refused a call"
      | Ok () ->
          Fun.protect
            ~finally:(fun () -> Tenancy.Admission.complete admission ~tenant:0)
            (fun () ->
              Option.value ~default:""
                (Oncrpc.Server.dispatch_preparsed ~ident srv ~xid:p.Tcpstack.Rpcdev.xid
                   ~prog:p.Tcpstack.Rpcdev.prog ~vers:p.Tcpstack.Rpcdev.vers
                   ~proc:p.Tcpstack.Rpcdev.proc ~body_off:p.Tcpstack.Rpcdev.body_off
                   record))
    in
    let dispatch_parsed =
      if traced then fun ~ident p record ->
        let prev = Probe.switch Probe.server in
        match parsed ~ident p record with
        | reply ->
            ignore (Probe.switch prev);
            reply
        | exception e ->
            ignore (Probe.switch prev);
            raise e
      else parsed
    in
    let channel =
      Unikernel.Tcpchannel.create ~engine
        ~client:Unikernel.Config.rust_native.Unikernel.Config.profile
        ~rpc:(Rpcbench.device_of_mode Rpcbench.Device_full)
        ~ident ~dispatch_parsed
        ~doorbell_policy:
          {
            Oncrpc.Doorbell.max_records = window;
            max_bytes = 256 * 1024;
            deadline_ns = Some (Time.us 100);
          }
        ~dispatch:
          (wrap_dispatch traced (fun record -> Oncrpc.Server.dispatch ~ident srv record))
        ()
    in
    let transport = wrap_transport traced (Unikernel.Tcpchannel.transport channel) in
    let args =
      let bytes = Apps.Workload.xorshift_bytes ~seed (64 * arg_bytes) in
      Array.init 64 (fun i -> Bytes.sub_string bytes (i * arg_bytes) arg_bytes)
    in
    let bursts = scaled scale 4096 in
    let n = bursts * window in
    let vlat = Array.make n 0 in
    let sent_v = Array.make window 0 in
    let xid = ref 0 and errors = ref 0 in
    let call x =
      let enc = Xdr.Encode.create () in
      Oncrpc.Message.encode enc
        (Oncrpc.Message.call ~xid:(Int32.of_int x) ~prog:Rpcbench.echo_prog
           ~vers:Rpcbench.echo_vers ~proc:Rpcbench.echo_proc ());
      Xdr.Encode.opaque enc (Bytes.unsafe_of_string args.(x land 63));
      Oncrpc.Record.writev transport (Xdr.Encode.to_iovec enc)
    in
    let reply_ok x reply =
      let dec = Xdr.Decode.of_string reply in
      match Oncrpc.Message.decode dec with
      | {
       Oncrpc.Message.xid = rx;
       body =
         Oncrpc.Message.Reply
           (Oncrpc.Message.Accepted { Oncrpc.Message.stat = Oncrpc.Message.Success; _ });
      } ->
          Int32.to_int rx = x
          && Bytes.unsafe_to_string (Xdr.Decode.opaque dec) = args.(x land 63)
      | _ -> false
      | exception _ -> false
    in
    (* one burst is timed as a whole: its calls are in flight together, so
       each call's host time is its share of the burst *)
    let burst b =
      let first = !xid + 1 in
      for k = 0 to window - 1 do
        sent_v.(k) <- vnow engine;
        call (first + k)
      done;
      xid := !xid + window;
      for k = 0 to window - 1 do
        let reply = Oncrpc.Record.read transport in
        vlat.((b * window) + k) <- vnow engine - sent_v.(k);
        if not (reply_ok (first + k) reply) then incr errors
      done
    in
    let run () =
      errors := 0;
      let elapsed = ref 0 in
      let v0 = vnow engine in
      let w0 = Probe.words () in
      for b = 0 to bursts - 1 do
        elapsed := !elapsed + Probe.timed ~traced samples ~per:window burst b
      done;
      let w1 = Probe.words () in
      let vspan = vnow engine - v0 in
      let vl = Array.copy vlat in
      Array.sort Int.compare vl;
      {
        offered = n;
        served = n;
        errors = !errors;
        elapsed_ns = !elapsed;
        words = w1 - w0;
        vtime_ns = vspan;
        vspan_ns = vspan;
        vlat = vl;
        shed_ratio = 0.;
        jain = 1.0;
      }
    in
    let echoed = ref 0 in
    {
      prepare = ignore;
      run =
        (fun () ->
          let b = run () in
          echoed := !echoed + b.served;
          b);
      counters =
        (fun () ->
          tcpchannel_counters channel
          @ [
              ("payload_bytes", float_of_int (2 * arg_bytes * !echoed));
              ("server.dup_hits", float_of_int (Oncrpc.Server.dup_hits srv));
            ]);
      check = ignore;
    }
  in
  { name = "rpc-pipelined"; build }

let all = [ small_calls; bulk_transfer; gpu_kernels; tenants_contended; rpc_pipelined ]
let find name = List.find_opt (fun w -> w.name = name) all
