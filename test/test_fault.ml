(* Fault injection end to end: the seeded fault plan, client retries with
   virtual-time backoff, the server's at-most-once duplicate-request cache,
   and Cricket session recovery (checkpoint + journal replay + handle
   remap) after a mid-workload server crash. The acceptance property
   throughout: a faulty run finishes with a digest bit-identical to the
   fault-free run, counters prove the machinery actually fired, and
   everything is deterministic under the plan's seed. *)

module Time = Simnet.Time
module E = Xdr.Encode
module D = Xdr.Decode

let check = Alcotest.check

let cfg = Unikernel.Config.hermit

let mm_params = { Apps.Matrix_mul.ha = 64; wa = 64; wb = 64; iterations = 200 }

let clean_mm_digest =
  lazy
    (let digest = ref "" in
     ignore
       (Unikernel.Runner.run ~functional:true cfg
          (Apps.Matrix_mul.run ~verify:true ~digest_out:digest mm_params));
     !digest)

(* --- acceptance: 1 % drops + a scheduled crash, bit-identical result --- *)

let drop_crash_plan =
  {
    Simnet.Fault.none with
    Simnet.Fault.seed = 7;
    drop_rate = 0.01;
    crashes =
      [ { Simnet.Fault.after_records = 300; down_for = Time.ms 2 } ];
  }

let run_mm plan =
  let digest = ref "" in
  let report =
    Unikernel.Runner.run_with_faults ~plan cfg
      (Apps.Matrix_mul.run ~verify:true ~digest_out:digest mm_params)
  in
  (report, !digest)

let test_matrixmul_survives_drops_and_crash () =
  let report, digest = run_mm drop_crash_plan in
  check Alcotest.string "digest identical to fault-free run"
    (Lazy.force clean_mm_digest) digest;
  check Alcotest.bool "records were dropped" true
    (report.Unikernel.Runner.faults.Simnet.Fault.dropped > 0);
  check Alcotest.bool "client retried" true
    (report.Unikernel.Runner.rpc_retries > 0);
  check Alcotest.int "crash fired" 1 report.Unikernel.Runner.crashes;
  check Alcotest.int "one recovery" 1 report.Unikernel.Runner.recoveries;
  check Alcotest.bool "journal tail replayed" true
    (report.Unikernel.Runner.replayed_calls > 0)

let test_fault_run_deterministic () =
  let r1, d1 = run_mm drop_crash_plan in
  let r2, d2 = run_mm drop_crash_plan in
  check Alcotest.string "same digest" d1 d2;
  check Alcotest.int "same virtual elapsed" 0
    (Time.compare r1.Unikernel.Runner.measurement.Unikernel.Runner.elapsed
       r2.Unikernel.Runner.measurement.Unikernel.Runner.elapsed);
  check Alcotest.int "same retries" r1.Unikernel.Runner.rpc_retries
    r2.Unikernel.Runner.rpc_retries;
  check Alcotest.int "same injected"
    (Simnet.Fault.injected r1.Unikernel.Runner.faults)
    (Simnet.Fault.injected r2.Unikernel.Runner.faults);
  check Alcotest.int "same dup hits" r1.Unikernel.Runner.dup_hits
    r2.Unikernel.Runner.dup_hits

(* --- crash in the middle of a one-way upload_async batch --- *)

(* 16 async 1 KiB uploads to distinct offsets, then a synchronize and a
   readback. The one-way records sit in the channel outbox until the sync
   flushes them; the crash schedule below lands inside that batch, so
   recovery must replay journaled one-ways whose original records died
   with the old server process. *)
let upload_async_app digest (env : Unikernel.Runner.env) =
  let client = env.Unikernel.Runner.client in
  let chunk = 1024 and n = 16 in
  let d_buf = Cricket.Client.malloc client (chunk * n) in
  for i = 0 to n - 1 do
    let data = Bytes.make chunk (Char.chr (0x30 + i)) in
    Cricket.Client.memcpy_h2d_async client
      ~dst:(Int64.add d_buf (Int64.of_int (i * chunk)))
      ~stream:0L data
  done;
  Cricket.Client.device_synchronize client;
  let out = Cricket.Client.memcpy_d2h client ~src:d_buf ~len:(chunk * n) in
  Cricket.Client.free client d_buf;
  digest := Digest.to_hex (Digest.bytes out)

let test_crash_mid_upload_async () =
  let clean = ref "" in
  ignore (Unikernel.Runner.run ~functional:true cfg (upload_async_app clean));
  let faulty = ref "" in
  let plan =
    {
      Simnet.Fault.none with
      Simnet.Fault.seed = 3;
      crashes = [ { Simnet.Fault.after_records = 14; down_for = Time.ms 1 } ];
    }
  in
  let report =
    Unikernel.Runner.run_with_faults ~plan ~checkpoint_every:8 cfg
      (upload_async_app faulty)
  in
  check Alcotest.int "crash fired" 1 report.Unikernel.Runner.crashes;
  check Alcotest.int "recovered" 1 report.Unikernel.Runner.recoveries;
  check Alcotest.string "uploaded data intact" !clean !faulty

(* --- crash in the middle of a pipelined Cricket.Stream batch --- *)

let stream_batch_app digest (env : Unikernel.Runner.env) =
  let client = env.Unikernel.Runner.client in
  let n = 256 in
  let modul = Apps.Workload.load_standard_module client in
  let saxpy =
    Apps.Workload.get_kernel client ~modul Gpusim.Kernels.saxpy_name
  in
  let d_x = Cricket.Client.malloc client (4 * n) in
  let d_y = Cricket.Client.malloc client (4 * n) in
  let s = Cricket.Stream.create client in
  Cricket.Stream.memcpy_h2d_async s ~dst:d_x
    (Apps.Workload.f32_bytes (Apps.Workload.fill_constant n 1.0));
  Cricket.Stream.memset_async s ~ptr:d_y ~value:0 ~len:(4 * n);
  for _ = 1 to 24 do
    Cricket.Stream.launch_async s saxpy
      ~grid:{ Cricket.Client.x = (n + 255) / 256; y = 1; z = 1 }
      ~block:{ Cricket.Client.x = 256; y = 1; z = 1 }
      [|
        Gpusim.Kernels.F32 0.5;
        Gpusim.Kernels.Ptr (Int64.to_int d_x);
        Gpusim.Kernels.Ptr (Int64.to_int d_y);
        Gpusim.Kernels.I32 (Int32.of_int n);
      |]
  done;
  let out = Cricket.Stream.download s ~src:d_y ~len:(4 * n) in
  Cricket.Stream.destroy s;
  digest := Digest.to_hex (Digest.bytes out)

let test_crash_mid_pipelined_batch () =
  let clean = ref "" in
  ignore (Unikernel.Runner.run ~functional:true cfg (stream_batch_app clean));
  check Alcotest.bool "reference digest computed" true (!clean <> "");
  let faulty = ref "" in
  let plan =
    {
      Simnet.Fault.none with
      Simnet.Fault.seed = 11;
      crashes = [ { Simnet.Fault.after_records = 30; down_for = Time.ms 1 } ];
    }
  in
  let report =
    Unikernel.Runner.run_with_faults ~plan ~checkpoint_every:16 cfg
      (stream_batch_app faulty)
  in
  check Alcotest.int "crash fired" 1 report.Unikernel.Runner.crashes;
  check Alcotest.int "recovered" 1 report.Unikernel.Runner.recoveries;
  check Alcotest.string "pipelined result intact" !clean !faulty

(* --- at-most-once: the duplicate-request cache --- *)

let test_dup_cache_executes_once () =
  let server = Oncrpc.Server.create () in
  let executions = ref 0 in
  Oncrpc.Server.register server ~prog:300000 ~vers:1
    [
      ( 1,
        fun dec enc ->
          incr executions;
          E.int enc (D.int dec * 2) );
    ];
  Oncrpc.Server.set_dup_cache server;
  let enc = E.create () in
  Oncrpc.Message.encode enc
    (Oncrpc.Message.call ~xid:77l ~prog:300000 ~vers:1 ~proc:1 ());
  E.int enc 21;
  let request = E.to_string enc in
  let reply1 = Oncrpc.Server.dispatch server request in
  (* a retransmission is byte-identical — same xid, same proc, same args *)
  let reply2 = Oncrpc.Server.dispatch server request in
  check Alcotest.int "handler executed once" 1 !executions;
  check Alcotest.string "cached reply identical" reply1 reply2;
  check Alcotest.int "dup hit counted" 1 (Oncrpc.Server.dup_hits server);
  (* a different xid is a new call, not a duplicate *)
  let enc = E.create () in
  Oncrpc.Message.encode enc
    (Oncrpc.Message.call ~xid:78l ~prog:300000 ~vers:1 ~proc:1 ());
  E.int enc 21;
  ignore (Oncrpc.Server.dispatch server (E.to_string enc));
  check Alcotest.int "new xid executes" 2 !executions

(* --- unrecoverable sessions: sticky Session_lost, never a hang --- *)

let test_session_lost_is_sticky () =
  (* the second crash lands while recovery from the first is replaying the
     journal: by design that is unrecoverable and must surface as a sticky
     Session_lost on every subsequent call *)
  let plan =
    {
      Simnet.Fault.none with
      Simnet.Fault.seed = 5;
      crashes =
        [
          { Simnet.Fault.after_records = 60; down_for = Time.us 100 };
          { Simnet.Fault.after_records = 66; down_for = Time.us 100 };
        ];
    }
  in
  let lost = ref 0 in
  let saw_sticky = ref false in
  let app (env : Unikernel.Runner.env) =
    let client = env.Unikernel.Runner.client in
    (try
       for _ = 1 to 100 do
         ignore (Cricket.Client.malloc client 256)
       done
     with Cricket.Client.Session_lost _ -> incr lost);
    check Alcotest.bool "client flags the lost session" true
      (Cricket.Client.session_lost client);
    (* every later call fails immediately with the same error — no hang,
       no retry loop *)
    (match Cricket.Client.get_device_count client with
    | _ -> ()
    | exception Cricket.Client.Session_lost _ -> saw_sticky := true);
    ()
  in
  let report =
    Unikernel.Runner.run_with_faults ~plan ~checkpoint_every:16 cfg app
  in
  check Alcotest.int "workload hit Session_lost" 1 !lost;
  check Alcotest.bool "subsequent calls also raise Session_lost" true
    !saw_sticky;
  check Alcotest.int "both crashes fired" 2 report.Unikernel.Runner.crashes

(* --- retransmissions reuse the xid; late duplicates are skipped --- *)

(* An RPC client over a Simchannel under [plan], with retries armed. Proc 1
   answers [10 * arg] and counts its executions; the server keeps an
   at-most-once cache. [sent] collects every byte the client writes. *)
let faulty_rpc plan =
  let server = Oncrpc.Server.create () in
  let executions = ref 0 in
  Oncrpc.Server.register server ~prog:300000 ~vers:1
    [
      ( 1,
        fun dec enc ->
          incr executions;
          E.int enc (D.int dec * 10) );
    ];
  Oncrpc.Server.set_dup_cache server;
  let channel =
    Unikernel.Simchannel.create ~engine:(Simnet.Engine.create ())
      ~client:cfg.Unikernel.Config.profile ~fault:(Simnet.Fault.make plan)
      ~dispatch:(Oncrpc.Server.dispatch server)
      ()
  in
  let inner = Unikernel.Simchannel.transport channel in
  let sent = Buffer.create 256 in
  let transport =
    Oncrpc.Transport.make
      ~send:(fun buf off len ->
        Buffer.add_subbytes sent buf off len;
        inner.Oncrpc.Transport.send buf off len)
      ~recv:inner.Oncrpc.Transport.recv ~close:inner.Oncrpc.Transport.close ()
  in
  let client =
    Oncrpc.Client.create ~retry:Oncrpc.Client.default_retry ~transport
      ~prog:300000 ~vers:1 ()
  in
  (server, executions, sent, client)

let test_retransmit_reuses_xid () =
  (* the first request is lost: the client times out and retransmits, and
     both transmissions are byte-identical — same xid, so the server-side
     dup cache would recognise them *)
  let _, executions, sent, client =
    faulty_rpc { Simnet.Fault.none with Simnet.Fault.drop_nth = [ 0 ] }
  in
  let r = Oncrpc.Client.call client ~proc:1 (fun enc -> E.int enc 4) D.int in
  check Alcotest.int "answered" 40 r;
  check Alcotest.int "one retransmission" 1
    (Oncrpc.Client.stats client).Oncrpc.Client.retries;
  check Alcotest.int "handler ran once" 1 !executions;
  let wire = Buffer.contents sent in
  let half = String.length wire / 2 in
  check Alcotest.string "retransmission is byte-identical (same xid)"
    (String.sub wire 0 half)
    (String.sub wire half (String.length wire - half))

let test_late_duplicate_reply_discarded () =
  (* a Duplicate fault makes the request arrive twice: the dup cache
     answers both with the same xid (proving at-most-once execution), and
     the second reply sits in the channel's inbox. The next call must skip
     that stale xid and match its own reply. *)
  let server, executions, _, client =
    faulty_rpc { Simnet.Fault.none with Simnet.Fault.duplicate_nth = [ 0 ] }
  in
  let r1 = Oncrpc.Client.call client ~proc:1 (fun enc -> E.int enc 4) D.int in
  check Alcotest.int "first call" 40 r1;
  check Alcotest.int "server saw the same xid twice" 1
    (Oncrpc.Server.dup_hits server);
  check Alcotest.int "handler ran once" 1 !executions;
  (* if the stale duplicate reply (value 40) were matched to this call, the
     result would be 40, not 70 *)
  let r2 = Oncrpc.Client.call client ~proc:1 (fun enc -> E.int enc 7) D.int in
  check Alcotest.int "stale reply skipped, fresh reply matched" 70 r2

(* Requests are built in lent encoders while session recovery's reconnect
   hook issues restore and replay calls on the same client between two
   attempts of the failing call. Every copy of an xid the server sees —
   retransmissions after drops, after the crash, duplicated records — must
   be that xid's first request, byte for byte. *)
let test_retransmissions_survive_replay () =
  let ckpt_file = Filename.temp_file "cricket-replay" ".ckpt" in
  let engine = Simnet.Engine.create () in
  let live =
    ref
      (Cricket.Server.create ~checkpoint_dir:(Filename.dirname ckpt_file)
         ~clock:(Cudasim.Context.engine_clock engine) ())
  in
  let first = Hashtbl.create 256 and copies = ref 0 and differ = ref 0 in
  let dispatch request =
    let xid = String.sub request 0 4 in
    (match Hashtbl.find_opt first xid with
    | None -> Hashtbl.add first xid request
    | Some r ->
        incr copies;
        if not (String.equal r request) then incr differ);
    Cricket.Server.dispatch !live request
  in
  let plan =
    {
      Simnet.Fault.none with
      Simnet.Fault.seed = 5;
      drop_rate = 0.03;
      duplicate_rate = 0.02;
      crashes = [ { Simnet.Fault.after_records = 120; down_for = Time.ms 1 } ];
    }
  in
  let channel =
    Unikernel.Simchannel.create ~engine ~client:cfg.Unikernel.Config.profile
      ~fault:(Simnet.Fault.make plan)
      ~on_crash:(fun ~down_for:_ -> live := Cricket.Server.respawn !live)
      ~dispatch ()
  in
  let client =
    Cricket.Client.create ~transport:(Unikernel.Simchannel.transport channel) ()
  in
  Cricket.Client.enable_recovery ~checkpoint_every:16
    ~checkpoint_name:(Filename.basename ckpt_file) client
    ~now:(fun () -> Simnet.Engine.now engine)
    ~sleep:(fun ns -> Simnet.Engine.advance engine ns)
    ~reconnect:(fun () -> Unikernel.Simchannel.reconnect channel)
    ();
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt_file with Sys_error _ -> ())
    (fun () ->
      let modul = Apps.Workload.load_standard_module client in
      let fill =
        Apps.Workload.get_kernel client ~modul Gpusim.Kernels.fill_name
      in
      let dim = { Cricket.Client.x = 1; y = 1; z = 1 } in
      let block = { Cricket.Client.x = 64; y = 1; z = 1 } in
      for i = 1 to 60 do
        let ptr = Cricket.Client.malloc client 4096 in
        Cricket.Client.memset client ~ptr ~value:i ~len:4096;
        Cricket.Client.launch client fill ~grid:dim ~block
          [| Gpusim.Kernels.Ptr (Int64.to_int ptr);
             Gpusim.Kernels.F32 (float_of_int i); Gpusim.Kernels.I32 64l |];
        let back = Cricket.Client.memcpy_d2h client ~src:ptr ~len:16 in
        check Alcotest.(float 0.0) "kernel result" (float_of_int i)
          (Int32.float_of_bits (Bytes.get_int32_le back 0));
        Cricket.Client.free client ptr
      done);
  let stats = Unikernel.Simchannel.stats channel in
  check Alcotest.int "the crash fired" 1 stats.Unikernel.Simchannel.crashes;
  check Alcotest.bool "recovery replayed journaled calls" true
    (Cricket.Client.replayed_calls client > 0);
  check Alcotest.bool "xids were sent again" true (!copies > 0);
  check Alcotest.int "every copy is byte-identical to the first" 0 !differ

let suite =
  [
    Alcotest.test_case "matrixMul survives 1% drops + crash" `Quick
      test_matrixmul_survives_drops_and_crash;
    Alcotest.test_case "faulty runs are deterministic" `Quick
      test_fault_run_deterministic;
    Alcotest.test_case "crash mid upload_async batch" `Quick
      test_crash_mid_upload_async;
    Alcotest.test_case "crash mid pipelined stream batch" `Quick
      test_crash_mid_pipelined_batch;
    Alcotest.test_case "dup cache gives at-most-once execution" `Quick
      test_dup_cache_executes_once;
    Alcotest.test_case "Session_lost is sticky, never a hang" `Quick
      test_session_lost_is_sticky;
    Alcotest.test_case "retransmit reuses xid" `Quick
      test_retransmit_reuses_xid;
    Alcotest.test_case "late duplicate reply discarded" `Quick
      test_late_duplicate_reply_discarded;
    Alcotest.test_case "retransmissions byte-identical across replay" `Quick
      test_retransmissions_survive_replay;
  ]
