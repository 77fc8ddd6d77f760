(* CUDA streams and asynchronous RPC pipelining: stream-ordered timing in
   gpusim, one-way calls in oncrpc, and the client-side
   command queue (Cricket.Stream) end to end — including the acceptance
   property that deep pipelines beat depth 1 while staying bit-exact. *)

module Time = Simnet.Time
module E = Xdr.Encode
module D = Xdr.Decode

let check = Alcotest.check

(* --- gpusim: FIFO command queue arithmetic --- *)

let test_stream_fifo_timing () =
  let s = Gpusim.Stream.create ~id:7 in
  check Alcotest.int "id" 7 (Gpusim.Stream.id s);
  check Alcotest.int "empty" 0 (Gpusim.Stream.pending s);
  (* first command starts at now *)
  let f1 =
    Gpusim.Stream.enqueue s ~now:(Time.us 10) ~seq:1
      ~op:(Gpusim.Stream.Memset 4096) ~cost:(Time.us 5)
  in
  check Alcotest.int "f1 = 15us" 0 (Time.compare f1 (Time.us 15));
  (* second command serializes behind the first even though now < f1 *)
  let f2 =
    Gpusim.Stream.enqueue s ~now:(Time.us 11) ~seq:2
      ~op:(Gpusim.Stream.Kernel_launch "saxpy") ~cost:(Time.us 3)
  in
  check Alcotest.int "f2 = 18us" 0 (Time.compare f2 (Time.us 18));
  check Alcotest.int "completion" 0
    (Time.compare (Gpusim.Stream.completion s) f2);
  check Alcotest.int "two pending" 2 (Gpusim.Stream.pending s);
  (match Gpusim.Stream.pending_commands s with
  | [ c1; c2 ] ->
      check Alcotest.int "fifo order" 1 c1.Gpusim.Stream.seq;
      check Alcotest.int "fifo order" 2 c2.Gpusim.Stream.seq;
      check Alcotest.int "c2 starts at c1 finish" 0
        (Time.compare c2.Gpusim.Stream.start c1.Gpusim.Stream.finish)
  | cs -> Alcotest.failf "expected 2 commands, got %d" (List.length cs));
  (* retiring at 15us drops only the finished first command *)
  Gpusim.Stream.retire s ~now:(Time.us 15);
  check Alcotest.int "one left" 1 (Gpusim.Stream.pending s);
  Gpusim.Stream.retire s ~now:(Time.us 18);
  check Alcotest.int "drained" 0 (Gpusim.Stream.pending s)

let test_stream_wait_event () =
  let s = Gpusim.Stream.create ~id:1 in
  (* waiting on a never-recorded event is a no-op, per CUDA *)
  Gpusim.Stream.wait_event s ~seq:1 ~event:9 ~time:None;
  check Alcotest.int "no-op wait" 0 (Gpusim.Stream.pending s);
  check Alcotest.int "completion unchanged" 0
    (Time.compare (Gpusim.Stream.completion s) Time.zero);
  (* a recorded event lifts the stream's completion to the event time *)
  Gpusim.Stream.wait_event s ~seq:2 ~event:9 ~time:(Some (Time.us 100));
  let f =
    Gpusim.Stream.enqueue s ~now:Time.zero ~seq:3
      ~op:(Gpusim.Stream.Memset 16) ~cost:(Time.us 1)
  in
  check Alcotest.int "starts after event" 0 (Time.compare f (Time.us 101))

let test_event_elapsed () =
  let e1 = Gpusim.Event.create ~id:1 and e2 = Gpusim.Event.create ~id:2 in
  check Alcotest.bool "unrecorded" false (Gpusim.Event.is_recorded e1);
  (match Gpusim.Event.elapsed_ms ~start:e1 ~stop:e2 with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ());
  Gpusim.Event.record e1 (Time.ms 2);
  Gpusim.Event.record e2 (Time.ms 5);
  check (Alcotest.float 1e-9) "elapsed" 3.0
    (Gpusim.Event.elapsed_ms ~start:e1 ~stop:e2);
  (* re-recording overwrites, latest wins *)
  Gpusim.Event.record e2 (Time.ms 4);
  check (Alcotest.float 1e-9) "re-recorded" 2.0
    (Gpusim.Event.elapsed_ms ~start:e1 ~stop:e2)

(* --- gpusim: streams overlap on the device, serialize within --- *)

let test_gpu_streams_overlap () =
  let g = Gpusim.Gpu.create ~memory_capacity:(1 lsl 20) Gpusim.Device.a100 in
  let m = Gpusim.Gpu.memory g in
  let p = Gpusim.Memory.alloc m 65536 in
  let s1 = Gpusim.Gpu.stream_create g and s2 = Gpusim.Gpu.stream_create g in
  let f1 = Gpusim.Gpu.memset g ~now:Time.zero ~stream:s1 ~ptr:p ~value:1 65536 in
  let f2 = Gpusim.Gpu.memset g ~now:Time.zero ~stream:s2 ~ptr:p ~value:2 65536 in
  (* within one stream commands serialize *)
  let f1b = Gpusim.Gpu.memset g ~now:Time.zero ~stream:s1 ~ptr:p ~value:3 65536 in
  check Alcotest.bool "same stream serializes" true (Time.compare f1b f1 > 0);
  check Alcotest.int "s1 pipeline depth" 2 (Gpusim.Gpu.stream_pending g s1);
  check Alcotest.int "s2 pipeline depth" 1 (Gpusim.Gpu.stream_pending g s2);
  (* per-stream sync retires only that stream's finished commands *)
  let (_ : Time.t) = Gpusim.Gpu.stream_synchronize g ~now:Time.zero s1 in
  check Alcotest.int "s1 retired" 0 (Gpusim.Gpu.stream_pending g s1);
  check Alcotest.int "s2 untouched" 1 (Gpusim.Gpu.stream_pending g s2);
  (* both streams started at t=0: the device finishes when the slower one
     does, not after the sum of all three commands *)
  let dev = Gpusim.Gpu.synchronize g ~now:Time.zero in
  check Alcotest.int "device completion = max stream" 0
    (Time.compare dev (if Time.compare f1b f2 >= 0 then f1b else f2));
  check Alcotest.bool "not serialized across streams" true
    (Time.compare dev (Time.add f1b f2) < 0);
  check Alcotest.int "device sync retires everything" 0
    (Gpusim.Gpu.stream_pending g s2)

let test_gpu_cross_stream_event () =
  let g = Gpusim.Gpu.create ~memory_capacity:(1 lsl 20) Gpusim.Device.a100 in
  let m = Gpusim.Gpu.memory g in
  let p = Gpusim.Memory.alloc m 65536 in
  let s1 = Gpusim.Gpu.stream_create g and s2 = Gpusim.Gpu.stream_create g in
  let ev = Gpusim.Gpu.event_create g in
  let f1 = Gpusim.Gpu.memset g ~now:Time.zero ~stream:s1 ~ptr:p ~value:1 65536 in
  Gpusim.Gpu.event_record g ~now:Time.zero ~event:ev ~stream:s1;
  Gpusim.Gpu.stream_wait_event g ~stream:s2 ~event:ev;
  let f2 = Gpusim.Gpu.memset g ~now:Time.zero ~stream:s2 ~ptr:p ~value:2 65536 in
  (* s2's first command cannot start before s1's recorded completion *)
  check Alcotest.bool "cross-stream dependency" true (Time.compare f2 f1 > 0);
  match Gpusim.Gpu.stream_commands g s2 with
  | [ w; c ] ->
      check Alcotest.bool "wait command recorded" true
        (match w.Gpusim.Stream.op with
        | Gpusim.Stream.Wait_event e -> e = ev
        | _ -> false);
      check Alcotest.int "starts at event time" 0
        (Time.compare c.Gpusim.Stream.start f1)
  | cs -> Alcotest.failf "expected wait+memset, got %d" (List.length cs)

(* An unsynchronised launch stream keeps only the commands still running:
   each launch retires the ones that finished before it, instead of the
   queue growing by one command per launch until a sync. *)
let test_unsynced_stream_bounded () =
  let g = Gpusim.Gpu.create ~memory_capacity:(1 lsl 20) Gpusim.Device.a100 in
  let k = Option.get (Gpusim.Kernels.find Gpusim.Kernels.fill_name) in
  let p = Gpusim.Memory.alloc (Gpusim.Gpu.memory g) 4096 in
  let launch =
    {
      Gpusim.Kernels.grid = { Gpusim.Kernels.x = 1; y = 1; z = 1 };
      block = { Gpusim.Kernels.x = 256; y = 1; z = 1 };
      shared_mem = 0;
      args = [| Gpusim.Kernels.Ptr p; Gpusim.Kernels.F32 1.0; Gpusim.Kernels.I32 1024l |];
    }
  in
  let now = ref Time.zero and deepest = ref 0 in
  for _ = 1 to 100_000 do
    (* the host issues the next launch once the previous one is done *)
    now := Gpusim.Gpu.launch g ~now:!now k launch;
    deepest := max !deepest (Gpusim.Gpu.stream_pending g Gpusim.Gpu.default_stream)
  done;
  check Alcotest.int "deepest queue" 1 !deepest

(* --- oncrpc: one-way calls --- *)

let make_sum_server () =
  let server = Oncrpc.Server.create () in
  let hits = ref 0 in
  Oncrpc.Server.register server ~prog:300000 ~vers:1
    [
      ( 1,
        fun dec enc ->
          incr hits;
          E.int enc (D.int dec * 2) );
      ( 2,
        fun dec _enc ->
          incr hits;
          ignore (D.int dec) );
    ];
  Oncrpc.Server.set_oneway server ~prog:300000 ~vers:1 [ 2 ];
  (server, hits)

let call_record ~xid ~proc v =
  let enc = E.create () in
  Oncrpc.Message.encode enc
    (Oncrpc.Message.call ~xid ~prog:300000 ~vers:1 ~proc ());
  E.int enc v;
  E.to_string enc

let test_oneway_dispatch () =
  let server, hits = make_sum_server () in
  (* a one-way proc runs the handler but produces no reply record *)
  check
    (Alcotest.option Alcotest.string)
    "one-way: no reply" None
    (Oncrpc.Server.dispatch_opt server (call_record ~xid:1l ~proc:2 5));
  check Alcotest.int "handler ran" 1 !hits;
  check Alcotest.string "dispatch flattens to empty" ""
    (Oncrpc.Server.dispatch server (call_record ~xid:2l ~proc:2 5));
  (* a two-way proc still replies *)
  (match Oncrpc.Server.dispatch_opt server (call_record ~xid:3l ~proc:1 5) with
  | Some reply ->
      let dec = D.of_string reply in
      (match Oncrpc.Message.decode dec with
      | { Oncrpc.Message.xid = 3l; body = Oncrpc.Message.Reply _ } -> ()
      | _ -> Alcotest.fail "bad reply");
      check Alcotest.int "result" 10 (D.int dec)
  | None -> Alcotest.fail "two-way call must reply");
  (* protocol-level errors on a one-way proc number still reply: the
     suppression only applies once the call resolves to a one-way handler *)
  match
    Oncrpc.Server.dispatch_opt server
      (let enc = E.create () in
       Oncrpc.Message.encode enc
         (Oncrpc.Message.call ~xid:4l ~prog:300000 ~vers:9 ~proc:2 ());
       E.to_string enc)
  with
  | Some _ -> ()
  | None -> Alcotest.fail "version mismatch must still be reported"

let test_oneway_batch_single_round_trip () =
  (* N one-way calls + 1 synchronous call through the buffered loopback
     transport: the reply stream contains exactly the one reply, and the
     sync reply is matched correctly despite the preceding batch *)
  let server, hits = make_sum_server () in
  let transport =
    Cricket.Local.transport_of_dispatch (Oncrpc.Server.dispatch server)
  in
  let client = Oncrpc.Client.create ~transport ~prog:300000 ~vers:1 () in
  for i = 1 to 10 do
    Oncrpc.Client.call_oneway client ~proc:2 (fun enc -> E.int enc i)
  done;
  check Alcotest.int "one-way calls not yet delivered" 0 !hits;
  let sum = Oncrpc.Client.call client ~proc:1 (fun enc -> E.int enc 21) D.int in
  check Alcotest.int "sync reply matched after batch" 42 sum;
  check Alcotest.int "whole batch delivered in order" 11 !hits

(* --- cricket: client-side command queue end to end --- *)

let make_pair () =
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~memory_capacity:(1 lsl 26)
      ~clock:(Cudasim.Context.engine_clock engine)
      ()
  in
  (engine, Cricket.Local.connect server)

let test_stream_queue_and_flush () =
  let _, client = make_pair () in
  let s = Cricket.Stream.create client in
  let calls0 = Cricket.Client.api_calls client in
  let p = Cricket.Client.malloc client 4096 in
  Cricket.Stream.memset_async s ~ptr:p ~value:7 ~len:4096;
  Cricket.Stream.memcpy_h2d_async s ~dst:p (Bytes.make 4096 'x');
  check Alcotest.int "queued locally" 2 (Cricket.Stream.pending s);
  check Alcotest.int "no wire traffic before flush"
    (calls0 + 1) (* the malloc *)
    (Cricket.Client.api_calls client);
  Cricket.Stream.flush s;
  check Alcotest.int "queue drained" 0 (Cricket.Stream.pending s);
  check Alcotest.bool "commands hit the wire" true
    (Cricket.Client.api_calls client > calls0 + 1);
  (* stream-ordered download sees both commands' effects in order *)
  let back = Cricket.Stream.download s ~src:p ~len:4096 in
  check Alcotest.bool "memcpy after memset wins" true
    (Bytes.equal back (Bytes.make 4096 'x'));
  Cricket.Stream.destroy s

let test_stream_async_matches_sync () =
  (* the same command sequence, synchronous vs stream-ordered: results
     must be bit-identical *)
  let run use_stream =
    let _, client = make_pair () in
    let n = 1024 in
    let modul = Apps.Workload.load_standard_module client in
    let saxpy =
      Apps.Workload.get_kernel client ~modul Gpusim.Kernels.saxpy_name
    in
    let x = Cricket.Client.malloc client (4 * n) in
    let y = Cricket.Client.malloc client (4 * n) in
    let grid = { Cricket.Client.x = (n + 255) / 256; y = 1; z = 1 } in
    let block = { Cricket.Client.x = 256; y = 1; z = 1 } in
    let args i =
      [|
        Gpusim.Kernels.F32 (0.25 *. float_of_int i);
        Gpusim.Kernels.Ptr (Int64.to_int x);
        Gpusim.Kernels.Ptr (Int64.to_int y);
        Gpusim.Kernels.I32 (Int32.of_int n);
      |]
    in
    let input i =
      Apps.Workload.f32_bytes
        (Array.init n (fun j -> float_of_int (((i * 13) + j) mod 5)))
    in
    Cricket.Client.memcpy_h2d client ~dst:y
      (Apps.Workload.f32_bytes (Apps.Workload.fill_constant n 1.0));
    let out =
      if use_stream then begin
        let s = Cricket.Stream.create client in
        for i = 1 to 8 do
          Cricket.Stream.memcpy_h2d_async s ~dst:x (input i);
          Cricket.Stream.launch_async s saxpy ~grid ~block (args i)
        done;
        let out = Cricket.Stream.download s ~src:y ~len:(4 * n) in
        Cricket.Stream.destroy s;
        out
      end
      else begin
        for i = 1 to 8 do
          Cricket.Client.memcpy_h2d client ~dst:x (input i);
          Cricket.Client.launch client saxpy ~grid ~block (args i);
          Cricket.Client.device_synchronize client
        done;
        Cricket.Client.memcpy_d2h client ~src:y ~len:(4 * n)
      end
    in
    out
  in
  check Alcotest.bool "async result bit-identical to sync" true
    (Bytes.equal (run false) (run true))

let test_async_error_latches_until_sync () =
  let _, client = make_pair () in
  let s = Cricket.Stream.create client in
  (* an enqueued copy to an invalid pointer cannot fail at enqueue time;
     the error surfaces at the next synchronisation point *)
  Cricket.Stream.memcpy_h2d_async s ~dst:0xdead_beefL (Bytes.make 64 'z');
  Cricket.Stream.flush s;
  (match Cricket.Stream.synchronize s with
  | () -> Alcotest.fail "expected latched async error"
  | exception Cudasim.Error.Cuda_error _ -> ());
  (* the error is cleared once surfaced, cudaGetLastError-style *)
  Cricket.Stream.synchronize s;
  Cricket.Stream.destroy s

let test_lifetime_async_use_after_free () =
  let _, client = make_pair () in
  let s = Cricket.Stream.create client in
  let b = Cricket.Lifetime.alloc client 1024 in
  Cricket.Lifetime.upload_async b s (Bytes.make 1024 'a');
  (* freed with the upload still queued: the flush inside synchronize must
     refuse to touch the dead buffer *)
  Cricket.Lifetime.free b;
  (match Cricket.Stream.synchronize s with
  | () -> Alcotest.fail "expected Use_after_free at flush"
  | exception Cricket.Lifetime.Use_after_free -> ());
  (* enqueueing on an already-freed buffer fails fast *)
  (match Cricket.Lifetime.upload_async b s (Bytes.make 1024 'b') with
  | () -> Alcotest.fail "expected Use_after_free at enqueue"
  | exception Cricket.Lifetime.Use_after_free -> ());
  Cricket.Stream.destroy s

let test_stream_events_cross_stream () =
  let _, client = make_pair () in
  let s1 = Cricket.Stream.create client in
  let s2 = Cricket.Stream.create client in
  let ev = Cricket.Client.event_create client in
  let p = Cricket.Client.malloc client 65536 in
  Cricket.Stream.memset_async s1 ~ptr:p ~value:1 ~len:65536;
  Cricket.Stream.event_record s1 ev;
  Cricket.Stream.flush s1;
  Cricket.Stream.wait_event s2 ev;
  Cricket.Stream.memset_async s2 ~ptr:p ~value:2 ~len:256;
  Cricket.Stream.synchronize s2;
  let stop = Cricket.Client.event_create client in
  Cricket.Stream.event_record s2 stop;
  Cricket.Stream.synchronize s2;
  check Alcotest.bool "s2 finished after s1's event" true
    (Cricket.Stream.event_elapsed_ms s2 ~start:ev ~stop >= 0.0);
  Cricket.Stream.destroy s1;
  Cricket.Stream.destroy s2

(* --- acceptance: pipelining hides the virtualized-network round trip --- *)

let test_pipeline_depth_speedup () =
  let params = { Apps.Pipeline.rounds = 32; elements = 1024 } in
  let cfg = Unikernel.Config.hermit in
  let sync = Apps.Pipeline.measure ~params Apps.Pipeline.Sync cfg in
  let d1 = Apps.Pipeline.measure ~params (Apps.Pipeline.Async 1) cfg in
  let d16 = Apps.Pipeline.measure ~params (Apps.Pipeline.Async 16) cfg in
  List.iter
    (fun (r : Apps.Pipeline.result) ->
      check Alcotest.string
        (Printf.sprintf "%s bit-exact vs sync"
           (Apps.Pipeline.mode_name r.Apps.Pipeline.mode))
        (Digest.to_hex sync.Apps.Pipeline.digest)
        (Digest.to_hex r.Apps.Pipeline.digest))
    [ d1; d16 ];
  let t1 = Time.to_float_s d1.Apps.Pipeline.elapsed in
  let t16 = Time.to_float_s d16.Apps.Pipeline.elapsed in
  check Alcotest.bool
    (Printf.sprintf "depth 16 at least 2x depth 1 (%.3f vs %.3f ms)"
       (t16 *. 1e3) (t1 *. 1e3))
    true
    (t16 *. 2.0 <= t1)

let suite =
  [
    Alcotest.test_case "stream FIFO timing" `Quick test_stream_fifo_timing;
    Alcotest.test_case "stream wait_event" `Quick test_stream_wait_event;
    Alcotest.test_case "event elapsed" `Quick test_event_elapsed;
    Alcotest.test_case "gpu streams overlap" `Quick test_gpu_streams_overlap;
    Alcotest.test_case "gpu cross-stream event" `Quick
      test_gpu_cross_stream_event;
    Alcotest.test_case "one-way dispatch" `Quick test_oneway_dispatch;
    Alcotest.test_case "one-way batch, one round trip" `Quick
      test_oneway_batch_single_round_trip;
    Alcotest.test_case "stream queue and flush" `Quick
      test_stream_queue_and_flush;
    Alcotest.test_case "async matches sync bit-for-bit" `Quick
      test_stream_async_matches_sync;
    Alcotest.test_case "async error latches until sync" `Quick
      test_async_error_latches_until_sync;
    Alcotest.test_case "use-after-free caught at flush" `Quick
      test_lifetime_async_use_after_free;
    Alcotest.test_case "cross-stream events via RPC" `Quick
      test_stream_events_cross_stream;
    Alcotest.test_case "pipeline depth speedup (acceptance)" `Quick
      test_pipeline_depth_speedup;
    Alcotest.test_case "unsynced launch stream stays bounded" `Quick
      test_unsynced_stream_bounded;
  ]
