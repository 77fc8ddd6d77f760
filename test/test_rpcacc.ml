(* RPC-aware netdev offload engine: device header parse vs the software
   decoder (property-tested equivalence), steering queues, doorbell
   batching and its flush policy, batching under retransmission, the
   pool-accounting fix for device-steered staging buffers, the
   header-skip dispatch fast path, and the rpcacc bench acceptance
   numbers (speedup + Figure 7 ordering + reply byte-parity). *)

module Rpcdev = Tcpstack.Rpcdev
module Time = Simnet.Time
module Engine = Simnet.Engine
module O = Simnet.Offload

let encode_call ?(cred = Oncrpc.Auth.none) ?(verf = Oncrpc.Auth.none)
    ?(prog = Unikernel.Rpcbench.echo_prog) ?(vers = Unikernel.Rpcbench.echo_vers)
    ?(proc = Unikernel.Rpcbench.echo_proc) ~xid payload =
  let enc = Xdr.Encode.create () in
  Oncrpc.Message.encode enc
    (Oncrpc.Message.call ~cred ~verf ~xid ~prog ~vers ~proc ());
  Xdr.Encode.opaque enc (Bytes.unsafe_of_string payload);
  Xdr.Encode.to_string enc

let make_echo_server () =
  let srv = Oncrpc.Server.create ~name:"rpcacc-test" () in
  Oncrpc.Server.set_dup_cache srv;
  Oncrpc.Server.register srv ~prog:Unikernel.Rpcbench.echo_prog
    ~vers:Unikernel.Rpcbench.echo_vers
    [
      ( Unikernel.Rpcbench.echo_proc,
        fun dec enc ->
          let payload = Xdr.Decode.opaque dec in
          Xdr.Encode.opaque enc payload );
    ];
  srv

(* --- device parse vs software decode --- *)

(* software acceptance, in the sense the rpcdev parser mirrors: the
   [Oncrpc.Message] decoder returns a CALL without raising *)
let software_parse record =
  match Oncrpc.Message.decode (Xdr.Decode.of_string record) with
  | { Oncrpc.Message.xid; body = Call c } ->
      Some (xid, c.Oncrpc.Message.prog, c.vers, c.proc)
  | _ -> None
  | exception _ -> None

let gen_auth =
  QCheck.Gen.(
    map2
      (fun fl body ->
        let flavor =
          match fl with
          | 0 -> Oncrpc.Auth.Auth_none
          | 1 -> Oncrpc.Auth.Auth_sys
          | 2 -> Oncrpc.Auth.Auth_short
          | _ -> Oncrpc.Auth.Auth_other 9
        in
        { Oncrpc.Auth.flavor; body = Bytes.of_string body })
      (int_range 0 3)
      (string_size (int_range 0 Oncrpc.Auth.max_body_length)))

let gen_call_record =
  QCheck.Gen.(
    map
      (fun (xid, (prog, vers, proc), (cred, verf), payload) ->
        encode_call ~cred ~verf ~prog ~vers ~proc
          ~xid:(Int32.of_int xid) payload)
      (quad (int_bound 0xFFFFFF)
         (triple (int_bound 1_000_000) (int_bound 1_000_000)
            (int_bound 1_000_000))
         (pair gen_auth gen_auth)
         (string_size (int_range 0 256))))

let arb_call_record = QCheck.make ~print:String.escaped gen_call_record

let parse_equiv_valid =
  QCheck.Test.make ~count:300 ~name:"device parse == software decode (valid)"
    arb_call_record (fun record ->
      match Rpcdev.parse_call_header record with
      | Error r ->
          QCheck.Test.fail_reportf "device rejected a valid call: %s"
            (Rpcdev.reject_to_string r)
      | Ok p -> (
          match software_parse record with
          | None -> QCheck.Test.fail_report "software rejected a valid call"
          | Some (xid, prog, vers, proc) ->
              p.Rpcdev.xid = xid && p.prog = prog && p.vers = vers
              && p.proc = proc
              && (* body_off lands exactly on the procedure arguments *)
              String.length record >= p.body_off))

let parse_truncated =
  QCheck.Test.make ~count:300 ~name:"device parse: truncation rejected, typed"
    QCheck.(pair arb_call_record (int_bound 10_000))
    (fun (record, cut) ->
      match Rpcdev.parse_call_header record with
      | Error _ -> QCheck.assume_fail ()
      | Ok p ->
          let cut = cut mod max 1 p.Rpcdev.body_off in
          let truncated = String.sub record 0 cut in
          (* typed rejection, never an exception *)
          (match Rpcdev.parse_call_header truncated with
          | Error _ -> true
          | Ok _ ->
              QCheck.Test.fail_reportf
                "device accepted a header cut to %d bytes" cut))

let parse_equiv_corrupt =
  QCheck.Test.make ~count:500
    ~name:"device parse == software decode (corrupted byte)"
    QCheck.(triple arb_call_record (int_bound 10_000) (int_bound 255))
    (fun (record, pos, byte) ->
      let pos = pos mod String.length record in
      let b = Bytes.of_string record in
      Bytes.set b pos (Char.chr byte);
      let record = Bytes.unsafe_to_string b in
      (* total function on arbitrary corruption... *)
      match Rpcdev.parse_call_header record with
      | Ok p -> (
          (* ...and accepts exactly when the software decoder does *)
          match software_parse record with
          | Some (xid, prog, vers, proc) ->
              p.Rpcdev.xid = xid && p.prog = prog && p.vers = vers
              && p.proc = proc
          | None ->
              QCheck.Test.fail_report
                "device accepted what software rejected")
      | Error _ ->
          (match software_parse record with
          | None -> true
          | Some _ ->
              QCheck.Test.fail_report
                "device rejected what software accepted"))

let test_parse_rejects () =
  let record = encode_call ~xid:9l "payload" in
  (* not a call: msg_type patched to REPLY(1) *)
  let b = Bytes.of_string record in
  Bytes.set_int32_be b 4 1l;
  (match Rpcdev.parse_call_header (Bytes.to_string b) with
  | Error (Rpcdev.Not_a_call 1l) -> ()
  | _ -> Alcotest.fail "expected Not_a_call");
  (* wrong rpcvers *)
  let b = Bytes.of_string record in
  Bytes.set_int32_be b 8 3l;
  (match Rpcdev.parse_call_header (Bytes.to_string b) with
  | Error (Rpcdev.Bad_rpc_version 3) -> ()
  | _ -> Alcotest.fail "expected Bad_rpc_version");
  (* oversized auth body length *)
  let b = Bytes.of_string record in
  Bytes.set_int32_be b 28 401l;
  (match Rpcdev.parse_call_header (Bytes.to_string b) with
  | Error (Rpcdev.Bad_auth _) -> ()
  | _ -> Alcotest.fail "expected Bad_auth");
  match Rpcdev.parse_call_header "" with
  | Error (Rpcdev.Truncated 0) -> ()
  | _ -> Alcotest.fail "expected Truncated 0"

(* --- rpcdev framing, steering, pool accounting --- *)

let feed_record ?(chunk = 7) dev record =
  let wire = Oncrpc.Record.to_wire record in
  let n = String.length wire in
  let off = ref 0 in
  while !off < n do
    let len = min chunk (n - !off) in
    Rpcdev.feed dev (Bytes.of_string (String.sub wire !off len));
    off := !off + len
  done

let native_profile = Unikernel.Config.rust_native.Unikernel.Config.profile

let test_rpcdev_steering () =
  let engine = Engine.create () in
  let pool = Oncrpc.Pool.create () in
  let dev =
    Rpcdev.create ~engine ~profile:native_profile
      ~features:(O.rpc_all O.none)
      ~alloc:(Oncrpc.Pool.acquire pool)
      ~free:(Oncrpc.Pool.release pool) ~ident:"t0" ()
  in
  feed_record dev (encode_call ~xid:1l ~proc:1 "a");
  feed_record dev (encode_call ~xid:2l ~proc:2 "b");
  Rpcdev.set_ident dev "t1";
  feed_record dev (encode_call ~xid:3l ~proc:1 "c");
  Alcotest.(check int) "pending" 3 (Rpcdev.pending dev);
  let entries = Rpcdev.drain dev in
  Alcotest.(check (list string))
    "steered idents" [ "t0"; "t0"; "t1" ]
    (List.map (fun e -> e.Rpcdev.ident) entries);
  List.iter
    (fun e ->
      match e.Rpcdev.parse with
      | Some (Ok _) -> ()
      | _ -> Alcotest.fail "expected device-parsed entry")
    entries;
  let s = Rpcdev.stats dev in
  Alcotest.(check int) "records" 3 s.Rpcdev.records;
  Alcotest.(check int) "hw records" 3 s.hw_records;
  Alcotest.(check int) "parse hits" 3 s.parse_hits;
  Alcotest.(check int) "steered" 3 s.steered;
  (* (proc 1, t0), (proc 2, t0), (proc 1, t1) are distinct queues *)
  Alcotest.(check int) "queues" 3 s.queues;
  Alcotest.(check bool) "staging came from the pool" true
    (s.pool_acquires > 0);
  (* staging buffers went back: the pool serves the next record from its
     free list (this is the bin-accounting fix — rpcdev releases must not
     be dropped as foreign) *)
  feed_record dev (encode_call ~xid:4l "d");
  let ps = Oncrpc.Pool.stats pool in
  Alcotest.(check bool) "pool hit on reuse" true (ps.Oncrpc.Pool.hits > 0);
  Alcotest.(check int) "no dropped releases" 0 ps.Oncrpc.Pool.drops

let test_rpcdev_parse_punt () =
  let engine = Engine.create () in
  let dev =
    Rpcdev.create ~engine ~profile:native_profile
      ~features:(O.rpc_all O.none) ()
  in
  let good = encode_call ~xid:5l "ok" in
  let bad = Bytes.of_string good in
  Bytes.set_int32_be bad 8 7l;
  feed_record dev (Bytes.to_string bad);
  feed_record dev good;
  let entries = Rpcdev.drain dev in
  Alcotest.(check int) "both delivered" 2 (List.length entries);
  let rejects =
    List.filter
      (fun e ->
        match e.Rpcdev.parse with Some (Error _) -> true | _ -> false)
      entries
  in
  Alcotest.(check int) "one punted" 1 (List.length rejects);
  let s = Rpcdev.stats dev in
  Alcotest.(check int) "parse rejects counted" 1 s.Rpcdev.parse_rejects;
  Alcotest.(check int) "good one steered" 1 s.steered

let test_rpcdev_software_mode () =
  let engine = Engine.create () in
  let dev =
    Rpcdev.create ~engine ~profile:native_profile ~features:O.none ()
  in
  let t0 = Engine.now engine in
  feed_record dev (encode_call ~xid:6l "sw");
  let entries = Rpcdev.drain dev in
  (match entries with
  | [ e ] ->
      Alcotest.(check bool) "no device parse" true (e.Rpcdev.parse = None)
  | _ -> Alcotest.fail "expected one entry");
  let s = Rpcdev.stats dev in
  Alcotest.(check int) "software-framed" 1 s.Rpcdev.sw_records;
  Alcotest.(check int) "nothing steered" 0 s.steered;
  (* software framing/parse/route all charged on the engine clock *)
  Alcotest.(check bool) "host cpu charged" true
    (Time.compare (Engine.now engine) t0 > 0)

let test_effective_clamps () =
  let steer_only = { O.none with O.rpc_steer = true; rpc_parse = true } in
  let e = Rpcdev.effective steer_only in
  Alcotest.(check bool) "parse without framing clamped" false e.O.rpc_parse;
  Alcotest.(check bool) "steer without parse clamped" false e.O.rpc_steer;
  let all = Rpcdev.effective (O.rpc_all O.none) in
  Alcotest.(check bool) "full set survives" true
    (all.O.rpc_framing && all.O.rpc_parse && all.O.rpc_steer
   && all.O.rpc_doorbell)

(* --- pool bin accounting (the device-steered buffer fix) --- *)

let test_pool_non_pow2_max () =
  (* acquire just under a non-pow2 cap rounds up past it; release must
     still accept the buffer back (this leaked every staging buffer of
     the rpcdev reassembly path before the fix) *)
  let pool = Oncrpc.Pool.create ~max_buffer_size:3000 () in
  let b = Oncrpc.Pool.acquire pool 2500 in
  Alcotest.(check int) "rounded to pow2" 4096 (Bytes.length b);
  Oncrpc.Pool.release pool b;
  let s = Oncrpc.Pool.stats pool in
  Alcotest.(check int) "release accepted" 0 s.Oncrpc.Pool.drops;
  let b2 = Oncrpc.Pool.acquire pool 2500 in
  Alcotest.(check bool) "served from the bin" true (b == b2);
  Alcotest.(check int) "hit" 1 (Oncrpc.Pool.stats pool).Oncrpc.Pool.hits

let test_pool_double_release () =
  let pool = Oncrpc.Pool.create () in
  let b = Oncrpc.Pool.acquire pool 1024 in
  Oncrpc.Pool.release pool b;
  Oncrpc.Pool.release pool b;
  let s = Oncrpc.Pool.stats pool in
  Alcotest.(check int) "second release dropped" 1 s.Oncrpc.Pool.drops;
  let b1 = Oncrpc.Pool.acquire pool 1024 in
  let b2 = Oncrpc.Pool.acquire pool 1024 in
  Alcotest.(check bool) "no aliased buffers" true (b1 != b2)

let test_pool_foreign_release () =
  let pool = Oncrpc.Pool.create () in
  (* non-pow2 capacity: the pool could never have handed this out *)
  Oncrpc.Pool.release pool (Bytes.create 3000);
  let s = Oncrpc.Pool.stats pool in
  Alcotest.(check int) "foreign buffer dropped" 1 s.Oncrpc.Pool.drops;
  let b = Oncrpc.Pool.acquire pool 3000 in
  Alcotest.(check int) "fresh pow2 buffer" 4096 (Bytes.length b)

(* --- doorbell flush policy --- *)

(* an inner transport that records each ring of the doorbell *)
let batch_sink () =
  let batches = ref [] in
  let t =
    Oncrpc.Transport.make
      ~sendv:(fun iov -> batches := Xdr.Iovec.concat iov :: !batches)
      ~send:(fun b off len ->
        batches := Bytes.sub_string b off len :: !batches)
      ~recv:(fun _ _ _ -> 0)
      ~close:(fun () -> ())
      ()
  in
  (t, fun () -> List.rev !batches)

let test_doorbell_count_flush () =
  let inner, batches = batch_sink () in
  let bell =
    Oncrpc.Doorbell.wrap
      ~policy:
        { Oncrpc.Doorbell.max_records = 4; max_bytes = 1 lsl 20;
          deadline_ns = None }
      inner
  in
  let t = Oncrpc.Doorbell.transport bell in
  let record = encode_call ~xid:1l "x" in
  for _ = 1 to 4 do
    Oncrpc.Record.writev t (Xdr.Iovec.of_string record)
  done;
  Alcotest.(check int) "one ring" 1 (List.length (batches ()));
  Alcotest.(check int) "batch drained" 0 (Oncrpc.Doorbell.pending_records bell);
  let s = Oncrpc.Doorbell.stats bell in
  Alcotest.(check int) "count-triggered" 1 s.Oncrpc.Doorbell.flush_records;
  Alcotest.(check int) "records staged" 4 s.batched;
  Alcotest.(check int) "max batch" 4 s.max_batch;
  (* the single submit carries all four records back-to-back *)
  let wire = Oncrpc.Record.to_wire record in
  Alcotest.(check string) "wire bytes preserved"
    (wire ^ wire ^ wire ^ wire)
    (List.hd (batches ()))

let test_doorbell_bytes_and_recv_flush () =
  let inner, batches = batch_sink () in
  let bell =
    Oncrpc.Doorbell.wrap
      ~policy:
        { Oncrpc.Doorbell.max_records = 1000; max_bytes = 100;
          deadline_ns = None }
      inner
  in
  let t = Oncrpc.Doorbell.transport bell in
  let record = encode_call ~xid:2l (String.make 16 'y') in
  Oncrpc.Record.writev t (Xdr.Iovec.of_string record);
  Oncrpc.Record.writev t (Xdr.Iovec.of_string record);
  Alcotest.(check bool) "byte threshold rang" true (List.length (batches ()) >= 1);
  Alcotest.(check int) "byte-triggered" 1
    (Oncrpc.Doorbell.stats bell).Oncrpc.Doorbell.flush_bytes;
  (* a recv must never block on an unsubmitted call *)
  Oncrpc.Record.writev t (Xdr.Iovec.of_string record);
  ignore (t.Oncrpc.Transport.recv (Bytes.create 4) 0 4 : int);
  Alcotest.(check int) "pending flushed before recv" 0
    (Oncrpc.Doorbell.pending_records bell);
  Alcotest.(check int) "recv-triggered" 1
    (Oncrpc.Doorbell.stats bell).Oncrpc.Doorbell.flush_recv

let test_doorbell_deadline () =
  let engine = Engine.create () in
  let inner, batches = batch_sink () in
  let bell =
    Oncrpc.Doorbell.wrap
      ~policy:
        { Oncrpc.Doorbell.max_records = 32; max_bytes = 1 lsl 20;
          deadline_ns = Some (Time.us 50) }
      ~schedule:(fun delay k -> Engine.schedule_after engine delay k)
      inner
  in
  let t = Oncrpc.Doorbell.transport bell in
  let record = encode_call ~xid:3l "z" in
  Oncrpc.Record.writev t (Xdr.Iovec.of_string record);
  Alcotest.(check int) "still staged" 1 (Oncrpc.Doorbell.pending_records bell);
  Engine.run_until engine (Time.us 100);
  Alcotest.(check int) "deadline rang" 1 (List.length (batches ()));
  Alcotest.(check int) "deadline-triggered" 1
    (Oncrpc.Doorbell.stats bell).Oncrpc.Doorbell.flush_deadline;
  (* a batch flushed by other means must invalidate its armed deadline *)
  Oncrpc.Record.writev t (Xdr.Iovec.of_string record);
  Oncrpc.Doorbell.flush bell;
  Engine.run_until engine (Time.ms 1);
  Alcotest.(check int) "stale deadline is a no-op" 1
    (Oncrpc.Doorbell.stats bell).Oncrpc.Doorbell.flush_deadline

(* --- batching x retransmission (the at-most-once interaction) --- *)

let test_batch_drop_retry () =
  (* client stages calls through a doorbell whose inner transport drops
     the first ring wholesale (one lost batch = window-many lost calls);
     the client retransmits the same xids in a fresh batch, and a
     straggler retransmit after success is answered from the dup cache *)
  let srv = make_echo_server () in
  let replies = Buffer.create 256 in
  let drop_next = ref 1 in
  let deliver batch =
    if !drop_next > 0 then decr drop_next
    else begin
      (* server side: frame the batch back into records, dispatch each *)
      let src, sink = Oncrpc.Transport.pipe () in
      Oncrpc.Transport.send_string src batch;
      src.Oncrpc.Transport.close ();
      let rec pump () =
        match Oncrpc.Record.read sink with
        | record ->
            (match Oncrpc.Server.dispatch_opt ~ident:"t0" srv record with
            | Some reply ->
                Buffer.add_string replies (Oncrpc.Record.to_wire reply)
            | None -> ());
            pump ()
        | exception (End_of_file | Oncrpc.Transport.Closed) -> ()
      in
      pump ()
    end
  in
  let pos = ref 0 in
  let inner =
    Oncrpc.Transport.make
      ~sendv:(fun iov -> deliver (Xdr.Iovec.concat iov))
      ~send:(fun b off len -> deliver (Bytes.sub_string b off len))
      ~recv:(fun b off len ->
        let avail = Buffer.length replies - !pos in
        let n = min len avail in
        Buffer.blit replies !pos b off n;
        pos := !pos + n;
        n)
      ~close:(fun () -> ())
      ()
  in
  let bell =
    Oncrpc.Doorbell.wrap
      ~policy:
        { Oncrpc.Doorbell.max_records = 4; max_bytes = 1 lsl 20;
          deadline_ns = None }
      inner
  in
  let t = Oncrpc.Doorbell.transport bell in
  let send_window () =
    for xid = 1 to 4 do
      Oncrpc.Record.writev t
        (Xdr.Iovec.of_string
           (encode_call ~xid:(Int32.of_int xid) (Printf.sprintf "m%d" xid)))
    done
  in
  send_window ();
  Alcotest.(check int) "first batch lost" 0 (Buffer.length replies);
  (* RPC-level retry: same xids, fresh batch *)
  send_window ();
  let got = ref [] in
  for _ = 1 to 4 do
    let reply = Oncrpc.Record.read t in
    let m = Oncrpc.Message.decode (Xdr.Decode.of_string reply) in
    got := m.Oncrpc.Message.xid :: !got
  done;
  Alcotest.(check (list int32)) "all four answered, in xid order"
    [ 1l; 2l; 3l; 4l ] (List.rev !got);
  Alcotest.(check int) "executed once each" 0 (Oncrpc.Server.dup_hits srv);
  (* a straggler retransmit of xid 1 after success: dup-cache hit, and
     the cached reply is byte-identical to the original *)
  let first_reply = ref "" in
  (match
     Oncrpc.Server.dispatch_opt ~ident:"t0" srv (encode_call ~xid:1l "m1")
   with
  | Some r -> first_reply := r
  | None -> Alcotest.fail "expected a cached reply");
  Alcotest.(check int) "dup cache hit" 1 (Oncrpc.Server.dup_hits srv);
  let fresh = Oncrpc.Server.dispatch ~ident:"t0" srv (encode_call ~xid:9l "m1") in
  Alcotest.(check int) "cached reply same length as fresh" (String.length fresh)
    (String.length !first_reply)

(* --- header-skip dispatch fast path --- *)

let preparsed_of record =
  match Rpcdev.parse_call_header record with
  | Ok p -> p
  | Error r -> Alcotest.failf "parse: %s" (Rpcdev.reject_to_string r)

let dispatch_pre ?ident srv record =
  let p = preparsed_of record in
  Oncrpc.Server.dispatch_preparsed ?ident srv ~xid:p.Rpcdev.xid
    ~prog:p.prog ~vers:p.vers ~proc:p.proc ~body_off:p.body_off record

let test_dispatch_preparsed_parity () =
  let srv_a = make_echo_server () and srv_b = make_echo_server () in
  let check_parity name record =
    let a = Oncrpc.Server.dispatch_opt ~ident:"t0" srv_a record in
    let b = dispatch_pre ~ident:"t0" srv_b record in
    Alcotest.(check (option string)) name a b
  in
  check_parity "echo reply bytes" (encode_call ~xid:1l "hello");
  check_parity "unknown proc" (encode_call ~xid:2l ~proc:99 "x");
  check_parity "unknown prog" (encode_call ~xid:3l ~prog:0x9999 "x");
  check_parity "version mismatch" (encode_call ~xid:4l ~vers:42 "x");
  (* duplicate xid: both paths answer the second from the cache *)
  check_parity "dup xid" (encode_call ~xid:1l "hello");
  Alcotest.(check int) "dup hit via fast path" 1 (Oncrpc.Server.dup_hits srv_b);
  (* distinct idents never share dup-cache entries *)
  let r = dispatch_pre ~ident:"t1" srv_b (encode_call ~xid:1l "hello") in
  Alcotest.(check bool) "other tenant dispatched fresh" true (r <> None);
  Alcotest.(check int) "no cross-tenant dup hit" 1
    (Oncrpc.Server.dup_hits srv_b)

let test_dispatch_preparsed_oneway_and_auth () =
  let srv = make_echo_server () in
  Oncrpc.Server.set_oneway srv ~prog:Unikernel.Rpcbench.echo_prog
    ~vers:Unikernel.Rpcbench.echo_vers [ Unikernel.Rpcbench.echo_proc ];
  Alcotest.(check (option string)) "oneway produces no reply" None
    (dispatch_pre srv (encode_call ~xid:5l "fire-and-forget"));
  (* with an auth hook installed the fast path must fall back to the
     full software decode (the hook needs the credential bytes) *)
  let srv = make_echo_server () in
  let checked = ref 0 in
  Oncrpc.Server.set_auth_check srv (fun _ ->
      incr checked;
      None);
  let reply = dispatch_pre ~ident:"t0" srv (encode_call ~xid:6l "authed") in
  Alcotest.(check bool) "dispatched" true (reply <> None);
  Alcotest.(check int) "auth hook consulted" 1 !checked;
  (* body_off out of range: typed protocol error, not a crash (fresh
     server: an auth hook would route through the software fallback,
     which never looks at body_off) *)
  let srv = make_echo_server () in
  let record = encode_call ~xid:7l "x" in
  match
    Oncrpc.Server.dispatch_preparsed ~ident:"t0" srv ~xid:7l
      ~prog:Unikernel.Rpcbench.echo_prog ~vers:Unikernel.Rpcbench.echo_vers
      ~proc:Unikernel.Rpcbench.echo_proc
      ~body_off:(String.length record + 64)
      record
  with
  | exception Oncrpc.Server.Protocol_error _ -> ()
  | _ -> Alcotest.fail "expected Protocol_error on bad body_off"

(* --- cricket wiring --- *)

let test_cricket_preparsed_for () =
  let engine = Engine.create () in
  let server =
    Cricket.Server.create ~memory_capacity:(1 lsl 22)
      ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  let record =
    (* get_device_count through the generated skeleton: proc 1 of the
       cricket program *)
    let enc = Xdr.Encode.create () in
    Oncrpc.Message.encode enc
      (Oncrpc.Message.call ~xid:11l ~prog:Rpcl.Specs.cricket_program_number
         ~vers:Rpcl.Specs.cricket_version_number ~proc:1 ());
    Xdr.Encode.to_string enc
  in
  let p = preparsed_of record in
  let via_pre =
    Cricket.Server.dispatch_preparsed_for server ~tenant:"uk0"
      ~xid:p.Rpcdev.xid ~prog:p.prog ~vers:p.vers ~proc:p.proc
      ~body_off:p.body_off record
  in
  let via_sw =
    let record' = Bytes.of_string record in
    Bytes.set_int32_be record' 0 12l;
    Cricket.Server.dispatch_for server ~tenant:"uk0"
      (Bytes.to_string record')
  in
  (* same procedure, same result payload; only the echoed xid differs *)
  Alcotest.(check int) "same reply length" (String.length via_sw)
    (String.length via_pre);
  Alcotest.(check (list (pair string int)))
    "both calls accounted to the tenant" [ ("uk0", 2) ]
    (Cricket.Server.tenant_calls server);
  (* admission rejection answers straight from the device-parsed xid *)
  Cricket.Server.set_tenant_hooks server
    {
      Cricket.Server.admit = (fun ~tenant:_ -> Some `Over_quota);
      malloc_allowed = (fun ~tenant:_ ~size:_ -> true);
      note_malloc = (fun ~tenant:_ ~ptr:_ ~size:_ -> ());
      note_free = (fun ~tenant:_ ~ptr:_ -> ());
      stream_allowed = (fun ~tenant:_ -> true);
      note_stream_create = (fun ~tenant:_ ~handle:_ -> ());
      note_stream_destroy = (fun ~tenant:_ ~handle:_ -> ());
    };
  let denied =
    Cricket.Server.dispatch_preparsed_for server ~tenant:"uk0"
      ~xid:p.Rpcdev.xid ~prog:p.prog ~vers:p.vers ~proc:p.proc
      ~body_off:p.body_off record
  in
  match Oncrpc.Message.decode (Xdr.Decode.of_string denied) with
  | {
      Oncrpc.Message.xid = 11l;
      body = Reply (Denied (Auth_error stat));
    } ->
      Alcotest.(check bool) "typed rejection survives the wire" true
        (Cricket.Server.reject_of_auth_stat stat = Some `Over_quota)
  | _ -> Alcotest.fail "expected an auth-denied reply"

(* --- the rpcacc bench: acceptance numbers --- *)

let run_cell profile mode =
  Unikernel.Rpcbench.run ~calls:384 ~window:32 ~profile ~mode ()

let test_bench_speedup_and_parity () =
  let profile = ("native", native_profile) in
  let sw = run_cell profile Unikernel.Rpcbench.Software in
  let parse = run_cell profile Unikernel.Rpcbench.Device_parse in
  let full = run_cell profile Unikernel.Rpcbench.Device_full in
  (* the headline criterion: >= 3x on the native profile *)
  let speedup = full.Unikernel.Rpcbench.calls_per_sec /. sw.calls_per_sec in
  if speedup < 3.0 then
    Alcotest.failf "device-parse+doorbell speedup %.2fx < 3x" speedup;
  Alcotest.(check bool) "device parse alone already helps" true
    (parse.Unikernel.Rpcbench.calls_per_sec > sw.calls_per_sec);
  (* the engine must never change reply bytes, only their cost *)
  Alcotest.(check int64) "sw/parse reply streams identical"
    sw.Unikernel.Rpcbench.reply_digest parse.reply_digest;
  Alcotest.(check int64) "sw/full reply streams identical"
    sw.Unikernel.Rpcbench.reply_digest full.reply_digest;
  (* ablation bookkeeping: everything parsed and steered on native *)
  (match full.Unikernel.Rpcbench.rpcdev with
  | Some s ->
      Alcotest.(check int) "every call device-parsed" 384 s.Rpcdev.parse_hits;
      Alcotest.(check int) "every call steered" 384 s.steered
  | None -> Alcotest.fail "expected rpcdev stats");
  match full.Unikernel.Rpcbench.doorbell with
  | Some s ->
      Alcotest.(check bool) "doorbell actually batched" true
        (s.Oncrpc.Doorbell.flushes > 0 && s.max_batch > 1)
  | None -> Alcotest.fail "expected doorbell stats"

let test_bench_profile_ordering () =
  (* Figure 7 ordering must hold in every mode: native > linux-vm >
     rustyhermit > unikraft *)
  List.iter
    (fun mode ->
      let rates =
        List.map
          (fun p -> (run_cell p mode).Unikernel.Rpcbench.calls_per_sec)
          (Unikernel.Rpcbench.profiles ())
      in
      match rates with
      | [ native; vm; hermit; unikraft ] ->
          if not (native > vm && vm > hermit && hermit > unikraft) then
            Alcotest.failf "ordering violated in %s: %.0f %.0f %.0f %.0f"
              (Unikernel.Rpcbench.mode_name mode)
              native vm hermit unikraft
      | _ -> Alcotest.fail "expected four profiles")
    Unikernel.Rpcbench.modes;
  (* unikraft's driver shim acks no rpc bits: offering the full engine
     must change nothing *)
  let u =
    run_cell
      ("unikraft", Unikernel.Config.unikraft.Unikernel.Config.profile)
      Unikernel.Rpcbench.Device_full
  in
  Alcotest.(check bool) "unikraft negotiates nothing" false
    (O.any_rpc u.Unikernel.Rpcbench.negotiated)

(* --- observability: device spans stay out of net.wait --- *)

let test_trace_nesting () =
  let obs = Obs.Recorder.create () in
  Obs.Recorder.set_enabled obs true;
  let r =
    Unikernel.Rpcbench.run ~calls:64 ~window:16 ~obs
      ~profile:("native", native_profile) ~mode:Unikernel.Rpcbench.Device_full
      ()
  in
  ignore (r : Unikernel.Rpcbench.result);
  let spans = Obs.Recorder.spans obs in
  Alcotest.(check bool) "trace non-empty" true (spans <> []);
  (match Obs.Trace_export.check_nesting spans with
  | Ok () -> ()
  | Error e -> Alcotest.failf "nesting violated: %s" e);
  (* rpcdev device spans are roots: they can never be attributed to (and
     so double-counted against) an enclosing net.wait span *)
  List.iter
    (fun (s : Obs.Recorder.span_info) ->
      if s.layer = "rpcdev" && s.parent <> -1 then
        Alcotest.failf "rpcdev span %S nested under span %d" s.name s.parent)
    spans;
  Alcotest.(check bool) "device work traced" true
    (List.exists (fun (s : Obs.Recorder.span_info) -> s.layer = "rpcdev") spans);
  Alcotest.(check bool) "doorbell flushes counted" true
    (Obs.Recorder.counter obs "rpc.doorbell_flush" > 0);
  Alcotest.(check bool) "parse hits counted" true
    (Obs.Recorder.counter obs "rpcdev.parse_hit" > 0);
  match Obs.Recorder.histogram obs "rpc.batch_occupancy" with
  | Some _ -> ()
  | None -> Alcotest.fail "expected batch-occupancy histogram"

(* --- the per-record path: parser, steering and allocation --- *)

(* [Rpcdev.parse_call_header] as it was written before it lost its
   closures, kept as the reference: same checks, same order, same
   results and error payloads. *)
let reference_parse_call_header s : (Rpcdev.parsed, Rpcdev.reject) result =
  let len = String.length s in
  let u32 off = Int32.to_int (String.get_int32_be s off) land 0xFFFFFFFF in
  let need n = if len < n then Error (Rpcdev.Truncated len) else Ok () in
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  let* () = need 8 in
  let xid = String.get_int32_be s 0 in
  let mtype = String.get_int32_be s 4 in
  if mtype <> 0l then Error (Rpcdev.Not_a_call mtype)
  else
    let* () = need 12 in
    let rpcvers = u32 8 in
    if rpcvers <> 2 then Error (Rpcdev.Bad_rpc_version rpcvers)
    else
      let* () = need 24 in
      let prog = u32 12 and vers = u32 16 and proc = u32 20 in
      let auth which off =
        let* () = need (off + 8) in
        let blen = u32 (off + 4) in
        if blen > 400 then
          Error (Rpcdev.Bad_auth (Printf.sprintf "%s body %d > %d" which blen 400))
        else
          let padded = (blen + 3) land lnot 3 in
          let* () = need (off + 8 + padded) in
          let rec pad_ok i =
            i >= padded || (s.[off + 8 + i] = '\000' && pad_ok (i + 1))
          in
          if not (pad_ok blen) then
            Error (Rpcdev.Bad_auth (which ^ " has nonzero pad bytes"))
          else Ok (off + 8 + padded)
      in
      let* off = auth "cred" 24 in
      let* body_off = auth "verf" off in
      Ok { Rpcdev.xid; prog; vers; proc; body_off }

(* u32 words that sit on the parser's boundaries *)
let gen_edge_word =
  QCheck.Gen.(
    oneof
      [ oneofl [ 0; 1; 2; 3; 4; 5; 399; 400; 401; 0x7FFFFFFF; 0x80000000;
                 0xFFFFFFFF ];
        map (fun x -> x land 0xFFFFFFFF) int ])

(* A call record, then some of it overwritten: whole header words with
   edge values (msg_type, rpcvers, the auth lengths), or single bytes
   (the pads). Or words alone. *)
let gen_header =
  QCheck.Gen.(
    let patched =
      map2
        (fun record patches ->
          let b = Bytes.of_string record in
          List.iter
            (fun (word, pos, v, byte) ->
              if word then begin
                let pos = pos land lnot 3 in
                if pos + 4 <= Bytes.length b then
                  Bytes.set_int32_be b pos (Int32.of_int v)
              end
              else if Bytes.length b > 0 then
                Bytes.set b (pos mod Bytes.length b) (Char.chr byte))
            patches;
          Bytes.unsafe_to_string b)
        gen_call_record
        (list_size (int_range 0 3)
           (quad bool (int_range 0 60) gen_edge_word (int_bound 255)))
    in
    let words =
      map
        (fun ws ->
          let b = Bytes.create (4 * List.length ws) in
          List.iteri (fun i w -> Bytes.set_int32_be b (4 * i) (Int32.of_int w)) ws;
          Bytes.unsafe_to_string b)
        (list_size (int_range 0 20) gen_edge_word)
    in
    frequency [ (3, patched); (1, words) ])

let prop_parse_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"device parse == reference parser, every truncation"
    (QCheck.make ~print:String.escaped gen_header)
    (fun header ->
      let ok = ref true in
      for cut = 0 to min (String.length header) 1000 do
        let s = String.sub header 0 cut in
        if Rpcdev.parse_call_header s <> reference_parse_call_header s then
          ok := false
      done;
      !ok)

(* Steering against a plain model: one FIFO per (proc, ident) key, keys
   in creation order, drained round-robin; a call the device does not
   steer goes to (-1, ident). *)
type steer_op = Call of int * bool (* proc, malformed *) | Ident of string | Drain

let gen_steer =
  QCheck.Gen.(
    pair (int_bound 2)
      (list_size (int_range 0 80)
         (frequency
            [ (8, map2 (fun p bad -> Call (p, bad)) (int_bound 3)
                    (frequency [ (5, return false); (1, return true) ]));
              (2, map (fun i -> Ident i) (oneofl [ ""; "a"; "b"; "c" ]));
              (1, return Drain) ])))

let print_steer (features, ops) =
  Printf.sprintf "features=%d [%s]" features
    (String.concat "; "
       (List.map
          (function
            | Call (p, bad) -> Printf.sprintf "call %d%s" p (if bad then "!" else "")
            | Ident i -> Printf.sprintf "ident %S" i
            | Drain -> "drain")
          ops))

let prop_steering_matches_model =
  QCheck.Test.make ~count:300 ~name:"rpcdev steering == Hashtbl model"
    (QCheck.make ~print:print_steer gen_steer)
    (fun (features, ops) ->
      let features =
        match features with
        | 0 -> O.rpc_all O.none
        | 1 -> { O.none with O.rpc_framing = true; rpc_parse = true }
        | _ -> O.none
      in
      let steer = (Rpcdev.effective features).O.rpc_steer in
      let dev =
        Rpcdev.create ~engine:(Engine.create ()) ~profile:native_profile
          ~features ()
      in
      let queues = Hashtbl.create 8 and order = ref [] in
      let depth = ref 0 and steered = ref 0 and ident = ref "" in
      let model_drain () =
        let out = ref [] and progress = ref true in
        while !progress do
          progress := false;
          List.iter
            (fun key ->
              let q = Hashtbl.find queues key in
              if not (Queue.is_empty q) then begin
                out := (Queue.pop q, snd key) :: !out;
                progress := true
              end)
            (List.rev !order)
        done;
        List.rev !out
      in
      let device_drain () =
        List.map
          (fun e ->
            (Int32.to_int (String.get_int32_be e.Rpcdev.record 0), e.Rpcdev.ident))
          (Rpcdev.drain dev)
      in
      let xid = ref 0 and same = ref true in
      List.iter
        (function
          | Call (proc, bad) ->
              incr xid;
              let record = Bytes.of_string (encode_call ~proc ~xid:(Int32.of_int !xid) "x") in
              if bad then Bytes.set_int32_be record 8 3l;
              feed_record dev (Bytes.unsafe_to_string record);
              let key = if steer && not bad then (proc, !ident) else (-1, !ident) in
              if steer && not bad then incr steered;
              let q =
                match Hashtbl.find_opt queues key with
                | Some q -> q
                | None ->
                    let q = Queue.create () in
                    Hashtbl.add queues key q;
                    order := key :: !order;
                    q
              in
              Queue.push !xid q;
              depth := max !depth (Queue.length q)
          | Ident i ->
              ident := i;
              Rpcdev.set_ident dev i
          | Drain -> if device_drain () <> model_drain () then same := false)
        ops;
      let s = Rpcdev.stats dev in
      !same
      && device_drain () = model_drain ()
      && s.Rpcdev.queues = List.length !order
      && s.max_queue_depth = !depth
      && s.steered = !steered)

(* Each record through a Device_full engine allocates what it delivers:
   its string, its parse descriptor and its queue entry. Counted in minor
   words per record over feed and drain, after a warm-up batch has
   filled the pool and created the queue. *)
let test_rpcdev_record_allocation () =
  let pool = Oncrpc.Pool.create () in
  let dev =
    Rpcdev.create ~engine:(Engine.create ()) ~profile:native_profile
      ~features:(Unikernel.Rpcbench.device_of_mode Unikernel.Rpcbench.Device_full)
      ~alloc:(Oncrpc.Pool.acquire pool) ~free:(Oncrpc.Pool.release pool)
      ~ident:"tenant-0" ()
  in
  let n = 256 in
  let wire =
    Bytes.of_string
      (String.concat ""
         (List.init n (fun i ->
              Oncrpc.Record.to_wire
                (encode_call ~xid:(Int32.of_int i) (String.make 64 'a')))))
  in
  Rpcdev.feed dev wire;
  ignore (Rpcdev.drain dev);
  let w0 = Gc.minor_words () in
  Rpcdev.feed dev wire;
  let entries = Rpcdev.drain dev in
  let per_record = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every record delivered" n (List.length entries);
  if per_record > 100. then
    Alcotest.failf "%.1f minor words per record > 100" per_record

let suite =
  [
    Alcotest.test_case "parse: typed rejects" `Quick test_parse_rejects;
    Alcotest.test_case "rpcdev: steering queues" `Quick test_rpcdev_steering;
    Alcotest.test_case "rpcdev: parse punt" `Quick test_rpcdev_parse_punt;
    Alcotest.test_case "rpcdev: software mode" `Quick test_rpcdev_software_mode;
    Alcotest.test_case "rpcdev: feature clamps" `Quick test_effective_clamps;
    Alcotest.test_case "pool: non-pow2 max size" `Quick test_pool_non_pow2_max;
    Alcotest.test_case "pool: double release" `Quick test_pool_double_release;
    Alcotest.test_case "pool: foreign release" `Quick test_pool_foreign_release;
    Alcotest.test_case "doorbell: count flush" `Quick test_doorbell_count_flush;
    Alcotest.test_case "doorbell: bytes + recv flush" `Quick
      test_doorbell_bytes_and_recv_flush;
    Alcotest.test_case "doorbell: deadline flush" `Quick test_doorbell_deadline;
    Alcotest.test_case "doorbell: dropped batch retry" `Quick
      test_batch_drop_retry;
    Alcotest.test_case "dispatch_preparsed: parity" `Quick
      test_dispatch_preparsed_parity;
    Alcotest.test_case "dispatch_preparsed: oneway + auth" `Quick
      test_dispatch_preparsed_oneway_and_auth;
    Alcotest.test_case "cricket: preparsed tenant dispatch" `Quick
      test_cricket_preparsed_for;
    Alcotest.test_case "bench: speedup + reply parity" `Quick
      test_bench_speedup_and_parity;
    Alcotest.test_case "bench: Figure 7 ordering" `Quick
      test_bench_profile_ordering;
    Alcotest.test_case "obs: trace nesting" `Quick test_trace_nesting;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ parse_equiv_valid; parse_truncated; parse_equiv_corrupt ]
  @ [
      QCheck_alcotest.to_alcotest prop_parse_matches_reference;
      QCheck_alcotest.to_alcotest prop_steering_matches_model;
      Alcotest.test_case "rpcdev: allocation per record" `Quick
        test_rpcdev_record_allocation;
    ]
