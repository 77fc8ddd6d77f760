(* Unit, integration and property tests for the ONC RPC (RFC 5531) layer:
   record marking (incl. multi-fragment reassembly), message codecs, auth,
   client/server dispatch over in-memory and real TCP transports, and the
   portmapper. *)

module E = Xdr.Encode
module D = Xdr.Decode

let check = Alcotest.check

(* --- record marking --- *)

let test_header_roundtrip () =
  List.iter
    (fun (last, len) ->
      let h = Oncrpc.Record.encode_header ~last len in
      check Alcotest.int "header size" 4 (String.length h);
      let last', len' = Oncrpc.Record.decode_header h in
      check Alcotest.bool "last" last last';
      check Alcotest.int "len" len len')
    [ (true, 0); (false, 1); (true, 0x7fffffff); (false, 12345) ]

let test_single_fragment_wire () =
  let wire = Oncrpc.Record.to_wire "abcd" in
  check Alcotest.string "wire" "\x80\x00\x00\x04abcd" wire

let test_multi_fragment_wire () =
  let wire = Oncrpc.Record.to_wire ~fragment_size:3 "abcdefgh" in
  (* 3 + 3 + 2 bytes: two non-last fragments then a last one *)
  check Alcotest.string "wire"
    "\x00\x00\x00\x03abc\x00\x00\x00\x03def\x80\x00\x00\x02gh" wire

let test_empty_record () =
  let wire = Oncrpc.Record.to_wire "" in
  check Alcotest.string "empty" "\x80\x00\x00\x00" wire

let pipe_roundtrip ?fragment_size msg =
  let a, b = Oncrpc.Transport.pipe () in
  Oncrpc.Record.write ?fragment_size a msg;
  let got = Oncrpc.Record.read b in
  a.Oncrpc.Transport.close ();
  got

let test_fragment_reassembly () =
  let msg = String.init 10_000 (fun i -> Char.chr (i land 0xff)) in
  List.iter
    (fun fragment_size ->
      check Alcotest.string
        (Printf.sprintf "frag=%d" fragment_size)
        msg
        (pipe_roundtrip ~fragment_size msg))
    [ 1; 7; 64; 4096; 10_000; 100_000 ]

let test_max_record_size () =
  let a, b = Oncrpc.Transport.pipe () in
  Oncrpc.Record.write ~fragment_size:8 a (String.make 100 'x');
  (match Oncrpc.Record.read ~max_record_size:50 b with
  | _ -> Alcotest.fail "expected Oversized"
  | exception Oncrpc.Record.Oversized { claimed; limit } ->
      check Alcotest.int "limit echoed" 50 limit;
      check Alcotest.bool "claimed past limit" true (claimed > limit));
  a.Oncrpc.Transport.close ()

let test_read_opt_clean_eof () =
  let a, b = Oncrpc.Transport.pipe () in
  a.Oncrpc.Transport.close ();
  check Alcotest.bool "eof" true (Oncrpc.Record.read_opt b = None)

let prop_record_roundtrip =
  QCheck.Test.make ~count:200 ~name:"record marking roundtrip"
    QCheck.(pair (string_of_size (Gen.int_range 0 5000)) (int_range 1 997))
    (fun (msg, fragment_size) -> pipe_roundtrip ~fragment_size msg = msg)

(* --- vectored datapath: writev wire identity, pool, zero copies --- *)

(* A transport that records everything sent through it, plus how many
   gather (sendv) calls and which slices it saw — enough to both compare
   wire bytes against the seed [to_wire] path and to prove the tx path
   stayed zero-copy above the transport. *)
let capture_transport () =
  let out = Buffer.create 256 in
  let sendv_calls = ref 0 in
  let slices = ref [] in
  let t =
    Oncrpc.Transport.make
      ~send:(fun b off len -> Buffer.add_subbytes out b off len)
      ~sendv:(fun iov ->
        incr sendv_calls;
        Xdr.Iovec.iter
          (fun s ->
            slices := s :: !slices;
            Buffer.add_substring out s.Xdr.Iovec.base s.Xdr.Iovec.off
              s.Xdr.Iovec.len)
          iov)
      ~recv:(fun _ _ _ -> 0)
      ~close:(fun () -> ())
      ()
  in
  (t, out, sendv_calls, slices)

let test_writev_wire_identity_cases () =
  List.iter
    (fun (name, fragment_size, msg) ->
      let t, out, _, _ = capture_transport () in
      Oncrpc.Record.writev ~fragment_size t (Xdr.Iovec.of_string msg);
      check Alcotest.string name
        (Oncrpc.Record.to_wire ~fragment_size msg)
        (Buffer.contents out))
    [
      ("empty record", 100, "");
      ("single fragment", 100, "abcd");
      ("exact fragment boundary", 4, "abcdefgh");
      ("multi fragment", 3, "abcdefgh");
      ("one byte fragments", 1, "xyz");
    ]

let prop_writev_wire_identity =
  (* the vectored path must be byte-identical to the seed Buffer-based
     [to_wire] for any payload, any fragment size, and any scatter of the
     payload across slices *)
  QCheck.Test.make ~count:300 ~name:"writev wire bytes identical to to_wire"
    QCheck.(
      triple
        (string_of_size (Gen.int_range 0 5000))
        (int_range 1 997)
        (list_of_size (Gen.int_range 0 6) (int_range 1 500)))
    (fun (msg, fragment_size, cuts) ->
      (* scatter msg into an iovec at the generated cut widths *)
      let iov = ref [] in
      let pos = ref 0 in
      List.iter
        (fun w ->
          let w = min w (String.length msg - !pos) in
          if w > 0 then begin
            iov := Xdr.Iovec.slice ~off:!pos ~len:w msg :: !iov;
            pos := !pos + w
          end)
        cuts;
      if !pos < String.length msg then
        iov :=
          Xdr.Iovec.slice ~off:!pos ~len:(String.length msg - !pos) msg
          :: !iov;
      let iov = List.rev !iov in
      let t, out, _, _ = capture_transport () in
      Oncrpc.Record.writev ~fragment_size t iov;
      Buffer.contents out = Oncrpc.Record.to_wire ~fragment_size msg)

let prop_writev_roundtrip_via_read =
  (* gather-written records must reassemble through the pooled read path *)
  QCheck.Test.make ~count:200 ~name:"writev/read roundtrip"
    QCheck.(pair (string_of_size (Gen.int_range 0 5000)) (int_range 1 997))
    (fun (msg, fragment_size) ->
      let a, b = Oncrpc.Transport.pipe () in
      Oncrpc.Record.writev ~fragment_size a (Xdr.Iovec.of_string msg);
      Oncrpc.Record.read b = msg)

let prop_add_wire_identity =
  QCheck.Test.make ~count:200 ~name:"add_wire appends to_wire"
    QCheck.(
      triple (string_of_size (Gen.int_range 0 3000)) (int_range 1 997)
        (string_of_size (Gen.int_range 0 8)))
    (fun (msg, fragment_size, prefix) ->
      let b = Buffer.create 16 in
      Buffer.add_string b prefix;
      Oncrpc.Record.add_wire ~fragment_size b msg;
      Buffer.contents b = prefix ^ Oncrpc.Record.to_wire ~fragment_size msg)

(* Walking a stream of records finds the messages [to_wire] framed; cut
   anywhere, the stream yields the records before the cut. [read_opt] over
   an in-memory transport stops where the cut one starts; an [Inbox] fed
   the stream up to the cut hands out the same records, and the rest once
   the rest is written. *)
let prop_walk_records =
  QCheck.Test.make ~count:200 ~name:"record walk finds what to_wire framed"
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 5) (string_of_size (Gen.int_range 0 40)))
        (int_range 1 13))
    (fun (msgs, fragment_size) ->
      let wires = List.map (Oncrpc.Record.to_wire ~fragment_size) msgs in
      let stream = String.concat "" wires in
      let ends =
        List.tl
          (List.rev
             (List.fold_left
                (fun acc w -> (List.hd acc + String.length w) :: acc)
                [ 0 ] wires))
      in
      let take inbox =
        let got = ref [] in
        Oncrpc.Record.Inbox.take inbox (fun r -> got := r :: !got);
        List.rev !got
      in
      List.for_all
        (fun cut ->
          let complete = List.filteri (fun i _ -> List.nth ends i <= cut) msgs in
          let resume = List.fold_left (fun r e -> if e <= cut then e else r) 0 ends in
          let inbox = Oncrpc.Record.Inbox.create () in
          Oncrpc.Record.Inbox.add inbox stream 0 cut;
          let before = take inbox in
          Oncrpc.Record.Inbox.add inbox stream cut (String.length stream - cut);
          Record_walk.records (String.sub stream 0 cut) = (complete, resume)
          && before = complete
          && before @ take inbox = msgs)
        (List.init (String.length stream + 1) Fun.id))

let test_walk_oversized () =
  (* each header's claim is checked when it is reached, before the rest
     of the record is in: by a reader with its own limit, and by an inbox
     against the default one *)
  let claim hdr =
    match Record_walk.records ~max_record_size:64 hdr with
    | _ -> Alcotest.fail "expected Oversized"
    | exception Oncrpc.Record.Oversized { claimed; limit } -> (claimed, limit)
  in
  check Alcotest.(pair int int) "one header" (65, 64)
    (claim (Oncrpc.Record.encode_header ~last:true 65));
  check Alcotest.(pair int int) "accumulated" (70, 64)
    (claim
       (Oncrpc.Record.encode_header ~last:false 40 ^ String.make 40 'x'
       ^ Oncrpc.Record.encode_header ~last:true 30));
  check Alcotest.(pair (list string) int) "at the limit, tail to come" ([], 0)
    (Record_walk.records ~max_record_size:64
       (Oncrpc.Record.encode_header ~last:true 64 ^ "abc"));
  let limit = Oncrpc.Record.default_max_record_size in
  let inbox_claim wire =
    let inbox = Oncrpc.Record.Inbox.create () in
    Oncrpc.Record.Inbox.add inbox wire 0 (String.length wire);
    match Oncrpc.Record.Inbox.take inbox ignore with
    | () -> Alcotest.fail "expected Oversized"
    | exception Oncrpc.Record.Oversized { claimed; limit } -> (claimed, limit)
  in
  check Alcotest.(pair int int) "inbox: one header" (limit + 1, limit)
    (inbox_claim (Oncrpc.Record.encode_header ~last:true (limit + 1)));
  check Alcotest.(pair int int) "inbox: accumulated" (limit + 30, limit)
    (inbox_claim
       (Oncrpc.Record.encode_header ~last:false 40 ^ String.make 40 'x'
       ^ Oncrpc.Record.encode_header ~last:true (limit - 10)))

let test_writev_zero_copy_tx () =
  (* A large payload encoded as RPC arguments must reach the transport as
     a view of the caller's buffer: exactly one gather call, and one of
     its slices physically aliases the payload. That slice identity is the
     proof the XDR and record layers performed zero payload copies — the
     transport's own staging copy is the single remaining one. *)
  let payload = Bytes.init 262_144 (fun i -> Char.chr (i land 0xff)) in
  let enc = E.create () in
  E.int enc 42;
  E.opaque enc payload;
  let t, out, sendv_calls, slices = capture_transport () in
  Oncrpc.Record.writev t (Xdr.Encode.to_iovec enc);
  check Alcotest.int "one gather call" 1 !sendv_calls;
  let aliased =
    List.exists
      (fun s ->
        s.Xdr.Iovec.base == Bytes.unsafe_to_string payload
        && s.Xdr.Iovec.len = Bytes.length payload)
      !slices
  in
  check Alcotest.bool "payload slice aliases caller buffer" true aliased;
  (* and the wire image is still the classic format *)
  let dec =
    D.of_string
      (String.sub (Buffer.contents out) 4 (Buffer.length out - 4))
  in
  check Alcotest.int "int field" 42 (D.int dec);
  check Alcotest.bool "payload intact" true (D.opaque dec = payload)

let test_pool_reuse_after_release () =
  let pool = Oncrpc.Pool.create () in
  let b1 = Oncrpc.Pool.acquire pool 5000 in
  check Alcotest.int "rounded to power of two" 8192 (Bytes.length b1);
  Oncrpc.Pool.release pool b1;
  let b2 = Oncrpc.Pool.acquire pool 8000 in
  check Alcotest.bool "same buffer physically reused" true (b1 == b2);
  let s = Oncrpc.Pool.stats pool in
  check Alcotest.int "one hit" 1 s.Oncrpc.Pool.hits;
  check Alcotest.int "one miss" 1 s.Oncrpc.Pool.misses

let test_pool_double_release_safe () =
  let pool = Oncrpc.Pool.create () in
  let b = Oncrpc.Pool.acquire pool 4096 in
  Oncrpc.Pool.release pool b;
  Oncrpc.Pool.release pool b;
  (* the second release must be dropped: acquiring twice must never yield
     the same buffer twice (which would corrupt concurrent reads) *)
  let c1 = Oncrpc.Pool.acquire pool 4096 in
  let c2 = Oncrpc.Pool.acquire pool 4096 in
  check Alcotest.bool "no duplicate handout" false (c1 == c2);
  let s = Oncrpc.Pool.stats pool in
  check Alcotest.int "double release dropped" 1 s.Oncrpc.Pool.drops

let test_pool_oversized_bypass () =
  let pool = Oncrpc.Pool.create ~max_buffer_size:4096 () in
  let b = Oncrpc.Pool.acquire pool 100_000 in
  check Alcotest.bool "oversized request served" true (Bytes.length b >= 100_000);
  Oncrpc.Pool.release pool b;
  let c = Oncrpc.Pool.acquire pool 100_000 in
  check Alcotest.bool "oversized never pooled" false (b == c)

let test_read_recycles_staging_buffers () =
  (* two identical multi-fragment reads through a private pool: the second
     read's staging must come from the free list, not fresh allocation *)
  let pool = Oncrpc.Pool.create ~per_bin:16 () in
  let msg = String.init 10_000 (fun i -> Char.chr (i land 0xff)) in
  let read_once () =
    let a, b = Oncrpc.Transport.pipe () in
    Oncrpc.Record.write ~fragment_size:1024 a msg;
    let got = Oncrpc.Record.read ~pool b in
    a.Oncrpc.Transport.close ();
    check Alcotest.string "payload" msg got
  in
  read_once ();
  let after_first = Oncrpc.Pool.stats pool in
  read_once ();
  let after_second = Oncrpc.Pool.stats pool in
  check Alcotest.bool "second read hit the pool" true
    (after_second.Oncrpc.Pool.hits > after_first.Oncrpc.Pool.hits);
  check Alcotest.int "no new allocations on second read"
    after_first.Oncrpc.Pool.misses after_second.Oncrpc.Pool.misses

(* --- message codec --- *)

let encode_msg m =
  let enc = E.create () in
  Oncrpc.Message.encode enc m;
  E.to_string enc

let decode_msg s =
  let dec = D.of_string s in
  let m = Oncrpc.Message.decode dec in
  D.finish dec;
  m

let test_call_roundtrip () =
  let m =
    Oncrpc.Message.call ~xid:42l ~prog:99999 ~vers:1 ~proc:7 ()
  in
  let m' = decode_msg (encode_msg m) in
  check Alcotest.int32 "xid" 42l m'.Oncrpc.Message.xid;
  match m'.Oncrpc.Message.body with
  | Oncrpc.Message.Call c ->
      check Alcotest.int "prog" 99999 c.Oncrpc.Message.prog;
      check Alcotest.int "vers" 1 c.Oncrpc.Message.vers;
      check Alcotest.int "proc" 7 c.Oncrpc.Message.proc
  | _ -> Alcotest.fail "not a call"

let test_reply_roundtrips () =
  let cases =
    [
      Oncrpc.Message.reply_success ~xid:1l ();
      Oncrpc.Message.reply_error ~xid:2l Oncrpc.Message.Prog_unavail;
      Oncrpc.Message.reply_error ~xid:3l
        (Oncrpc.Message.Prog_mismatch { low = 1; high = 3 });
      Oncrpc.Message.reply_error ~xid:4l Oncrpc.Message.Proc_unavail;
      Oncrpc.Message.reply_error ~xid:5l Oncrpc.Message.Garbage_args;
      Oncrpc.Message.reply_error ~xid:6l Oncrpc.Message.System_err;
      Oncrpc.Message.reply_denied ~xid:7l
        (Oncrpc.Message.Rpc_mismatch { low = 2; high = 2 });
      Oncrpc.Message.reply_denied ~xid:8l
        (Oncrpc.Message.Auth_error Oncrpc.Message.Auth_tooweak);
    ]
  in
  List.iter (fun m -> assert (decode_msg (encode_msg m) = m)) cases

let test_auth_sys_roundtrip () =
  let p =
    {
      Oncrpc.Auth.stamp = 123l;
      machinename = "gpu-node-0";
      uid = 1000;
      gid = 100;
      gids = [ 100; 4; 27 ];
    }
  in
  let t = Oncrpc.Auth.sys p in
  check Alcotest.bool "flavor" true (t.Oncrpc.Auth.flavor = Oncrpc.Auth.Auth_sys);
  let p' = Oncrpc.Auth.sys_params t in
  assert (p = p')

let test_auth_body_limit () =
  match
    Oncrpc.Auth.encode (E.create ())
      { Oncrpc.Auth.flavor = Oncrpc.Auth.Auth_none; body = Bytes.create 401 }
  with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* --- client/server over loopback --- *)

let add_service server =
  Oncrpc.Server.register server ~prog:300000 ~vers:1
    [
      (* proc 1: add two ints *)
      ( 1,
        fun dec enc ->
          let a = D.int dec in
          let b = D.int dec in
          E.int enc (a + b) );
      (* proc 2: echo opaque *)
      (2, fun dec enc -> E.opaque enc (D.opaque dec));
      (* proc 3: raises *)
      (3, fun _ _ -> failwith "boom");
    ]

let make_loopback_client ?(vers = 1) ?(prog = 300000) server =
  let transport =
    Cricket.Local.transport_of_dispatch (Oncrpc.Server.dispatch server)
  in
  Oncrpc.Client.create ~transport ~prog ~vers ()

let test_client_server_basic () =
  let server = Oncrpc.Server.create () in
  add_service server;
  let client = make_loopback_client server in
  let sum =
    Oncrpc.Client.call client ~proc:1
      (fun enc -> E.int enc 2; E.int enc 40)
      D.int
  in
  check Alcotest.int "sum" 42 sum;
  (* NULL procedure is implicit *)
  Oncrpc.Client.call_void client ~proc:0 (fun _ -> ());
  let stats = Oncrpc.Client.stats client in
  check Alcotest.int "calls" 2 stats.Oncrpc.Client.calls;
  check Alcotest.int "args bytes" 8 stats.Oncrpc.Client.bytes_sent

let test_client_server_large_payload () =
  let server = Oncrpc.Server.create () in
  add_service server;
  let client = make_loopback_client server in
  let payload = Bytes.init 3_000_000 (fun i -> Char.chr ((i * 7) land 0xff)) in
  let echoed =
    Oncrpc.Client.call client ~proc:2
      (fun enc -> E.opaque enc payload)
      (fun dec -> D.opaque dec)
  in
  check Alcotest.bool "echo" true (Bytes.equal payload echoed)

let expect_rpc_error expected f =
  match f () with
  | _ -> Alcotest.fail "expected Rpc_error"
  | exception Oncrpc.Client.Rpc_error e ->
      check Alcotest.string "rpc error" expected
        (Oncrpc.Client.error_to_string e)

let test_error_replies () =
  let server = Oncrpc.Server.create () in
  add_service server;
  (* unknown program *)
  let c = make_loopback_client ~prog:42 server in
  expect_rpc_error "call failed: PROG_UNAVAIL" (fun () ->
      Oncrpc.Client.call_void c ~proc:0 (fun _ -> ()));
  (* wrong version *)
  let c = make_loopback_client ~vers:9 server in
  expect_rpc_error "call failed: PROG_MISMATCH(low=1,high=1)" (fun () ->
      Oncrpc.Client.call_void c ~proc:0 (fun _ -> ()));
  (* unknown procedure *)
  let c = make_loopback_client server in
  expect_rpc_error "call failed: PROC_UNAVAIL" (fun () ->
      Oncrpc.Client.call_void c ~proc:999 (fun _ -> ()));
  (* garbage args: proc 1 wants two ints *)
  expect_rpc_error "call failed: GARBAGE_ARGS" (fun () ->
      ignore (Oncrpc.Client.call c ~proc:1 (fun _ -> ()) D.int));
  (* handler exception *)
  expect_rpc_error "call failed: SYSTEM_ERR" (fun () ->
      Oncrpc.Client.call_void c ~proc:3 (fun _ -> ()))

let test_auth_rejection () =
  let server = Oncrpc.Server.create () in
  add_service server;
  Oncrpc.Server.set_auth_check server (fun cred ->
      match cred.Oncrpc.Auth.flavor with
      | Oncrpc.Auth.Auth_sys -> None
      | _ -> Some Oncrpc.Message.Auth_tooweak);
  let c = make_loopback_client server in
  expect_rpc_error "call denied: AUTH_ERROR(5)" (fun () ->
      Oncrpc.Client.call_void c ~proc:0 (fun _ -> ()));
  (* with AUTH_SYS it goes through *)
  let cred =
    Oncrpc.Auth.sys
      { Oncrpc.Auth.stamp = 0l; machinename = "m"; uid = 0; gid = 0; gids = [] }
  in
  let transport =
    Cricket.Local.transport_of_dispatch (Oncrpc.Server.dispatch server)
  in
  let c = Oncrpc.Client.create ~cred ~transport ~prog:300000 ~vers:1 () in
  Oncrpc.Client.call_void c ~proc:0 (fun _ -> ())

let test_observer () =
  let server = Oncrpc.Server.create () in
  add_service server;
  let seen = ref [] in
  Oncrpc.Server.set_observer server (fun ~prog ~vers ~proc ~arg_bytes ->
      seen := (prog, vers, proc, arg_bytes) :: !seen);
  let client = make_loopback_client server in
  ignore
    (Oncrpc.Client.call client ~proc:1
       (fun enc -> E.int enc 1; E.int enc 2)
       D.int);
  check Alcotest.bool "observed" true ([ (300000, 1, 1, 8) ] = !seen)

(* --- client/server over threads + in-memory pipe --- *)

let test_threaded_pipe () =
  let server = Oncrpc.Server.create () in
  add_service server;
  let client_t, server_t = Oncrpc.Transport.pipe () in
  let thread =
    Thread.create (fun () -> Oncrpc.Server.serve_transport server server_t) ()
  in
  let client = Oncrpc.Client.create ~transport:client_t ~prog:300000 ~vers:1 () in
  for i = 1 to 50 do
    let sum =
      Oncrpc.Client.call client ~proc:1
        (fun enc -> E.int enc i; E.int enc i)
        D.int
    in
    check Alcotest.int "sum" (2 * i) sum
  done;
  Oncrpc.Client.close client;
  Thread.join thread

(* --- client/server over real TCP --- *)

let test_tcp_end_to_end () =
  let server = Oncrpc.Server.create () in
  add_service server;
  let tcp = Oncrpc.Server.serve_tcp server ~port:0 () in
  let port = Oncrpc.Server.tcp_port tcp in
  let transport = Oncrpc.Transport.tcp_connect ~host:"127.0.0.1" ~port in
  let client = Oncrpc.Client.create ~transport ~prog:300000 ~vers:1 () in
  let sum =
    Oncrpc.Client.call client ~proc:1
      (fun enc -> E.int enc 20; E.int enc 22)
      D.int
  in
  check Alcotest.int "tcp sum" 42 sum;
  let payload = Bytes.init 100_000 (fun i -> Char.chr (i land 0xff)) in
  let echoed =
    Oncrpc.Client.call client ~proc:2
      (fun enc -> E.opaque enc payload)
      (fun dec -> D.opaque dec)
  in
  check Alcotest.bool "tcp echo" true (Bytes.equal payload echoed);
  Oncrpc.Client.close client;
  Oncrpc.Server.shutdown_tcp tcp

(* The connection threads of [serve_tcp] share one server, and with it
   the lent reply encoder. The handler yields between two result fields,
   so the other connection's calls run inside it; each connection must
   still get exactly its own replies, short and long. *)
let test_tcp_threads_get_own_replies () =
  let server = Oncrpc.Server.create () in
  Oncrpc.Server.register server ~prog:300001 ~vers:1
    [
      ( 1,
        fun dec enc ->
          let tag = D.string dec in
          E.string enc tag;
          Thread.yield ();
          E.string enc (String.uppercase_ascii tag) );
    ];
  let tcp = Oncrpc.Server.serve_tcp server ~port:0 () in
  let port = Oncrpc.Server.tcp_port tcp in
  let wrong = Array.make 2 (-1) in
  let connection k () =
    let transport = Oncrpc.Transport.tcp_connect ~host:"127.0.0.1" ~port in
    let client = Oncrpc.Client.create ~transport ~prog:300001 ~vers:1 () in
    let n = ref 0 in
    for i = 1 to 28 do
      let tag =
        Printf.sprintf "conn%d-%d-%s" k i (String.make (i mod 7 * 300) 'x')
      in
      let echoed, upper =
        Oncrpc.Client.call client ~proc:1
          (fun enc -> E.string enc tag)
          (fun dec ->
            let echoed = D.string dec in
            (echoed, D.string dec))
      in
      if echoed <> tag || upper <> String.uppercase_ascii tag then incr n;
      Thread.yield ()
    done;
    Oncrpc.Client.close client;
    wrong.(k) <- !n
  in
  let threads = List.init 2 (fun k -> Thread.create (connection k) ()) in
  List.iter Thread.join threads;
  Oncrpc.Server.shutdown_tcp tcp;
  check Alcotest.int "connection 0: wrong replies" 0 wrong.(0);
  check Alcotest.int "connection 1: wrong replies" 0 wrong.(1)

(* --- typed errors --- *)

let test_tcp_connect_resolution_error () =
  (* .invalid is reserved (RFC 2606): resolution must fail, and it must
     fail as a typed error, not a stringly Failure *)
  match Oncrpc.Transport.tcp_connect ~host:"no-such-host.invalid" ~port:1 with
  | _ -> Alcotest.fail "expected Connect_error"
  | exception
      Oncrpc.Transport.Connect_error
        (Oncrpc.Transport.Resolution_failed { host; port }) ->
      check Alcotest.string "host" "no-such-host.invalid" host;
      check Alcotest.int "port" 1 port

let test_dispatch_reply_typed_error () =
  let server = Oncrpc.Server.create () in
  add_service server;
  (* a well-formed REPLY where a CALL belongs: typed, with the xid *)
  let reply =
    let enc = E.create () in
    Oncrpc.Message.encode enc
      (Oncrpc.Message.reply_success ~xid:0x1234l ());
    E.to_string enc
  in
  (match Oncrpc.Server.dispatch server reply with
  | _ -> Alcotest.fail "expected Protocol_error"
  | exception
      Oncrpc.Server.Protocol_error (Oncrpc.Server.Unexpected_reply { xid }) ->
      check Alcotest.int32 "xid" 0x1234l xid);
  (* a record too short to even carry an xid: Unparseable_request *)
  match Oncrpc.Server.dispatch server "\x00\x01" with
  | _ -> Alcotest.fail "expected Protocol_error"
  | exception
      Oncrpc.Server.Protocol_error (Oncrpc.Server.Unparseable_request _) ->
      ()

(* --- at-most-once cache keyed by connection/tenant identity --- *)

let test_dup_cache_tenant_ident () =
  (* two tenants reusing the same xid space must not collide in the
     duplicate-request cache: same (xid, prog, vers, proc) from a
     different identity is a fresh call, not a replay *)
  let server = Oncrpc.Server.create () in
  Oncrpc.Server.set_dup_cache server;
  let executions = ref 0 in
  Oncrpc.Server.register server ~prog:300001 ~vers:1
    [ (1, fun dec enc -> incr executions; E.int enc (D.int dec)) ];
  let request =
    let enc = E.create () in
    Oncrpc.Message.encode enc
      (Oncrpc.Message.call ~xid:99l ~prog:300001 ~vers:1 ~proc:1 ());
    E.int enc 5;
    E.to_string enc
  in
  let r1 = Oncrpc.Server.dispatch ~ident:"tenant-a" server request in
  let r2 = Oncrpc.Server.dispatch ~ident:"tenant-a" server request in
  check Alcotest.int "same ident executes once" 1 !executions;
  check Alcotest.string "cached reply replayed byte-identically" r1 r2;
  check Alcotest.int "replay counted as dup hit" 1
    (Oncrpc.Server.dup_hits server);
  let r3 = Oncrpc.Server.dispatch ~ident:"tenant-b" server request in
  check Alcotest.int "distinct ident executes again" 2 !executions;
  check Alcotest.string "and computes the same answer" r1 r3;
  check Alcotest.int "no spurious dup hit across idents" 1
    (Oncrpc.Server.dup_hits server);
  (* the anonymous (no-ident) key space is distinct from any tenant's *)
  let (_ : string) = Oncrpc.Server.dispatch server request in
  check Alcotest.int "anonymous ident distinct from tenants" 3 !executions

(* --- portmapper --- *)

let test_portmap_registry () =
  let pm = Oncrpc.Portmap.create () in
  let m =
    { Oncrpc.Portmap.prog = 99; vers = 1; prot = Oncrpc.Portmap.prot_tcp;
      port = 5000 }
  in
  check Alcotest.bool "set" true (Oncrpc.Portmap.set pm m);
  check Alcotest.bool "set dup" false (Oncrpc.Portmap.set pm m);
  check Alcotest.int "getport" 5000
    (Oncrpc.Portmap.getport pm ~prog:99 ~vers:1 ~prot:Oncrpc.Portmap.prot_tcp);
  check Alcotest.int "getport miss" 0
    (Oncrpc.Portmap.getport pm ~prog:99 ~vers:2 ~prot:Oncrpc.Portmap.prot_tcp);
  check Alcotest.bool "unset" true (Oncrpc.Portmap.unset pm ~prog:99 ~vers:1);
  check Alcotest.bool "unset again" false (Oncrpc.Portmap.unset pm ~prog:99 ~vers:1)

let test_portmap_rpc () =
  let pm = Oncrpc.Portmap.create () in
  ignore
    (Oncrpc.Portmap.set pm
       { Oncrpc.Portmap.prog = 77; vers = 3; prot = Oncrpc.Portmap.prot_tcp;
         port = 1234 });
  let server = Oncrpc.Server.create () in
  Oncrpc.Portmap.attach pm server;
  let client = make_loopback_client ~prog:Oncrpc.Portmap.program ~vers:2 server in
  let port =
    Oncrpc.Portmap.remote_getport client ~prog:77 ~vers:3
      ~prot:Oncrpc.Portmap.prot_tcp
  in
  check Alcotest.int "remote getport" 1234 port

(* --- per-call fast paths against the general codecs --- *)

let test_fast_headers () =
  let bytes f =
    let e = E.create () in
    f e;
    E.to_string e
  in
  List.iter
    (fun (xid, cred) ->
      check Alcotest.string "call header"
        (bytes (fun e ->
             Oncrpc.Message.encode e
               (Oncrpc.Message.call ~cred ~xid:(Int32.of_int xid) ~prog:0x20000001
                  ~vers:1 ~proc:34 ())))
        (bytes (fun e ->
             Oncrpc.Message.encode_call_header e ~xid ~prog:0x20000001 ~vers:1
               ~proc:34 ~cred));
      let call =
        bytes (fun e ->
            Oncrpc.Message.encode_call_header ~verf:cred e ~xid ~prog:0x20000001
              ~vers:1 ~proc:34 ~cred;
            E.int e 7)
      in
      let decoded = Oncrpc.Message.decode (D.of_string call) in
      check Alcotest.bool "verifier written" true
        (decoded
        = Oncrpc.Message.call ~cred ~verf:cred ~xid:(Int32.of_int xid)
            ~prog:0x20000001 ~vers:1 ~proc:34 ());
      List.iter
        (fun auth ->
          let dec = D.of_string call in
          let xid', c = Oncrpc.Message.decode_call ~auth dec in
          check Alcotest.int "call xid" xid xid';
          check Alcotest.bool "call fields" true
            (if auth then Oncrpc.Message.Call c = decoded.Oncrpc.Message.body
             else
               c
               = { Oncrpc.Message.prog = 0x20000001; vers = 1; proc = 34;
                   cred = Oncrpc.Auth.none; verf = Oncrpc.Auth.none });
          check Alcotest.int "at the arguments" 7 (D.int dec))
        [ true; false ];
      let success =
        bytes (fun e ->
            Oncrpc.Message.encode e
              (Oncrpc.Message.reply_success ~xid:(Int32.of_int xid) ()))
      in
      check Alcotest.string "success header" success
        (bytes (fun e -> Oncrpc.Message.encode_success_header e ~xid));
      check Alcotest.int "success header length"
        Oncrpc.Message.success_header_length (String.length success);
      check Alcotest.bool "recognised" true
        (Oncrpc.Message.is_success_reply (success ^ "results") ~xid);
      check Alcotest.bool "other xid" false
        (Oncrpc.Message.is_success_reply success ~xid:((xid + 1) land 0xffffffff)))
    [
      (0, Oncrpc.Auth.none);
      (1, Oncrpc.Auth.none);
      (0x7fffffff, Oncrpc.Auth.none);
      (0x80000000, Oncrpc.Auth.none);
      (0xffffffff, Oncrpc.Auth.none);
      ( 42,
        Oncrpc.Auth.sys
          { Oncrpc.Auth.stamp = 7l; machinename = "node"; uid = 1; gid = 2; gids = [ 3 ] }
      );
    ];
  (* every other reply header needs the full decoder *)
  List.iter
    (fun msg ->
      let s = bytes (fun e -> Oncrpc.Message.encode e msg) in
      check Alcotest.bool "not a bare success" false
        (Oncrpc.Message.is_success_reply (s ^ "\000\000\000\000") ~xid:5))
    [
      Oncrpc.Message.reply_error ~xid:5l Oncrpc.Message.Garbage_args;
      Oncrpc.Message.reply_denied ~xid:5l
        (Oncrpc.Message.Auth_error Oncrpc.Message.Auth_tooweak);
      (* a verifier body of zeros: only its length tells it apart *)
      Oncrpc.Message.reply_success ~verf:(Oncrpc.Auth.sys
          { Oncrpc.Auth.stamp = 0l; machinename = ""; uid = 0; gid = 0; gids = [] })
        ~xid:5l ();
      Oncrpc.Message.call ~xid:5l ~prog:1 ~vers:1 ~proc:1 ();
    ];
  check Alcotest.bool "truncated" false
    (Oncrpc.Message.is_success_reply "\000\000\000\005\000\000\000\001" ~xid:5);
  (* a server's reader refuses anything but a CALL, and fails where the
     full decoder fails *)
  (match
     Oncrpc.Message.decode_call ~auth:false
       (D.of_string (bytes (fun e ->
            Oncrpc.Message.encode e (Oncrpc.Message.reply_success ~xid:5l ()))))
   with
  | _ -> Alcotest.fail "expected Not_a_call"
  | exception Oncrpc.Message.Not_a_call -> ());
  List.iter
    (fun s ->
      let error f =
        match f (D.of_string s) with
        | _ -> "accepted"
        | exception Xdr.Types.Error e -> Xdr.Types.error_to_string e
      in
      List.iter
        (fun auth ->
          check Alcotest.string "same error"
            (error (fun d -> ignore (Oncrpc.Message.decode d)))
            (error (fun d -> ignore (Oncrpc.Message.decode_call ~auth d))))
        [ true; false ])
    [
      "\000\001";
      "\000\000\000\005\000\000\000\000\000\000\000\003";
      (* a credential body past the 400-byte limit *)
      "\000\000\000\005\000\000\000\000\000\000\000\002\000\000\000\001\000\000\000\001\000\000\000\001\000\000\000\001\000\000\001\200";
    ]

(* The old at-most-once cache, kept as the reference the ring must match:
   a Hashtbl from key to reply plus the keys in insertion order, each
   stamped with the number of its store so that it goes [capacity] stores
   later, with the byte bound added: after a store, while the large replies
   (1 KiB and up) hold more than [max_bytes], the oldest large one other
   than the newest goes. Small replies never count against the bound. *)
module Ref_cache = struct
  type key = string * int * int * int * int

  type t = {
    capacity : int;
    max_bytes : int;
    entries : (key, string option) Hashtbl.t;
    mutable order : (int * key) list;  (* oldest first *)
    mutable stores : int;
    mutable bytes : int;
    mutable hits : int;
  }

  let create capacity max_bytes =
    { capacity; max_bytes; entries = Hashtbl.create capacity; order = [];
      stores = 0; bytes = 0; hits = 0 }

  let lookup c key =
    let hit = Hashtbl.find_opt c.entries key in
    (match hit with Some _ -> c.hits <- c.hits + 1 | None -> ());
    hit

  let large_bytes = function
    | Some r when String.length r >= Xdr.Encode.zero_copy_threshold -> String.length r
    | _ -> 0

  let remove c key =
    c.bytes <- c.bytes - large_bytes (Hashtbl.find c.entries key);
    Hashtbl.remove c.entries key;
    c.order <- List.filter (fun (_, k) -> k <> key) c.order

  let store c key reply =
    let n = c.stores in
    c.stores <- n + 1;
    List.iter (fun (m, k) -> if m <= n - c.capacity then remove c k) c.order;
    c.order <- c.order @ [ (n, key) ];
    Hashtbl.replace c.entries key reply;
    c.bytes <- c.bytes + large_bytes reply;
    let rec shed () =
      if c.bytes > c.max_bytes then
        match
          List.find_opt
            (fun (_, k) -> k <> key && large_bytes (Hashtbl.find c.entries k) > 0)
            c.order
        with
        | Some (_, k) -> remove c k; shed ()
        | None -> ()
    in
    shed ()

  let entries c = List.map (fun (_, k) -> (k, Hashtbl.find c.entries k)) c.order
end

(* Random traffic against both caches: an op with [call] set does what
   dispatch does (look the key up, run and store on a miss); without it the
   op is a retransmission, which only looks up. Several idents reuse the
   same small xid space, and a [None] reply is a one-way call, which the
   ring records as [""]. Replies are either small (14 to 19 bytes) or
   large (1043 or 1048), against a byte bound of 0 to 4000, so both
   eviction triggers fire, with small entries among the large. *)
let prop_dup_cache_matches_reference =
  let op =
    QCheck.Gen.(tup5 bool (int_range 0 2) (int_range 0 9) (int_range 0 2) (int_range 0 4))
  in
  QCheck.Test.make ~count:500 ~name:"dup cache ring matches Hashtbl + Queue"
    QCheck.(
      make
        ~print:(fun (cap, max_bytes, ops) ->
          Printf.sprintf "capacity %d, max_bytes %d, %d ops" cap max_bytes
            (List.length ops))
        Gen.(triple (int_range 1 8) (int_range 0 4000) (list_size (int_range 0 200) op)))
    (fun (capacity, max_bytes, ops) ->
      let ring = Oncrpc.Dup_cache.create ~capacity ~max_bytes in
      let reference = Ref_cache.create capacity max_bytes in
      let idents = [| ""; "tenant-a"; "tenant-b" |] in
      let to_ring = Option.value ~default:"" in
      List.iteri
        (fun i (call, ident, xid, proc, oneway) ->
          let ident = idents.(ident) and prog = 0x20000001 + (xid mod 2) and vers = 1 in
          let key = (ident, xid, prog, vers, proc) in
          let expected = Ref_cache.lookup reference key in
          let got = Oncrpc.Dup_cache.lookup ring ~ident ~xid ~prog ~vers ~proc in
          if got <> Option.map to_ring expected then
            QCheck.Test.fail_reportf "op %d: lookup differs" i;
          (if call && expected = None then
             let reply =
               if oneway = 0 then None
               else
                 let pad = if oneway >= 3 then 1019 + (5 * oneway) else 5 * oneway in
                 Some (Printf.sprintf "reply-%03d%s" i (String.make pad 'r'))
             in
             Ref_cache.store reference key reply;
             Oncrpc.Dup_cache.store ring ~ident ~xid ~prog ~vers ~proc (to_ring reply));
          if Oncrpc.Dup_cache.hits ring <> reference.Ref_cache.hits then
            QCheck.Test.fail_reportf "op %d: hits differ" i;
          if Oncrpc.Dup_cache.bytes ring <> reference.Ref_cache.bytes then
            QCheck.Test.fail_reportf "op %d: bytes differ" i;
          if
            Oncrpc.Dup_cache.entries ring
            <> List.map (fun (k, r) -> (k, to_ring r)) (Ref_cache.entries reference)
          then QCheck.Test.fail_reportf "op %d: eviction order differs" i)
        ops;
      true)

(* The cache holds at most [default_max_bytes] of large replies, however
   many slots it has: 1 MiB replies, all of them the same string so the
   test allocates one, keep only the newest 128. A small reply of another
   ident stored first outlives them all, and a reply larger than the bound
   on its own evicts every other large reply but not the small one. *)
let test_dup_cache_byte_bound () =
  let reply = String.make (1 lsl 20) 'r' in
  let c =
    Oncrpc.Dup_cache.create ~capacity:4096
      ~max_bytes:Oncrpc.Dup_cache.default_max_bytes
  in
  let small = "\000\000\000\000\000\016\000\000" in
  Oncrpc.Dup_cache.store c ~ident:"tenant" ~xid:1 ~prog:1 ~vers:1 ~proc:2 small;
  for xid = 1 to 1000 do
    Oncrpc.Dup_cache.store c ~ident:"" ~xid ~prog:1 ~vers:1 ~proc:13 reply;
    if Oncrpc.Dup_cache.bytes c > Oncrpc.Dup_cache.default_max_bytes then
      Alcotest.failf "%d bytes held after %d replies" (Oncrpc.Dup_cache.bytes c) xid
  done;
  let kept = Oncrpc.Dup_cache.default_max_bytes / String.length reply in
  check Alcotest.int "entries" (kept + 1) (List.length (Oncrpc.Dup_cache.entries c));
  check Alcotest.bool "newest kept" true
    (Oncrpc.Dup_cache.lookup c ~ident:"" ~xid:1000 ~prog:1 ~vers:1 ~proc:13 <> None);
  check Alcotest.bool "older evicted" true
    (Oncrpc.Dup_cache.lookup c ~ident:"" ~xid:(1000 - kept) ~prog:1 ~vers:1 ~proc:13
     = None);
  let small_kept () =
    Oncrpc.Dup_cache.lookup c ~ident:"tenant" ~xid:1 ~prog:1 ~vers:1 ~proc:2
    = Some small
  in
  check Alcotest.bool "small reply kept" true (small_kept ());
  let huge = String.make (Oncrpc.Dup_cache.default_max_bytes + 1) 'h' in
  Oncrpc.Dup_cache.store c ~ident:"" ~xid:1001 ~prog:1 ~vers:1 ~proc:13 huge;
  check Alcotest.int "the small reply and the newest" 2
    (List.length (Oncrpc.Dup_cache.entries c));
  check Alcotest.bool "small reply still kept" true (small_kept ());
  check Alcotest.int "its bytes" (String.length huge) (Oncrpc.Dup_cache.bytes c)

(* Reading a multi-fragment reply through the loopback costs allocation
   linear in its size: the peer's answer is read from a cursor, not rebuilt
   after every read. Per payload byte, 8 MiB may cost at most 1.5x what
   1 MiB does (a rebuild per 64 KiB read costs 8x). *)
let test_loopback_read_linear () =
  let words_per_byte n =
    let wire = Oncrpc.Record.to_wire (String.make n 'x') in
    let tr = Oncrpc.Transport.loopback ~peer:(fun _ -> wire) in
    let sink = Bytes.create n in
    let w0 = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
    Oncrpc.Transport.send_string tr "go";
    let c = Oncrpc.Record.open_record tr in
    let got = ref 0 in
    while !got < n do
      got := !got + Oncrpc.Record.take c sink !got (min 65_536 (n - !got))
    done;
    let words =
      Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words -. w0
    in
    check Alcotest.int "read" n !got;
    check Alcotest.string "record ends" "" (Oncrpc.Record.rest c);
    words /. float_of_int n
  in
  let small = words_per_byte (1 lsl 20) in
  let large = words_per_byte (8 lsl 20) in
  check Alcotest.bool
    (Printf.sprintf "8 MiB at %.5f words/byte vs 1 MiB at %.5f" large small)
    true
    (large <= 1.5 *. small)

(* --- reading an opaque result through, against the full decode --- *)

(* A success reply whose results are [err] and an opaque of [data]; its
   length word claims [claim] bytes and its padding is [pad]. *)
let opaque_reply ?(verf = Oncrpc.Auth.none) ?claim ?(pad = "\000\000\000")
    ?(trailing = "") ~xid err data =
  let e = E.create () in
  Oncrpc.Message.encode e
    (Oncrpc.Message.reply_success ~verf ~xid:(Int32.of_int xid) ());
  E.int e err;
  E.uint e (Option.value claim ~default:(String.length data));
  E.opaque_fixed e
    (Bytes.of_string
       (data ^ String.sub pad 0 (Xdr.Types.padding_of (String.length data))));
  E.to_string e ^ trailing

let message msg =
  let e = E.create () in
  Oncrpc.Message.encode e msg;
  E.to_string e

(* What a server sends back to the call [xid] for [len] bytes: reply
   messages, each framed as a record, or raw record bytes. *)
type opaque_case =
  | Messages of (xid:int -> len:int -> string list)
  | Wire of (xid:int -> len:int -> string)

let opaque_data n = String.init n (fun i -> Char.chr (((i * 7) + n) land 0xff))

let opaque_cases =
  let data = opaque_data in
  List.map (fun (name, f) -> (name, Messages f))
  [
    ("valid", fun ~xid ~len -> [ opaque_reply ~xid 0 (data len) ]);
    ( "stale xid first",
      fun ~xid ~len ->
        [ opaque_reply ~xid:(xid - 1) 0 (data len); opaque_reply ~xid 0 (data len) ] );
    ( "stale reply of another length first",
      fun ~xid ~len ->
        [ opaque_reply ~xid:(xid + 9) 0 (data (len + 3)); opaque_reply ~xid 0 (data len) ] );
    ( "call failed",
      fun ~xid ~len:_ ->
        [ message (Oncrpc.Message.reply_error ~xid:(Int32.of_int xid) Oncrpc.Message.Garbage_args) ] );
    ( "call rejected",
      fun ~xid ~len:_ ->
        [ message
            (Oncrpc.Message.reply_denied ~xid:(Int32.of_int xid)
               (Oncrpc.Message.Auth_error Oncrpc.Message.Auth_tooweak)) ] );
    ("error, empty data", fun ~xid ~len:_ -> [ opaque_reply ~xid 1 "" ]);
    ("error, full data", fun ~xid ~len -> [ opaque_reply ~xid 1 (data len) ]);
    ("shorter opaque", fun ~xid ~len -> [ opaque_reply ~xid 0 (data (max 0 (len - 1))) ]);
    ("longer opaque", fun ~xid ~len -> [ opaque_reply ~xid 0 (data (len + 4)) ]);
    ( "truncated record",
      fun ~xid ~len ->
        let r = opaque_reply ~xid 0 (data len) in
        [ String.sub r 0 (32 + (len / 2)) ] );
    ( "length word past the record",
      fun ~xid ~len -> [ opaque_reply ~xid ~claim:(len + 8) 0 (data len) ] );
    ("bad padding", fun ~xid ~len -> [ opaque_reply ~xid ~pad:"\000\007\000" 0 (data len) ]);
    ( "trailing bytes",
      fun ~xid ~len -> [ opaque_reply ~xid ~trailing:"\000\000\000\000" 0 (data len) ] );
    ( "non-empty verifier",
      fun ~xid ~len ->
        [ opaque_reply
            ~verf:(Oncrpc.Auth.sys
                     { Oncrpc.Auth.stamp = 1l; machinename = "gpu"; uid = 0; gid = 0; gids = [] })
            ~xid 0 (data len) ] );
    ( "a CALL",
      fun ~xid ~len:_ ->
        [ message (Oncrpc.Message.call ~xid:(Int32.of_int xid) ~prog:1 ~vers:1 ~proc:1 ()) ] );
    ("short garbage", fun ~xid:_ ~len:_ -> [ "\000\001" ]);
  ]
  @ [
      (* a head fit for reading through, then a fragment claiming past the
         record size limit *)
      ( "oversized fragment claim",
        Wire
          (fun ~xid ~len ->
            let head = String.sub (opaque_reply ~xid 0 (opaque_data len)) 0 32 in
            Oncrpc.Record.encode_header ~last:false 32
            ^ head
            ^ Oncrpc.Record.encode_header ~last:true Oncrpc.Record.max_fragment_size
            ^ opaque_data 8) );
    ]

(* The mem_result decoder a Cricket download falls back to. *)
let decode_opaque dec =
  let err = D.int dec in
  let data = D.opaque_slice dec in
  if err <> 0 then failwith (Printf.sprintf "error %d" err);
  Xdr.Iovec.slice_to_bytes data

(* One call against a loopback answering with [case]'s replies framed in
   [fragment_size] fragments, then a sentinel record: what it returned or
   raised, what the client counted, and what reading the next record
   gives. *)
let opaque_outcome ~read_through ~fragment_size ~len case =
  let tr =
    Oncrpc.Transport.loopback ~peer:(fun request ->
        let xid = Int32.to_int (String.get_int32_be request 4) land 0xffffffff in
        let framed msgs =
          String.concat "" (List.map (Oncrpc.Record.to_wire ~fragment_size) msgs)
        in
        (match case with
        | Messages f -> framed (f ~xid ~len)
        | Wire f -> f ~xid ~len)
        ^ framed [ "next" ])
  in
  let client =
    Oncrpc.Client.create ~first_xid:77l ~transport:tr ~prog:1 ~vers:1 ()
  in
  let args enc = E.uint enc len in
  let outcome f =
    match f () with
    | s -> s
    | exception e -> "raised " ^ Printexc.to_string e
  in
  let result =
    outcome @@ fun () ->
      "returned "
      ^ Bytes.to_string
          (if read_through then Oncrpc.Client.call_opaque client ~proc:13 args ~len decode_opaque
           else Oncrpc.Client.call client ~proc:13 args decode_opaque)
  in
  let s = Oncrpc.Client.stats client in
  ( result,
    (s.Oncrpc.Client.calls, s.Oncrpc.Client.bytes_received,
     s.Oncrpc.Client.wire_bytes_received),
    outcome (fun () -> Oncrpc.Record.read tr) )

let prop_read_through_matches_decode =
  QCheck.Test.make ~count:400 ~name:"opaque read through == full decode"
    QCheck.(
      make
        ~print:(fun (c, fs, len) ->
          Printf.sprintf "%s, fragments of %d, len %d" (fst (List.nth opaque_cases c)) fs len)
        Gen.(
          triple
            (int_range 0 (List.length opaque_cases - 1))
            (oneof [ int_range 1 40; return Oncrpc.Record.default_fragment_size ])
            (int_range 0 70)))
    (fun (c, fragment_size, len) ->
      let case = snd (List.nth opaque_cases c) in
      let outcome read_through =
        opaque_outcome ~read_through ~fragment_size ~len case
      in
      let ((result, _, _) as expected) = outcome false in
      let got = outcome true in
      if got <> expected then
        QCheck.Test.fail_reportf "read through: %s\nfull decode: %s"
          (let r, _, _ = got in r) result;
      true)

(* --- idempotent procedures bypass the at-most-once cache --- *)

let test_idempotent_bypasses_dup_cache () =
  let server = Oncrpc.Server.create () in
  Oncrpc.Server.set_dup_cache server;
  let runs = Array.make 4 0 in
  let counted proc =
    ( proc,
      fun dec enc ->
        runs.(proc) <- runs.(proc) + 1;
        E.int enc (D.int dec * proc) )
  in
  Oncrpc.Server.register server ~prog:300002 ~vers:1
    [ counted 1; counted 3 ];
  Oncrpc.Server.register ~idempotent:true server ~prog:300002 ~vers:1
    [ counted 2 ];
  Oncrpc.Server.set_oneway server ~prog:300002 ~vers:1 [ 3 ];
  let request ~xid proc =
    let enc = E.create () in
    Oncrpc.Message.encode enc
      (Oncrpc.Message.call ~xid ~prog:300002 ~vers:1 ~proc ());
    E.int enc 7;
    E.to_string enc
  in
  (* an idempotent call runs again on its retransmission, through either
     dispatch path, and answers the same bytes without a cache hit *)
  let idem = request ~xid:41l 2 in
  let r1 = Oncrpc.Server.dispatch server idem in
  let r2 = Oncrpc.Server.dispatch server idem in
  let r3 =
    Oncrpc.Server.dispatch_preparsed server ~xid:41l ~prog:300002 ~vers:1
      ~proc:2 ~body_off:(String.length idem - 4) idem
  in
  check Alcotest.int "idempotent handler ran on every copy" 3 runs.(2);
  check Alcotest.string "same bytes again" r1 r2;
  check Alcotest.(option string) "same bytes preparsed" (Some r1) r3;
  check Alcotest.int "no dup hit" 0 (Oncrpc.Server.dup_hits server);
  (* a non-idempotent procedure of the same service still replays *)
  let plain = request ~xid:42l 1 in
  let p1 = Oncrpc.Server.dispatch server plain in
  let p2 = Oncrpc.Server.dispatch server plain in
  check Alcotest.int "non-idempotent handler ran once" 1 runs.(1);
  check Alcotest.string "replayed byte-identically" p1 p2;
  check Alcotest.int "replay counted" 1 (Oncrpc.Server.dup_hits server);
  (* a one-way duplicate is swallowed, as before *)
  let oneway = request ~xid:43l 3 in
  check Alcotest.(option string) "one-way: no reply" None
    (Oncrpc.Server.dispatch_opt server oneway);
  check Alcotest.(option string) "one-way duplicate: no reply" None
    (Oncrpc.Server.dispatch_opt server oneway);
  check Alcotest.int "one-way handler ran once" 1 runs.(3);
  check Alcotest.int "one-way duplicate counted" 2
    (Oncrpc.Server.dup_hits server)

let suite =
  [
    Alcotest.test_case "fragment header roundtrip" `Quick test_header_roundtrip;
    Alcotest.test_case "single-fragment wire" `Quick test_single_fragment_wire;
    Alcotest.test_case "multi-fragment wire" `Quick test_multi_fragment_wire;
    Alcotest.test_case "empty record" `Quick test_empty_record;
    Alcotest.test_case "fragment reassembly" `Quick test_fragment_reassembly;
    Alcotest.test_case "max record size" `Quick test_max_record_size;
    Alcotest.test_case "clean EOF" `Quick test_read_opt_clean_eof;
    Alcotest.test_case "writev wire identity cases" `Quick
      test_writev_wire_identity_cases;
    Alcotest.test_case "writev zero-copy tx" `Quick test_writev_zero_copy_tx;
    Alcotest.test_case "pool reuse after release" `Quick
      test_pool_reuse_after_release;
    Alcotest.test_case "pool double release safe" `Quick
      test_pool_double_release_safe;
    Alcotest.test_case "pool oversized bypass" `Quick test_pool_oversized_bypass;
    Alcotest.test_case "read recycles staging buffers" `Quick
      test_read_recycles_staging_buffers;
    Alcotest.test_case "call header roundtrip" `Quick test_call_roundtrip;
    Alcotest.test_case "reply roundtrips" `Quick test_reply_roundtrips;
    Alcotest.test_case "AUTH_SYS roundtrip" `Quick test_auth_sys_roundtrip;
    Alcotest.test_case "auth body limit" `Quick test_auth_body_limit;
    Alcotest.test_case "client/server basic" `Quick test_client_server_basic;
    Alcotest.test_case "large payload (multi-fragment)" `Quick
      test_client_server_large_payload;
    Alcotest.test_case "protocol error replies" `Quick test_error_replies;
    Alcotest.test_case "auth rejection" `Quick test_auth_rejection;
    Alcotest.test_case "server observer" `Quick test_observer;
    Alcotest.test_case "threaded pipe" `Quick test_threaded_pipe;
    Alcotest.test_case "TCP end-to-end" `Quick test_tcp_end_to_end;
    Alcotest.test_case "TCP connection threads get their own replies" `Quick
      test_tcp_threads_get_own_replies;
    Alcotest.test_case "typed resolution error" `Quick
      test_tcp_connect_resolution_error;
    Alcotest.test_case "typed dispatch protocol errors" `Quick
      test_dispatch_reply_typed_error;
    Alcotest.test_case "dup cache keyed by tenant ident" `Quick
      test_dup_cache_tenant_ident;
    Alcotest.test_case "portmap registry" `Quick test_portmap_registry;
    Alcotest.test_case "portmap over RPC" `Quick test_portmap_rpc;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_record_roundtrip; prop_writev_wire_identity;
        prop_writev_roundtrip_via_read;
      ]
  @ [ Alcotest.test_case "fast headers match the codecs" `Quick test_fast_headers ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_add_wire_identity; prop_dup_cache_matches_reference;
        prop_walk_records ]
  @ [ Alcotest.test_case "record walk refuses oversized claims" `Quick
        test_walk_oversized;
      Alcotest.test_case "dup cache holds bounded reply bytes" `Quick
        test_dup_cache_byte_bound;
      Alcotest.test_case "loopback read allocation is linear" `Quick
        test_loopback_read_linear ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_read_through_matches_decode ]
  @ [ Alcotest.test_case "idempotent procedures bypass the dup cache" `Quick
        test_idempotent_bypasses_dup_cache ]
