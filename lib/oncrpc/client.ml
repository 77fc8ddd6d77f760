type error =
  | Call_rejected of Message.rejected
  | Call_failed of Message.accept_stat
  | Bad_reply of string
  | Deadline_exceeded of { elapsed_ns : int64 }

exception Rpc_error of error

let error_to_string = function
  | Call_rejected r -> Format.asprintf "call denied: %a" Message.pp_rejected r
  | Call_failed s -> Format.asprintf "call failed: %a" Message.pp_accept_stat s
  | Bad_reply s -> "bad reply: " ^ s
  | Deadline_exceeded { elapsed_ns } ->
      Printf.sprintf "deadline exceeded after %Ld ns" elapsed_ns

let () =
  Printexc.register_printer (function
    | Rpc_error e -> Some ("Oncrpc.Client.Rpc_error: " ^ error_to_string e)
    | _ -> None)

type retry_policy = {
  max_attempts : int;
  base_backoff_ns : int;
  max_backoff_ns : int;
  jitter : float;
  deadline_ns : int option;
}

let default_retry =
  {
    max_attempts = 8;
    base_backoff_ns = 100_000 (* 100 us *);
    max_backoff_ns = 50_000_000 (* 50 ms *);
    jitter = 0.1;
    deadline_ns = None;
  }

type stats = {
  calls : int;
  bytes_sent : int;
  bytes_received : int;
  wire_bytes_received : int;
  retries : int;
  timeouts : int;
  reconnects : int;
}

(* The counters behind {!stats}, bumped in place on every call. *)
type counters = {
  mutable n_calls : int;
  mutable n_bytes_sent : int;
  mutable n_bytes_received : int;
  mutable n_wire_bytes_received : int;
  mutable n_retries : int;
  mutable n_timeouts : int;
  mutable n_reconnects : int;
}

type t = {
  mutable transport : Transport.t;
  prog : int;
  vers : int;
  cred : Auth.t;
  fragment_size : int;
  next_xid : int Atomic.t;
      (* xid allocation is the one client-side operation multiple domains
         may legitimately race on (pipelined callers sharing a client);
         a fetch-and-add keeps xids unique without a lock. Stored as an
         int and truncated to int32 on use, so the space wraps exactly
         like the wire representation. *)
  counters : counters;
  mutable retry : retry_policy option;
  mutable now : unit -> int64;  (* virtual-time clock, ns *)
  mutable sleep : int64 -> unit;  (* backoff; advances the virtual clock *)
  mutable reconnect : (unit -> Transport.t) option;
  mutable on_reconnect : unit -> unit;
  mutable give_up : exn -> exn;
  rng : Random.State.t;
  mutable obs : Obs.Recorder.t;
  mutable obs_proc_name : int -> string;
}

let create ?(cred = Auth.none) ?(fragment_size = Record.default_fragment_size)
    ?(first_xid = 1l) ?retry ?(seed = 1) ~transport ~prog ~vers () =
  {
    transport;
    prog;
    vers;
    cred;
    fragment_size;
    next_xid = Atomic.make (Int32.to_int first_xid);
    counters =
      { n_calls = 0; n_bytes_sent = 0; n_bytes_received = 0;
        n_wire_bytes_received = 0; n_retries = 0; n_timeouts = 0;
        n_reconnects = 0 };
    retry;
    now = (fun () -> 0L);
    sleep = (fun _ -> ());
    reconnect = None;
    on_reconnect = (fun () -> ());
    give_up = Fun.id;
    rng = Random.State.make [| seed; 0x72657472 |];
    obs = Obs.Recorder.null;
    obs_proc_name = (fun proc -> "proc-" ^ string_of_int proc);
  }

let set_obs ?proc_name t obs =
  t.obs <- obs;
  match proc_name with Some f -> t.obs_proc_name <- f | None -> ()

let set_retry t policy = t.retry <- policy
let set_xid_origin t xid = Atomic.set t.next_xid (Int32.to_int xid)

(* The next xid as its unsigned 32-bit value, the form the per-call path
   carries it in. *)
let next_xid t = Atomic.fetch_and_add t.next_xid 1 land 0xffffffff

let alloc_xid t = Int32.of_int (next_xid t)

let set_clock t ~now ~sleep =
  t.now <- now;
  t.sleep <- sleep

let set_reconnect t f = t.reconnect <- Some f
let set_on_reconnect t f = t.on_reconnect <- f
let set_give_up t f = t.give_up <- f
let set_transport t transport = t.transport <- transport

let wire_length ~fragment_size payload =
  let fragments = max 1 ((payload + fragment_size - 1) / fragment_size) in
  payload + (4 * fragments)

(* Exponential backoff with deterministic jitter: the n-th retry (0-based)
   waits base * 2^n, clamped to max, scaled by a factor drawn from
   [1 - jitter, 1 + jitter] off the client's seeded PRNG. *)
let backoff_ns t (p : retry_policy) n =
  let base = float_of_int p.base_backoff_ns *. (2.0 ** float_of_int n) in
  let clamped = Float.min base (float_of_int p.max_backoff_ns) in
  let factor =
    if p.jitter <= 0.0 then 1.0
    else 1.0 -. p.jitter +. Random.State.float t.rng (2.0 *. p.jitter)
  in
  Int64.of_float (clamped *. factor)

(* One failed attempt under a retry policy: account it, enforce the
   deadline and attempt budget, back off (virtual time), and try to
   re-establish the connection if it is gone. Raises when the call must
   not be retried; returns to let the caller retransmit. *)
let handle_attempt_failure t ~started ~deadline_ns ~attempt exn =
  match t.retry with
  | None -> raise exn
  | Some p ->
      (match exn with
      | Transport.Timeout ->
          t.counters.n_timeouts <- t.counters.n_timeouts + 1;
          Obs.Recorder.incr t.obs "rpc.timeout"
      | _ -> ());
      if attempt + 1 >= p.max_attempts then raise (t.give_up exn);
      let deadline = match deadline_ns with Some _ -> deadline_ns | None -> p.deadline_ns in
      (match deadline with
      | Some d when Int64.sub (t.now ()) started >= Int64.of_int d ->
          raise
            (t.give_up
               (Rpc_error
                  (Deadline_exceeded
                     { elapsed_ns = Int64.sub (t.now ()) started })))
      | _ -> ());
      t.sleep (backoff_ns t p attempt);
      t.counters.n_retries <- t.counters.n_retries + 1;
      Obs.Recorder.incr t.obs "rpc.retry";
      match exn with
      | Transport.Closed -> (
          (* the connection is gone: without a reconnect hook a resend can
             only fail again, so give up immediately *)
          match t.reconnect with
          | None -> raise (t.give_up exn)
          | Some rc -> (
              match rc () with
              | transport ->
                  t.transport <- transport;
                  t.counters.n_reconnects <- t.counters.n_reconnects + 1;
                  Obs.Recorder.incr t.obs "rpc.reconnect";
                  t.on_reconnect ()
              | exception Transport.Closed ->
                  (* still down; the next attempt backs off again *) ()))
      | _ -> ()

(* Room for the header and the arguments of every small call (a kernel
   launch, the largest, is ~110 bytes); bulk arguments travel as views. *)
let request_initial_size = 128

(* The request encoders of every client, lent one call at a time. *)
let requests = Xdr.Encode.spare ~initial_size:request_initial_size

(* The encoder holding the call's header and arguments, taken from
   [requests]. *)
let encode_call t ~xid ~proc encode_args =
  let enc = Xdr.Encode.take requests in
  match
    Message.encode_call_header enc ~xid ~prog:t.prog ~vers:t.vers ~proc
      ~cred:t.cred;
    encode_args enc
  with
  | () -> enc
  | exception e ->
      Xdr.Encode.give_back requests enc;
      raise e

(* A request travels as the pair [~framed ~views], one of them empty:

   - [framed], for a message with no views that fits one fragment: the
     whole record, mark and message, in one string sent as it is;
   - [views], for any other: the message as an iovec in which bulk
     arguments are views of the caller's buffers; [Record.writev]
     interleaves fragment headers without flattening.

   Neither keeps a byte of the encoder, which goes back to [requests]
   before the first send. Retransmissions resend the same request — safe
   because [framed] is never written again and the buffers [views]
   aliases belong to the in-progress call, which cannot mutate them until
   it returns. *)
let views_of enc ~framed =
  if String.length framed > 0 then [] else Xdr.Encode.to_iovec enc

let send_request t ~framed ~views =
  if String.length framed > 0 then Transport.send_string t.transport framed
  else Record.writev ~fragment_size:t.fragment_size t.transport views

(* The header's length is fixed by the client's credential, so the
   argument bytes are the rest of the request. *)
let count_sent t ~framed ~views =
  let c = t.counters in
  let len =
    if String.length framed > 0 then String.length framed - 4
    else Xdr.Iovec.length views
  in
  c.n_calls <- c.n_calls + 1;
  c.n_bytes_sent <-
    c.n_bytes_sent + len - Message.call_header_length ~cred:t.cred

let rpc_span t ~xid =
  if Obs.Recorder.enabled t.obs then
    Obs.Recorder.span_begin t.obs ~layer:"rpc"
      (Printf.sprintf "call xid=%ld" (Int32.of_int xid))
  else Obs.Recorder.null_span

exception Stale_reply

(* Raises [Stale_reply] for a reply to an abandoned xid and a typed error
   for any reply but a success; returns the offset of the results. The
   common success reply is recognised from its header words alone,
   anything else goes through the full decoder. *)
let results_offset reply ~xid =
  if Message.is_success_reply reply ~xid then Message.success_header_length
  else begin
    let dec = Xdr.Decode.of_string reply in
    let msg =
      try Message.decode dec
      with Xdr.Types.Error e ->
        raise (Rpc_error (Bad_reply (Xdr.Types.error_to_string e)))
    in
    if Int32.to_int msg.Message.xid land 0xffffffff <> xid then raise Stale_reply;
    (match msg.Message.body with
    | Message.Call _ -> raise (Rpc_error (Bad_reply "received a CALL"))
    | Message.Reply (Message.Denied d) -> raise (Rpc_error (Call_rejected d))
    | Message.Reply (Message.Accepted { stat = Message.Success; _ }) -> ()
    | Message.Reply (Message.Accepted { stat; _ }) ->
        raise (Rpc_error (Call_failed stat)));
    Xdr.Decode.pos dec
  end

let results_at reply pos =
  let dec = Xdr.Decode.of_string reply in
  Xdr.Decode.skip dec pos;
  dec

(* The decoder of the reply to [xid], at its results; replies to
   abandoned xids are skipped. The decoder spans the whole reply, so its
   position and what remains give the reply's length. *)
let rec await t ~xid =
  let reply = Record.read t.transport in
  match results_offset reply ~xid with
  | pos -> results_at reply pos
  | exception Stale_reply -> await t ~xid

(* A reply read through: the opaque, moved straight into its buffer, or
   the whole reply for the general decode. *)
type opaque_reply = Opaque of bytes | Whole of Xdr.Decode.t

(* success header, status word, opaque length *)
let opaque_head = Message.success_header_length + 8

let word s off = Int32.to_int (String.get_int32_be s off) land 0xffffffff

(* The reply to [xid] for a call whose results are a status word and an
   opaque. When the head says success, status 0 and an opaque of [len]
   bytes, the opaque goes from the transport straight into a fresh buffer;
   the padding and the end of the record are checked as the decoder would.
   Any other reply — and one that turns out short, badly padded or long —
   is put back together from what was read and decoded whole. *)
let rec await_opaque t ~xid ~len =
  let c = Record.open_record t.transport in
  let head = Bytes.create opaque_head in
  let got = Record.take c head 0 opaque_head in
  let head = Bytes.unsafe_to_string head in
  let pad = Xdr.Types.padding_of len in
  if
    got = opaque_head
    && Message.is_success_reply head ~xid
    && word head Message.success_header_length = 0
    && word head (opaque_head - 4) = len
    && len <= Record.default_max_record_size - opaque_head - pad
  then begin
    let data = Bytes.create len in
    let got = Record.take c data 0 len in
    let padding = Bytes.create pad in
    let got_pad = Record.take c padding 0 pad in
    let tail = Record.rest c in
    if got = len && got_pad = pad && Bytes.for_all (( = ) '\000') padding
       && tail = ""
    then Opaque data
    else
      whole t ~xid ~len
        (String.concat ""
           [ head; Bytes.sub_string data 0 got;
             Bytes.sub_string padding 0 got_pad; tail ])
  end
  else whole t ~xid ~len (String.sub head 0 got ^ Record.rest c)

and whole t ~xid ~len reply =
  match results_offset reply ~xid with
  | pos -> Whole (results_at reply pos)
  | exception Stale_reply -> await_opaque t ~xid ~len

(* Retransmissions reuse [xid]: together with the server's duplicate-
   request cache this gives at-most-once execution — a retry of a call
   whose reply was lost gets the cached reply, not a second execution. *)
let rec attempt t ~xid ~framed ~views ~started ~deadline_ns n read =
  let rpc_sp = rpc_span t ~xid in
  match
    send_request t ~framed ~views;
    read t ~xid
  with
  | result ->
      Obs.Recorder.span_end t.obs rpc_sp;
      result
  | exception ((Transport.Timeout | Transport.Closed) as e) ->
      Obs.Recorder.span_end t.obs rpc_sp;
      handle_attempt_failure t ~started ~deadline_ns ~attempt:n e;
      attempt t ~xid ~framed ~views ~started ~deadline_ns (n + 1) read
  | exception e ->
      Obs.Recorder.span_end t.obs rpc_sp;
      raise e

let shim_span t proc =
  if Obs.Recorder.enabled t.obs then
    Obs.Recorder.span_begin t.obs ~layer:"shim" (t.obs_proc_name proc)
  else Obs.Recorder.null_span

(* A completed call: its request, and a reply of [reply_len] bytes whose
   results start at [results_start]. *)
let count_call t ~framed ~views ~reply_len ~results_start =
  let c = t.counters in
  count_sent t ~framed ~views;
  c.n_bytes_received <- c.n_bytes_received + reply_len - results_start;
  c.n_wire_bytes_received <-
    c.n_wire_bytes_received
    + wire_length ~fragment_size:Record.default_fragment_size reply_len

let decoded t ~framed ~views dec decode_results =
  let results_start = Xdr.Decode.pos dec in
  let reply_len = results_start + Xdr.Decode.remaining dec in
  let result =
    try
      let r = decode_results dec in
      Xdr.Decode.finish dec;
      r
    with Xdr.Types.Error e ->
      raise (Rpc_error (Bad_reply (Xdr.Types.error_to_string e)))
  in
  count_call t ~framed ~views ~reply_len ~results_start;
  result

(* Every call gives its encoder back before the first send, so the calls
   a reconnect hook makes between two attempts find it in the spare. *)
let call ?deadline_ns t ~proc encode_args decode_results =
  let xid = next_xid t in
  let shim_sp = shim_span t proc in
  match
    let enc = encode_call t ~xid ~proc encode_args in
    let framed = Record.framed ~fragment_size:t.fragment_size enc in
    let views = views_of enc ~framed in
    Xdr.Encode.give_back requests enc;
    let started = t.now () in
    let dec = attempt t ~xid ~framed ~views ~started ~deadline_ns 0 await in
    decoded t ~framed ~views dec decode_results
  with
  | result ->
      Obs.Recorder.span_end t.obs shim_sp;
      result
  | exception e ->
      Obs.Recorder.span_end t.obs shim_sp;
      raise e

let call_opaque ?deadline_ns t ~proc encode_args ~len decode_results =
  let xid = next_xid t in
  let shim_sp = shim_span t proc in
  match
    let enc = encode_call t ~xid ~proc encode_args in
    let framed = Record.framed ~fragment_size:t.fragment_size enc in
    let views = views_of enc ~framed in
    Xdr.Encode.give_back requests enc;
    let started = t.now () in
    match
      attempt t ~xid ~framed ~views ~started ~deadline_ns 0 (fun t ~xid ->
          await_opaque t ~xid ~len)
    with
    | Opaque data ->
        count_call t ~framed ~views
          ~reply_len:(opaque_head + len + Xdr.Types.padding_of len)
          ~results_start:Message.success_header_length;
        data
    | Whole dec -> decoded t ~framed ~views dec decode_results
  with
  | result ->
      Obs.Recorder.span_end t.obs shim_sp;
      result
  | exception e ->
      Obs.Recorder.span_end t.obs shim_sp;
      raise e

let call_void ?deadline_ns t ~proc encode_args =
  call ?deadline_ns t ~proc encode_args Xdr.Decode.void

(* RFC 5531 §8 "batching": send the call and do not wait for (or expect) a
   reply. The record sits in the transport's send path until a subsequent
   synchronous call flushes the connection, so N one-way calls followed by
   one blocking call cost a single round trip. *)
let rec send_oneway t ~framed ~views ~started n =
  match send_request t ~framed ~views with
  | () -> ()
  | exception (Transport.Closed as e) ->
      handle_attempt_failure t ~started ~deadline_ns:None ~attempt:n e;
      send_oneway t ~framed ~views ~started (n + 1)

let call_oneway t ~proc encode_args =
  let xid = next_xid t in
  let shim_sp = shim_span t proc in
  match
    let enc = encode_call t ~xid ~proc encode_args in
    let framed = Record.framed ~fragment_size:t.fragment_size enc in
    let views = views_of enc ~framed in
    Xdr.Encode.give_back requests enc;
    (* Only a failed *send* is retried (there is no reply to lose); a send
       that fails mid-connection-loss is resent after reconnection, and the
       reconnect hook's recovery protocol replays anything that was sent
       but not yet executed. *)
    send_oneway t ~framed ~views ~started:(t.now ()) 0;
    count_sent t ~framed ~views
  with
  | () -> Obs.Recorder.span_end t.obs shim_sp
  | exception e ->
      Obs.Recorder.span_end t.obs shim_sp;
      raise e

let stats t =
  let c = t.counters in
  {
    calls = c.n_calls;
    bytes_sent = c.n_bytes_sent;
    bytes_received = c.n_bytes_received;
    wire_bytes_received = c.n_wire_bytes_received;
    retries = c.n_retries;
    timeouts = c.n_timeouts;
    reconnects = c.n_reconnects;
  }

let close t = t.transport.Transport.close ()
