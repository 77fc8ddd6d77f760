module Time = Simnet.Time
module Engine = Simnet.Engine
module Fault = Simnet.Fault
module Inbox = Oncrpc.Record.Inbox
module Outbox = Oncrpc.Record.Outbox

type stats = {
  messages : int;
  bytes_to_server : int;
  bytes_from_server : int;
  network_time : Simnet.Time.t;
  timeouts : int;
  crashes : int;
  reconnects : int;
}

let rto = Time.ns 200_000 (* 200 us: jumbo-frame LAN RTT plus slack *)

type t = {
  engine : Engine.t;
  client : Simnet.Hostprofile.t;
  dispatch : string -> string;
  fault : Fault.t option;
  on_crash : down_for:Time.t -> unit;
  (* the counters behind [stats], bumped in place *)
  mutable messages : int;
  mutable bytes_to_server : int;
  mutable bytes_from_server : int;
  mutable network_ns : int;
  mutable timeouts : int;
  mutable crashes : int;
  mutable reconnects : int;
  mutable transport : Oncrpc.Transport.t;
  mutable requests : Inbox.t;
      (* what the client wrote, reassembled into records as it arrives; a
         record whose tail is still to come waits here *)
  mutable pending : int;
      (* request bytes written since the last exchange: each crosses the
         link, and is charged and counted, once *)
  mutable serve : string -> unit;  (* [dispatch_record t], built once *)
  replies : Outbox.t;  (* the replies of the last exchange *)
  mutable reply_bytes : int;  (* their wire bytes *)
  mutable connected : bool;
  mutable down_until : Time.t;  (* absolute virtual time; restart instant *)
  mutable obs : Obs.Recorder.t;
}

let set_obs t obs = t.obs <- obs

(* Advance virtual time inside a ["net"]-layer span. The advances are the
   only places this channel spends virtual time, so the layer total is
   exactly the modelled network time. *)
let net_advance t name ns =
  let sp = Obs.Recorder.span_begin t.obs ~layer:"net" name in
  Engine.advance_ns t.engine ns;
  Obs.Recorder.span_end t.obs sp

(* The scheduled crash fires between records: the server process dies, so
   everything in flight — the rest of this request stream and any replies
   already produced — is lost, and the connection is gone until the
   restart instant. *)
exception Crashed

let drop_in_flight t =
  t.requests <- Inbox.create ();
  t.pending <- 0;
  Outbox.clear t.replies

let crash t ~down_for =
  t.connected <- false;
  t.down_until <- Time.add (Engine.now t.engine) down_for;
  drop_in_flight t;
  t.crashes <- t.crashes + 1;
  t.on_crash ~down_for;
  raise Crashed

let check_crash t =
  match t.fault with
  | None -> ()
  | Some f -> (
      match Fault.crash_due f with
      | None -> ()
      | Some down_for -> crash t ~down_for)

let decide t =
  match t.fault with
  | None -> Fault.Pass
  | Some f -> Fault.decide ~now:(Engine.now t.engine) f

let push_reply t reply =
  t.reply_bytes <- t.reply_bytes + Oncrpc.Record.wire_length (String.length reply);
  Outbox.push t.replies reply

let deliver_reply t reply =
  if String.length reply > 0 (* "" is a one-way call: no reply record *) then
    match decide t with
    | Fault.Drop | Fault.Corrupt -> () (* lost / discarded on receipt *)
    | Fault.Pass -> push_reply t reply
    | Fault.Duplicate ->
        push_reply t reply;
        push_reply t reply
    | Fault.Delay d ->
        net_advance t "net.delay" (Int64.to_int d);
        push_reply t reply

let dispatch_record t record =
  match decide t with
  | Fault.Drop | Fault.Corrupt ->
      (* never reaches the server (corrupt: the receiver's integrity check
         throws it away) — the client's RTO covers the loss *)
      check_crash t
  | Fault.Pass ->
      check_crash t;
      deliver_reply t (t.dispatch record)
  | Fault.Duplicate ->
      check_crash t;
      (* the server sees the same record twice; the duplicate-request cache
         (or stale-xid skipping on the client) absorbs it *)
      deliver_reply t (t.dispatch record);
      deliver_reply t (t.dispatch record)
  | Fault.Delay d ->
      check_crash t;
      net_advance t "net.delay" (Int64.to_int d);
      deliver_reply t (t.dispatch record)

(* One request/reply exchange over the simulated link: charge the request's
   one-way time, run every complete record through the fault plan and the
   server dispatch, run each reply record through the plan too, charge the
   reply's one-way time. Surviving replies wait in [replies]; a record
   whose tail the client has not written yet stays in [requests]. *)
let exchange t =
  let request_len = t.pending in
  t.pending <- 0;
  (* request: client -> GPU node *)
  let request_ns =
    Simnet.Netcost.one_way_ns ~sender:t.client ~receiver:Config.server_profile
      ~link:Config.link request_len
  in
  net_advance t "net.request" request_ns;
  t.reply_bytes <- 0;
  (* The server's CUDA work advances the shared clock via its clock
     hooks. An exchange that fails — a header claiming more than a record
     may hold, after which nothing can be framed, a crash, a request the
     server cannot parse — loses what it carried: no record of it is ever
     dispatched again. *)
  (match Inbox.take t.requests t.serve with
  | () -> ()
  | exception e ->
      drop_in_flight t;
      raise e);
  (* reply: GPU node -> client *)
  let reply_len = t.reply_bytes in
  let reply_ns =
    Simnet.Netcost.one_way_ns ~sender:Config.server_profile ~receiver:t.client
      ~link:Config.link reply_len
  in
  net_advance t "net.reply" reply_ns;
  t.messages <- t.messages + 1;
  t.bytes_to_server <- t.bytes_to_server + request_len;
  t.bytes_from_server <- t.bytes_from_server + reply_len;
  t.network_ns <- t.network_ns + request_ns + reply_ns

let write t s off len =
  if not t.connected then raise Oncrpc.Transport.Closed;
  t.pending <- t.pending + len;
  Inbox.add t.requests s off len

let rec recv t buf off len =
  if not t.connected then raise Oncrpc.Transport.Closed;
  if not (Outbox.is_empty t.replies) then Outbox.read t.replies buf off len
  else if t.pending > 0 then begin
    (match exchange t with
    | () -> ()
    | exception Crashed -> raise Oncrpc.Transport.Closed);
    recv t buf off len
  end
  else begin
    (* The client awaits a reply but nothing is in flight any more: the
       record (or its reply) was dropped. Model the retransmission
       timeout — the virtual time a real client would wait before
       concluding loss — and report it. *)
    net_advance t "net.rto" (Int64.to_int rto);
    Obs.Recorder.incr t.obs "net.rto";
    t.timeouts <- t.timeouts + 1;
    raise Oncrpc.Transport.Timeout
  end

let create ~engine ~client ?fault ?(on_crash = fun ~down_for:_ -> ()) ~dispatch
    () =
  let t =
    {
      engine;
      client;
      dispatch;
      fault;
      on_crash;
      messages = 0;
      bytes_to_server = 0;
      bytes_from_server = 0;
      network_ns = 0;
      timeouts = 0;
      crashes = 0;
      reconnects = 0;
      transport = Oncrpc.Transport.make ~send:(fun _ _ _ -> ())
          ~recv:(fun _ _ _ -> 0) ~close:(fun () -> ()) ();
      requests = Inbox.create ();
      pending = 0;
      serve = ignore;
      replies = Outbox.create ();
      reply_bytes = 0;
      connected = true;
      down_until = Time.zero;
      obs = Obs.Recorder.null;
    }
  in
  t.serve <- (fun record -> dispatch_record t record);
  let send buf off len = write t (Bytes.unsafe_to_string buf) off len in
  (* Gather write into the inbox: the one copy the simulated link
     performs, straight from the caller's payload views into each
     fragment's exactly-sized buffer. *)
  let write_slice s = write t s.Xdr.Iovec.base s.Xdr.Iovec.off s.Xdr.Iovec.len in
  let sendv iov = List.iter write_slice iov in
  t.transport <-
    Oncrpc.Transport.make ~sendv ~send ~recv:(recv t) ~close:(fun () -> ()) ();
  t

let transport t = t.transport

let reconnect t =
  if Time.compare (Engine.now t.engine) t.down_until < 0 then
    (* the server is still restarting; the caller backs off and retries *)
    raise Oncrpc.Transport.Closed;
  t.connected <- true;
  drop_in_flight t;
  t.reconnects <- t.reconnects + 1;
  t.transport

let stats t =
  {
    messages = t.messages;
    bytes_to_server = t.bytes_to_server;
    bytes_from_server = t.bytes_from_server;
    network_time = Int64.of_int t.network_ns;
    timeouts = t.timeouts;
    crashes = t.crashes;
    reconnects = t.reconnects;
  }

let fault_stats t = Option.map Fault.stats t.fault
