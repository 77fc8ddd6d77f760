module Time = Simnet.Time
module Engine = Simnet.Engine
module Fault = Simnet.Fault

type stats = {
  messages : int;
  bytes_to_server : int;
  bytes_from_server : int;
  network_time : Simnet.Time.t;
  timeouts : int;
  crashes : int;
  reconnects : int;
}

let default_rto = Time.ns 200_000 (* 200 us: jumbo-frame LAN RTT plus slack *)

type t = {
  engine : Engine.t;
  client : Simnet.Hostprofile.t;
  server : Simnet.Hostprofile.t;
  link : Simnet.Link.t;
  dispatch : string -> string;
  fault : Fault.t option;
  rto : Time.t;
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
  outbox : Buffer.t;
      (* request bytes not yet dispatched: what the client wrote since the
         last exchange, behind the incomplete record an exchange left *)
  requests : Oncrpc.Record.source;  (* the outbox, walked in place *)
  mutable held : int;
      (* leading outbox bytes of that incomplete record, already charged
         and counted when they crossed the link *)
  inbox : Buffer.t;  (* the framed replies of the last exchange *)
  mutable inbox_pos : int;
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

(* Both buffers are reused from exchange to exchange; one that a bulk
   transfer grew gives its memory back. *)
let recycle b = if Buffer.length b > 1 lsl 20 then Buffer.reset b else Buffer.clear b

(* The scheduled crash fires between records: the server process dies, so
   everything in flight — the rest of this request stream and any replies
   already produced — is lost, and the connection is gone until the
   restart instant. *)
exception Crashed

let drop_in_flight t =
  recycle t.outbox;
  t.held <- 0;
  recycle t.inbox;
  t.inbox_pos <- 0

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

let deliver_reply t reply =
  if String.length reply > 0 (* "" is a one-way call: no reply record *) then
    match decide t with
    | Fault.Drop | Fault.Corrupt -> () (* lost / discarded on receipt *)
    | Fault.Pass -> Oncrpc.Record.add_wire t.inbox reply
    | Fault.Duplicate ->
        Oncrpc.Record.add_wire t.inbox reply;
        Oncrpc.Record.add_wire t.inbox reply
    | Fault.Delay d ->
        net_advance t "net.delay" (Int64.to_int d);
        Oncrpc.Record.add_wire t.inbox reply

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

(* Dispatch every complete record of the outbox in place, in order; the
   offset of the first byte not consumed is returned. Each header's claim
   is bounded before its record is copied out, as every reassembler
   does. *)
let rec dispatch_records t pos =
  match Oncrpc.Record.record_end t.requests pos with
  | -1 -> pos
  | stop ->
      dispatch_record t (Oncrpc.Record.payload t.requests pos ~stop);
      dispatch_records t stop

(* One request/reply exchange over the simulated link: charge the request's
   one-way time, run every complete record through the fault plan and the
   server dispatch, run each reply record through the plan too, charge the
   reply's one-way time. Surviving reply bytes land in the inbox; a record
   whose tail the client has not written yet stays in the outbox. *)
let exchange t =
  let request_len = Buffer.length t.outbox - t.held in
  (* request: client -> GPU node *)
  let request_ns =
    Simnet.Netcost.one_way_ns ~sender:t.client ~receiver:t.server ~link:t.link
      request_len
  in
  net_advance t "net.request" request_ns;
  recycle t.inbox;
  t.inbox_pos <- 0;
  (* The server's CUDA work advances the shared clock via its clock
     hooks. An exchange that fails — a header claiming more than a record
     may hold, after which nothing can be framed, a crash, a request the
     server cannot parse — loses what it carried: no record of it is ever
     dispatched again. *)
  let consumed =
    match dispatch_records t 0 with
    | n -> n
    | exception e ->
        drop_in_flight t;
        raise e
  in
  let total = Buffer.length t.outbox in
  if consumed = total then begin
    recycle t.outbox;
    t.held <- 0
  end
  else begin
    let tail = Buffer.sub t.outbox consumed (total - consumed) in
    Buffer.clear t.outbox;
    Buffer.add_string t.outbox tail;
    t.held <- String.length tail
  end;
  (* reply: GPU node -> client *)
  let reply_len = Buffer.length t.inbox in
  let reply_ns =
    Simnet.Netcost.one_way_ns ~sender:t.server ~receiver:t.client ~link:t.link
      reply_len
  in
  net_advance t "net.reply" reply_ns;
  t.messages <- t.messages + 1;
  t.bytes_to_server <- t.bytes_to_server + request_len;
  t.bytes_from_server <- t.bytes_from_server + reply_len;
  t.network_ns <- t.network_ns + request_ns + reply_ns

let rec add_slices b = function
  | [] -> ()
  | s :: rest ->
      Buffer.add_substring b s.Xdr.Iovec.base s.Xdr.Iovec.off s.Xdr.Iovec.len;
      add_slices b rest

let create ~engine ~client ?(server = Config.server_profile)
    ?(link = Config.link) ?fault ?(rto = default_rto)
    ?(on_crash = fun ~down_for:_ -> ()) ~dispatch () =
  let outbox = Buffer.create 1024 in
  let t =
    {
      engine;
      client;
      server;
      link;
      dispatch;
      fault;
      rto;
      on_crash;
      messages = 0;
      bytes_to_server = 0;
      bytes_from_server = 0;
      network_ns = 0;
      timeouts = 0;
      crashes = 0;
      reconnects = 0;
      transport =
        Oncrpc.Transport.make
          ~send:(fun _ _ _ -> ())
          ~recv:(fun _ _ _ -> 0)
          ~close:(fun () -> ())
          ();
      outbox;
      requests = Oncrpc.Record.Of_buffer outbox;
      held = 0;
      inbox = Buffer.create 1024;
      inbox_pos = 0;
      connected = true;
      down_until = Time.zero;
      obs = Obs.Recorder.null;
    }
  in
  let send buf off len =
    if not t.connected then raise Oncrpc.Transport.Closed;
    Buffer.add_subbytes t.outbox buf off len
  in
  (* Gather write into the outbox: the one staging copy the simulated
     link performs, straight from the caller's payload views. *)
  let sendv iov =
    if not t.connected then raise Oncrpc.Transport.Closed;
    add_slices t.outbox iov
  in
  let rec recv buf off len =
    if not t.connected then raise Oncrpc.Transport.Closed;
    let available = Buffer.length t.inbox - t.inbox_pos in
    if available > 0 then begin
      let n = min len available in
      Buffer.blit t.inbox t.inbox_pos buf off n;
      t.inbox_pos <- t.inbox_pos + n;
      n
    end
    else if Buffer.length t.outbox > t.held then begin
      (match exchange t with
      | () -> ()
      | exception Crashed -> raise Oncrpc.Transport.Closed);
      recv buf off len
    end
    else begin
      (* The client awaits a reply but nothing is in flight any more: the
         record (or its reply) was dropped. Model the retransmission
         timeout — the virtual time a real client would wait before
         concluding loss — and report it. *)
      net_advance t "net.rto" (Int64.to_int t.rto);
      Obs.Recorder.incr t.obs "net.rto";
      t.timeouts <- t.timeouts + 1;
      raise Oncrpc.Transport.Timeout
    end
  in
  t.transport <-
    Oncrpc.Transport.make ~sendv ~send ~recv ~close:(fun () -> ()) ();
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
