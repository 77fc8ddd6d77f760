(* The virtual-time channel as it was before it framed through
   [Oncrpc.Record.Inbox] and [Outbox]: what the client writes piles up in a
   byte buffer that each exchange walks record by record, and the replies
   are framed into a second buffer that reads are served from. The
   reference [Unikernel.Simchannel] must match, call for call: the same
   records dispatched, the same bytes and exceptions on every read, the
   same stats and the same virtual time. Observability spans aside, the
   code is the old channel's. *)

module Time = Simnet.Time
module Engine = Simnet.Engine
module Fault = Simnet.Fault

let rto = Time.ns 200_000

type t = {
  engine : Engine.t;
  client : Simnet.Hostprofile.t;
  dispatch : string -> string;
  fault : Fault.t option;
  on_crash : down_for:Time.t -> unit;
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
  mutable held : int;
      (* leading outbox bytes of that incomplete record, already charged
         and counted when they crossed the link *)
  inbox : Buffer.t;  (* the framed replies of the last exchange *)
  mutable inbox_pos : int;
  mutable connected : bool;
  mutable down_until : Time.t;
}

exception Crashed

let drop_in_flight t =
  Buffer.clear t.outbox;
  t.held <- 0;
  Buffer.clear t.inbox;
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
  if String.length reply > 0 then
    match decide t with
    | Fault.Drop | Fault.Corrupt -> ()
    | Fault.Pass -> Oncrpc.Record.add_wire t.inbox reply
    | Fault.Duplicate ->
        Oncrpc.Record.add_wire t.inbox reply;
        Oncrpc.Record.add_wire t.inbox reply
    | Fault.Delay d ->
        Engine.advance_ns t.engine (Int64.to_int d);
        Oncrpc.Record.add_wire t.inbox reply

let dispatch_record t record =
  match decide t with
  | Fault.Drop | Fault.Corrupt -> check_crash t
  | Fault.Pass ->
      check_crash t;
      deliver_reply t (t.dispatch record)
  | Fault.Duplicate ->
      check_crash t;
      deliver_reply t (t.dispatch record);
      deliver_reply t (t.dispatch record)
  | Fault.Delay d ->
      check_crash t;
      Engine.advance_ns t.engine (Int64.to_int d);
      deliver_reply t (t.dispatch record)

let exchange t =
  let request_len = Buffer.length t.outbox - t.held in
  let request_ns =
    Simnet.Netcost.one_way_ns ~sender:t.client
      ~receiver:Unikernel.Config.server_profile ~link:Unikernel.Config.link
      request_len
  in
  Engine.advance_ns t.engine request_ns;
  Buffer.clear t.inbox;
  t.inbox_pos <- 0;
  (* every complete record, in order, each dispatched as soon as the walk
     reaches it: a refused header further on raises after the records
     ahead of it have been served *)
  let stream = Buffer.contents t.outbox in
  let consumed =
    match Record_walk.walk stream (dispatch_record t) with
    | n -> n
    | exception e ->
        drop_in_flight t;
        raise e
  in
  Buffer.clear t.outbox;
  Buffer.add_substring t.outbox stream consumed (String.length stream - consumed);
  t.held <- Buffer.length t.outbox;
  let reply_len = Buffer.length t.inbox in
  let reply_ns =
    Simnet.Netcost.one_way_ns ~sender:Unikernel.Config.server_profile
      ~receiver:t.client ~link:Unikernel.Config.link reply_len
  in
  Engine.advance_ns t.engine reply_ns;
  t.messages <- t.messages + 1;
  t.bytes_to_server <- t.bytes_to_server + request_len;
  t.bytes_from_server <- t.bytes_from_server + reply_len;
  t.network_ns <- t.network_ns + request_ns + reply_ns

let create ~engine ~client ?fault ?(on_crash = fun ~down_for:_ -> ())
    ~dispatch () =
  let t =
    {
      engine; client; dispatch; fault; on_crash; messages = 0;
      bytes_to_server = 0; bytes_from_server = 0; network_ns = 0;
      timeouts = 0; crashes = 0; reconnects = 0;
      transport =
        Oncrpc.Transport.make ~send:(fun _ _ _ -> ()) ~recv:(fun _ _ _ -> 0)
          ~close:ignore ();
      outbox = Buffer.create 1024; held = 0; inbox = Buffer.create 1024;
      inbox_pos = 0; connected = true; down_until = Time.zero;
    }
  in
  let send buf off len =
    if not t.connected then raise Oncrpc.Transport.Closed;
    Buffer.add_subbytes t.outbox buf off len
  in
  let sendv iov =
    if not t.connected then raise Oncrpc.Transport.Closed;
    Xdr.Iovec.iter
      (fun s ->
        Buffer.add_substring t.outbox s.Xdr.Iovec.base s.Xdr.Iovec.off
          s.Xdr.Iovec.len)
      iov
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
      Engine.advance_ns t.engine (Int64.to_int rto);
      t.timeouts <- t.timeouts + 1;
      raise Oncrpc.Transport.Timeout
    end
  in
  t.transport <- Oncrpc.Transport.make ~sendv ~send ~recv ~close:ignore ();
  t

let transport t = t.transport

let reconnect t =
  if Time.compare (Engine.now t.engine) t.down_until < 0 then
    raise Oncrpc.Transport.Closed;
  t.connected <- true;
  drop_in_flight t;
  t.reconnects <- t.reconnects + 1;
  t.transport

let stats t =
  {
    Unikernel.Simchannel.messages = t.messages;
    bytes_to_server = t.bytes_to_server;
    bytes_from_server = t.bytes_from_server;
    network_time = Int64.of_int t.network_ns;
    timeouts = t.timeouts;
    crashes = t.crashes;
    reconnects = t.reconnects;
  }

let fault_stats t = Option.map Fault.stats t.fault
