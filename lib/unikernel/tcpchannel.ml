module Time = Simnet.Time
module Engine = Simnet.Engine
module EP = Tcpstack.Endpoint

(* The [tcp_sim] transport: the same client/dispatch contract as
   {!Simchannel}, but the bytes actually traverse the executable TCP stack
   — two {!Tcpstack.Endpoint}s joined by a {!Tcpstack.Netdev} with the
   configuration's negotiated offload feature bits. Where Simchannel
   charges {!Simnet.Netcost}'s closed form per exchange, here segmentation,
   ACK clocking, congestion control and offload costs all emerge from the
   stack itself; only the socket-layer syscall cost (which no NIC feature
   bit changes) is charged explicitly, mirroring Netcost's term.

   Loss behaves differently from Simchannel by design: a fault plan is
   applied per TCP segment inside the netdev, and the stack's
   retransmission machinery heals drops transparently — the RPC layer sees
   a slower byte stream, not a timeout.

   The client-side send performs exactly one staging copy
   ([Xdr.Iovec.concat]) before handing the record to the endpoint. It is
   not an oversight: the endpoint's retransmit queue aliases queued slices
   until they are acknowledged. The encoder's own buffers are not at risk
   ([Xdr.Encode.flush] hands out fresh strings), but a bulk opaque is a
   view of the caller's payload ([Xdr.Iovec.of_bytes]), and after a
   one-way call returns the caller may write to that payload while the
   queue still holds it — the copy is the sk_buff boundary. Server
   replies need no such copy: a reply is a fresh immutable string, framed
   as header slices plus views of it (a doorbell batch is the exception,
   see [reply_out]).

   On receive, the client transport's [recv] and the server's record
   reassembly ({!Oncrpc.Record.Inbox.next}) both read straight out of
   their endpoint ([Endpoint.recv_into]); the inbox lands each fragment in
   a buffer of its header-claimed size, refusing an oversized claim first,
   and joins fragments only when a record has more than one. With the RPC
   engine, each rx burst is read into a scratch the channel owns and
   reuses, and the engine reassembles from there. *)

type stats = {
  messages : int;  (** request records dispatched at the server *)
  bytes_to_server : int;
  bytes_from_server : int;
  network_time : Time.t;  (** virtual time blocked on the stack *)
  timeouts : int;
}

let io_chunk = 65_536

type t = {
  engine : Engine.t;
  client_prof : Simnet.Hostprofile.t;
  server_prof : Simnet.Hostprofile.t;
  client_ep : EP.t;
  server_ep : EP.t;
  netdev : Tcpstack.Netdev.t;
  dispatch : string -> string;
  dispatch_parsed :
    (ident:string -> Tcpstack.Rpcdev.parsed -> string -> string) option;
  (* the RPC engine (RPCAcc direction): present when the channel was
     created with an rpc device offer; its negotiated feature bits decide
     whether framing/parse/steer run as device or host-software work *)
  rpcdev : Tcpstack.Rpcdev.t option;
  negotiated_rpc : Simnet.Offload.t;
  mutable doorbell : Oncrpc.Doorbell.t option;
  (* server-side reply coalescing under rpc_doorbell: replies produced in
     one rx burst leave as one submit *)
  reply_batch : Buffer.t;
  mutable transport : Oncrpc.Transport.t;
  (* server-side record reassembly (RFC 5531 §11) without the engine,
     reading straight out of the server endpoint: each fragment lands in a
     buffer of exactly its header-claimed size, so reassembly over the
     whole run is O(bytes) with one copy per byte (two for multi-fragment
     records) *)
  inbox : Oncrpc.Record.Inbox.t;
  (* what the engine is handed of each rx burst. It belongs to the
     channel, not to the module: channels run on several domains at once
     (lib/par), and a shared scratch would mix their bursts. *)
  mutable rx : Bytes.t;
  mutable messages : int;
  mutable bytes_to_server : int;
  mutable bytes_from_server : int;
  mutable network_ns : int;
  mutable timeouts : int;
  mutable obs : Obs.Recorder.t;
  (* virtual time spent inside server dispatch, accumulated so the recv
     wait span can report blocked-on-network time net of dispatch time *)
  mutable dispatched_ns : Time.t;
}

let set_obs t obs =
  t.obs <- obs;
  EP.set_obs t.client_ep obs;
  EP.set_obs t.server_ep obs;
  Tcpstack.Netdev.set_obs t.netdev obs;
  Option.iter (fun r -> Tcpstack.Rpcdev.set_obs r obs) t.rpcdev;
  Option.iter (fun d -> Oncrpc.Doorbell.set_obs d obs) t.doorbell

(* The socket-layer cost Netcost charges per 64 KiB io chunk; the NIC-side
   costs are the netdev's business. *)
let charge_syscalls t (p : Simnet.Hostprofile.t) len =
  let syscalls = max 1 ((len + io_chunk - 1) / io_chunk) in
  let sp = Obs.Recorder.span_begin t.obs ~layer:"net" "net.syscall" in
  Engine.advance t.engine
    (Time.ns
       (syscalls
       * (p.Simnet.Hostprofile.syscall_ns
         + p.Simnet.Hostprofile.context_switch_ns)));
  Obs.Recorder.span_end t.obs sp

(* Replies are framed without copying: the wire image is the fragment
   headers plus views of the reply string, which is freshly encoded and
   never mutated, so the endpoint may alias it until it is acknowledged.
   Under the doorbell the (small) replies of one rx burst are framed
   straight into one contiguous submit instead, which is cheaper than
   carrying two slices per reply through the send ring. *)
let count_reply t len = t.bytes_from_server <- t.bytes_from_server + len

let reply_out t reply =
  if reply <> "" then
    if t.negotiated_rpc.Simnet.Offload.rpc_doorbell then begin
      (* coalesce: every reply of this rx burst rides one submit *)
      let before = Buffer.length t.reply_batch in
      Oncrpc.Record.add_wire t.reply_batch reply;
      count_reply t (Buffer.length t.reply_batch - before)
    end
    else begin
      let wire = Oncrpc.Record.wirev (Xdr.Iovec.of_string reply) in
      let len = Xdr.Iovec.length wire in
      count_reply t len;
      charge_syscalls t t.server_prof len;
      EP.sendv t.server_ep wire
    end

let flush_replies t =
  if Buffer.length t.reply_batch > 0 then begin
    let wire = Buffer.contents t.reply_batch in
    Buffer.clear t.reply_batch;
    charge_syscalls t t.server_prof (String.length wire);
    EP.send_string t.server_ep wire
  end

(* Pull whatever the server endpoint holds through the record parser and
   dispatch each record as it completes; replies go back onto the server
   endpoint. A fragment header's claim is bounded before its buffer is
   allocated. If a dispatch raises, the bytes after its record stay in the
   endpoint. *)
let feed_server t =
  let ep = t.server_ep in
  while EP.recv_length ep > 0 do
    match Oncrpc.Record.Inbox.next t.inbox EP.recv_into ep with
    | None -> ()
    | Some request ->
        t.messages <- t.messages + 1;
        let t0 = Engine.now t.engine in
        let reply = t.dispatch request in
        t.dispatched_ns <-
          Time.add t.dispatched_ns (Time.sub (Engine.now t.engine) t0);
        reply_out t reply
  done

let serve_entry t (e : Tcpstack.Rpcdev.entry) =
  t.messages <- t.messages + 1;
  let reply =
    match (e.Tcpstack.Rpcdev.parse, t.dispatch_parsed) with
    | Some (Ok p), Some f -> f ~ident:e.Tcpstack.Rpcdev.ident p e.record
    | _ ->
        (* no parse negotiated, a device punt, or no fast-path
           dispatcher installed: full software dispatch *)
        t.dispatch e.Tcpstack.Rpcdev.record
  in
  reply_out t reply

(* Server rx through the RPC engine: the device (or its host-software
   fallback, per negotiated bits) frames, parses and steers; the host
   dispatches each drained entry. The burst is read into the channel's
   scratch, so no buffer is allocated for it. The whole burst — device
   charges included — counts as dispatched time, so the recv wait span
   cannot double-count rpcdev spans against net.wait. *)
let feed_server_rpc t rdev =
  let t0 = Engine.now t.engine in
  let n = EP.recv_length t.server_ep in
  if n > Bytes.length t.rx then
    t.rx <- Bytes.create (max n (2 * Bytes.length t.rx));
  let n = EP.recv_into t.server_ep t.rx 0 n in
  Tcpstack.Rpcdev.feed_sub rdev t.rx 0 n;
  Tcpstack.Rpcdev.drain_iter rdev (serve_entry t);
  t.dispatched_ns <-
    Time.add t.dispatched_ns (Time.sub (Engine.now t.engine) t0);
  flush_replies t

(* Server-side rx after each engine step. The client side needs no
   draining: its transport reads straight out of the client endpoint. *)
let drain t =
  if EP.recv_length t.server_ep > 0 then
    match t.rpcdev with
    | Some rdev -> feed_server_rpc t rdev
    | None -> feed_server t

let default_rto = Time.us 200

let create ~engine ~client ?fault ?device ?(rto = default_rto) ?rpc
    ?(ident = "") ?dispatch_parsed
    ?(doorbell_policy = Oncrpc.Doorbell.default_policy) ~dispatch () =
  let server = Config.server_profile and link = Config.link in
  (* RPC-engine negotiation: the device offer intersected with what the
     client guest's driver shim acknowledges, then dependency-clamped.
     No [rpc] offer means no engine at all — the legacy byte-stream path,
     charged exactly as before. *)
  let negotiated_rpc =
    match rpc with
    | None -> Simnet.Offload.none
    | Some offer ->
        Tcpstack.Rpcdev.effective
          (Simnet.Offload.negotiate ~device:offer
             ~guest:client.Simnet.Hostprofile.offloads)
  in
  let rpcdev =
    match rpc with
    | None -> None
    | Some _ ->
        Some
          (Tcpstack.Rpcdev.create ~engine ~profile:server
             ~features:negotiated_rpc
             ~alloc:(Oncrpc.Pool.acquire Oncrpc.Pool.default)
             ~free:(Oncrpc.Pool.release Oncrpc.Pool.default)
             ~ident ())
  in
  let mss = Simnet.Link.mss link in
  let window = 64 lsl 20 in
  let client_ep =
    EP.create ~engine ~name:"rpc-client" ~mss ~iss:0 ~local_port:46000
      ~remote_port:33333 ~rcv_window:window ~rto ()
  in
  let server_ep =
    EP.create ~engine ~name:"cricket-server" ~mss ~iss:0 ~local_port:33333
      ~remote_port:46000 ~rcv_window:window ~rto ()
  in
  let netdev =
    Tcpstack.Netdev.connect ~engine ~link ?fault ?device ~a:(client_ep, client)
      ~b:(server_ep, server) ()
  in
  let t =
    { engine; client_prof = client; server_prof = server; client_ep;
      server_ep; netdev; dispatch; dispatch_parsed; rpcdev; negotiated_rpc;
      doorbell = None; reply_batch = Buffer.create 4096;
      transport =
        Oncrpc.Transport.make
          ~send:(fun _ _ _ -> ())
          ~recv:(fun _ _ _ -> 0)
          ~close:(fun () -> ())
          ();
      inbox = Oncrpc.Record.Inbox.create (); rx = Bytes.empty;
      messages = 0; bytes_to_server = 0; bytes_from_server = 0;
      network_ns = 0; timeouts = 0;
      obs = Obs.Recorder.null; dispatched_ns = Time.zero }
  in
  EP.listen server_ep;
  EP.connect client_ep;
  while
    (EP.state client_ep <> EP.Established
    || EP.state server_ep <> EP.Established)
    && Engine.step engine
  do
    ()
  done;
  if EP.state client_ep <> EP.Established then
    failwith "Tcpchannel.create: handshake failed";
  let push s =
    t.bytes_to_server <- t.bytes_to_server + String.length s;
    charge_syscalls t t.client_prof (String.length s);
    EP.send_string t.client_ep s
  in
  let send buf off len = push (Bytes.sub_string buf off len) in
  (* the one staging copy: the retransmit queue will alias this string
     until the server ACKs it, so it must not alias the caller's payload:
     a bulk opaque is a view of it, and the caller may write to it as soon
     as a one-way call returns *)
  let sendv iov = push (Xdr.Iovec.concat iov) in
  let recv buf off len =
    if EP.recv_length client_ep = 0 then begin
      let t0 = Engine.now engine in
      let d0 = t.dispatched_ns in
      drain t;
      while EP.recv_length client_ep = 0 && Engine.step engine do
        drain t
      done;
      t.network_ns <- t.network_ns + Engine.now_ns engine - Int64.to_int t0;
      (* The wait interval covers both stack time and the server dispatch
         it triggered; the dispatch layer records itself, so the net span
         is the blocked time with dispatch time carved out (placed at the
         end of the interval to keep exact timestamps). *)
      if Obs.Recorder.enabled t.obs then begin
        let dispatch_d = Time.sub t.dispatched_ns d0 in
        Obs.Recorder.span_event t.obs ~layer:"net" ~name:"net.wait"
          ~start_ns:(Time.add t0 dispatch_d)
          ~stop_ns:(Engine.now engine)
      end;
      if EP.recv_length client_ep = 0 then begin
        (* the event queue ran dry with no reply bytes in flight: nothing
           will ever arrive (e.g. a one-way misuse); model the wait *)
        let sp = Obs.Recorder.span_begin t.obs ~layer:"net" "net.rto" in
        Engine.advance engine rto;
        Obs.Recorder.span_end t.obs sp;
        Obs.Recorder.incr t.obs "net.rto";
        t.timeouts <- t.timeouts + 1;
        raise Oncrpc.Transport.Timeout
      end
    end;
    EP.recv_into client_ep buf off len
  in
  t.transport <-
    Oncrpc.Transport.make ~sendv ~send ~recv ~close:(fun () -> ()) ();
  if negotiated_rpc.Simnet.Offload.rpc_doorbell then begin
    (* doorbell batching negotiated: the client's calls stage into one
       wire submit; deadlines run on the engine's virtual clock *)
    let db =
      Oncrpc.Doorbell.wrap ~policy:doorbell_policy
        ~schedule:(fun delay k -> Engine.schedule_after engine delay k)
        t.transport
    in
    t.doorbell <- Some db;
    t.transport <- Oncrpc.Doorbell.transport db
  end;
  t

let transport t = t.transport

let stats t =
  { messages = t.messages; bytes_to_server = t.bytes_to_server;
    bytes_from_server = t.bytes_from_server;
    network_time = Int64.of_int t.network_ns; timeouts = t.timeouts }

let negotiated_rpc t = t.negotiated_rpc
let rpcdev_stats t = Option.map Tcpstack.Rpcdev.stats t.rpcdev
let doorbell_stats t = Option.map Oncrpc.Doorbell.stats t.doorbell
let netdev_stats t = Tcpstack.Netdev.stats t.netdev
let negotiated_client t = Tcpstack.Netdev.negotiated_a t.netdev
let endpoint_stats t = (EP.stats t.client_ep, EP.stats t.server_ep)
let fault_stats t = Tcpstack.Netdev.fault_stats t.netdev
