(** Virtual-time RPC channel between a simulated client host and the GPU
    node.

    Implements {!Oncrpc.Transport.t} for the benchmark harness: the client
    writes record-marked request bytes; when it reads, the channel charges
    the {!Simnet.Netcost} one-way time for the request (client profile →
    server profile), dispatches the record to the Cricket server (whose
    CUDA-side costs advance the same clock through the context's clock
    hooks), charges the reply's one-way time, and hands the reply bytes
    back. Wall-clock-free: all time is the engine's virtual clock.

    Requests are reassembled by an {!Oncrpc.Record.Inbox} as they are
    written, and replies are framed by an {!Oncrpc.Record.Outbox} as they
    are read, as {!Cricket.Local} does; only the pricing and the fault plan
    are this channel's own. Only complete records are dispatched. A record
    whose tail the client has not written yet waits in the channel for the
    rest, so a client reading for its reply meanwhile gets
    {!Oncrpc.Transport.Timeout} after the retransmission timeout (200 µs).
    A fragment header claiming more than a record may hold (see
    {!Oncrpc.Record.Oversized}) is refused before anything is allocated
    for it; the next read raises {!Oncrpc.Record.Oversized} before any
    record of that exchange is dispatched, and drops the bytes in flight
    — the records completed ahead of the refused header included: the
    stream cannot be framed past it.

    {b Fault injection.} With a {!Simnet.Fault} plan installed the channel
    consults it once per RPC record in each direction. A dropped or
    corrupted record manifests to the client as {!Oncrpc.Transport.Timeout}
    after the modelled retransmission timeout — the receiver's
    integrity check discards corrupt records, so both are loss. Duplicated
    request records reach the server twice (exercising its
    duplicate-request cache); duplicated replies exercise the client's
    stale-xid skipping. A scheduled crash kills the connection
    ({!Oncrpc.Transport.Closed}), loses everything in flight, invokes
    [on_crash] (where the harness respawns the server process), and makes
    {!reconnect} fail until the restart instant has passed — exactly the
    failure the Cricket session-recovery protocol handles. *)

type stats = {
  messages : int;  (** request/reply exchanges *)
  bytes_to_server : int;  (** wire bytes, requests *)
  bytes_from_server : int;
  network_time : Simnet.Time.t;  (** virtual time spent in the channel *)
  timeouts : int;  (** retransmission timeouts fired (lost records) *)
  crashes : int;  (** scheduled server crashes that fired *)
  reconnects : int;  (** successful {!reconnect}s *)
}

type t

val create :
  engine:Simnet.Engine.t ->
  client:Simnet.Hostprofile.t ->
  ?fault:Simnet.Fault.t ->
  ?on_crash:(down_for:Simnet.Time.t -> unit) ->
  dispatch:(string -> string) ->
  unit ->
  t
(** A channel from [client] to the GPU node, a {!Config.server_profile}
    host, over a {!Config.link}. 200 µs of virtual time are charged before
    a lost record surfaces as {!Oncrpc.Transport.Timeout}. [on_crash] runs
    at the instant a scheduled crash fires, before the crash surfaces to
    the client — respawn the server there and route [dispatch] through a
    reference if recovery should succeed. *)

val transport : t -> Oncrpc.Transport.t

val set_obs : t -> Obs.Recorder.t -> unit
(** Attach an observability recorder: every virtual-time advance this
    channel performs is wrapped in a ["net"]-layer span
    (["net.request"] / ["net.reply"] serialization, ["net.delay"] fault
    delays, ["net.rto"] retransmission timeouts — the latter also bumps
    the ["net.rto"] counter), so the layer's total is exactly the modelled
    network time. One branch per event while the recorder is disabled. *)

val reconnect : t -> Oncrpc.Transport.t
(** Re-establish the connection after a crash. Raises
    {!Oncrpc.Transport.Closed} while the server is still restarting (the
    caller is expected to back off in virtual time and retry — exactly
    what {!Oncrpc.Client}'s retry loop does with this function as its
    reconnect hook). Any bytes from the previous connection are gone. *)

val stats : t -> stats
val fault_stats : t -> Simnet.Fault.stats option
