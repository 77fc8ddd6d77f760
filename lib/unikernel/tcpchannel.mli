(** The [tcp_sim] RPC channel: Cricket client/server traffic over the
    executable TCP stack.

    Same contract as {!Simchannel} — an {!Oncrpc.Transport.t} for the
    client, a dispatch function for the server — but the bytes traverse
    two {!Tcpstack.Endpoint}s joined by a {!Tcpstack.Netdev}, so
    segmentation (TSO), checksum offload, GRO, congestion control and loss
    recovery all come from the stack rather than from
    {!Simnet.Netcost}'s closed form. The offload feature bits are
    negotiated from the client configuration's
    {!Simnet.Hostprofile.t} against the device, reproducing the §4.2
    per-configuration bandwidth gaps on the executable path (see
    {!Netbench}).

    Fault plans apply per TCP segment inside the netdev: the stack heals
    drops by retransmission, so the RPC layer observes a slower stream
    rather than {!Oncrpc.Transport.Timeout}. *)

type stats = {
  messages : int;  (** request records dispatched at the server *)
  bytes_to_server : int;
  bytes_from_server : int;
  network_time : Simnet.Time.t;  (** virtual time blocked on the stack *)
  timeouts : int;
}

type t

val default_rto : Simnet.Time.t
(** Endpoint retransmission timeout (200 µs — jumbo-frame LAN scale). *)

val create :
  engine:Simnet.Engine.t ->
  client:Simnet.Hostprofile.t ->
  ?fault:Simnet.Fault.t ->
  ?device:Simnet.Offload.t ->
  ?rto:Simnet.Time.t ->
  ?rpc:Simnet.Offload.t ->
  ?ident:string ->
  ?dispatch_parsed:
    (ident:string -> Tcpstack.Rpcdev.parsed -> string -> string) ->
  ?doorbell_policy:Oncrpc.Doorbell.policy ->
  dispatch:(string -> string) ->
  unit ->
  t
(** Create both endpoints — [client] and a {!Config.server_profile}
    GPU node, over a {!Config.link} — negotiate offloads against [device]
    (default {!Simnet.Offload.all}) and run the three-way handshake to
    completion in virtual time.

    [rpc] offers the RPC-engine feature bits (see {!Tcpstack.Rpcdev});
    they are negotiated against the client profile's acknowledged bits and
    dependency-clamped. Without [rpc] the channel behaves exactly as
    before — byte-stream framing in the channel, no extra charges. With it,
    server rx runs through the engine (device or host-software costs per
    negotiated bit); device-parsed calls go to [dispatch_parsed] (falling
    back to [dispatch] for punts or when absent) carrying [ident], the
    tenant identity stamped on steered entries. When [rpc_doorbell] is
    negotiated the client transport batches calls under [doorbell_policy]
    (deadlines on the virtual clock) and the server coalesces each rx
    burst's replies into one submit. *)

val transport : t -> Oncrpc.Transport.t
(** Client-side transport ([sendv] performs the single sk_buff staging
    copy; see implementation notes). *)

val set_obs : t -> Obs.Recorder.t -> unit
(** Attach an observability recorder to the whole network path: the
    channel itself records ["net"]-layer spans (["net.syscall"] socket
    charges, ["net.wait"] time blocked on the stack net of server dispatch
    time, ["net.rto"] dead-queue timeouts plus a ["net.rto"] counter), and
    the recorder is forwarded to both TCP endpoints (retransmit counters,
    {!Tcpstack.Endpoint.set_obs}) and the netdev (staging/GRO counters,
    {!Tcpstack.Netdev.set_obs}). *)

val stats : t -> stats
val netdev_stats : t -> Tcpstack.Netdev.stats
val negotiated_client : t -> Simnet.Offload.t
(** Feature set the client guest actually negotiated (post clamps). *)

val endpoint_stats : t -> Tcpstack.Endpoint.stats * Tcpstack.Endpoint.stats
(** (client, server) endpoint counters — retransmissions etc. *)

val fault_stats : t -> Simnet.Fault.stats option

val negotiated_rpc : t -> Simnet.Offload.t
(** RPC-engine bits actually negotiated (all-off without [?rpc]). *)

val rpcdev_stats : t -> Tcpstack.Rpcdev.stats option
val doorbell_stats : t -> Oncrpc.Doorbell.stats option
