(** Virtio-net-style device model between two endpoints.

    Where {!Medium} models a raw byte wire, [Netdev] models the NIC
    boundary §4.2 of the paper is about: per-guest feature negotiation
    (device ∩ driver, virtio 1.1 §2.2) decides which side of the
    guest/device line performs segmentation (TSO), checksum
    stamping/validation, receive coalescing (GRO), and staging copies
    (scatter-gather), and the corresponding {!Simnet.Hostprofile.t} costs
    are charged on three per-direction pipeline cursors (guest tx CPU,
    wire serialization, receiver CPU). Frames move as scatter-gather
    {!Frame.t} values end to end — TSO segmentation and GRO re-coalescing
    alias payload slices; the only physical copy is the staging flatten
    charged when scatter-gather is off.

    Faults apply per wire segment: [Drop] flushes the current GRO run,
    [Corrupt] is an FCS drop at the device when rx checksum is offloaded
    and a software-verify rejection (on an actually bit-flipped copy)
    otherwise, [Delay] stalls the wire cursor, [Duplicate] delivers a
    single-segment unit twice. *)

type stats = {
  guest_tx_frames : int;  (** frames handed over by the endpoints *)
  wire_segments : int;  (** after TSO segmentation *)
  tso_frames : int;  (** guest frames the device had to segment *)
  rx_units : int;  (** deliveries into receiver stacks (post-GRO) *)
  gro_merged : int;  (** wire segments absorbed into a preceding unit *)
  sw_checksum_bytes : int;  (** bytes checksummed by guest CPUs *)
  staging_copies : int;  (** flattens forced by missing scatter-gather *)
  csum_drops : int;  (** software checksum verification rejections *)
  fcs_drops : int;  (** corrupt segments caught by the device *)
  payload_bytes : int;  (** payload handed over by the endpoints *)
}

type t

val effective : Simnet.Offload.t -> Simnet.Offload.t
(** Dependency clamps: TSO requires tx checksum offload, GRO requires rx
    checksum offload. *)

val connect :
  engine:Simnet.Engine.t ->
  link:Simnet.Link.t ->
  ?fault:Simnet.Fault.t ->
  ?device:Simnet.Offload.t ->
  a:Endpoint.t * Simnet.Hostprofile.t ->
  b:Endpoint.t * Simnet.Hostprofile.t ->
  unit ->
  t
(** Wire both endpoints through the device ([device] defaults to
    {!Simnet.Offload.all}). Installs frame transmitters on both endpoints
    and raises their tx burst when TSO is negotiated. Each guest
    negotiates independently from its profile's [offloads]. *)

val negotiated_a : t -> Simnet.Offload.t
(** Effective (negotiated and clamped) feature set of guest [a]. *)

val set_obs : t -> Obs.Recorder.t -> unit
(** Attach an observability recorder: staging flattens bump
    ["net.staging_copy"] and GRO coalesces bump ["net.gro_merged"] (by the
    number of merges). One branch per event while the recorder is
    disabled. *)

val stats : t -> stats
val fault_stats : t -> Simnet.Fault.stats option
val pp_stats : Format.formatter -> stats -> unit
