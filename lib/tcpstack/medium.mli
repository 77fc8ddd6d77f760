(** Wire between two {!Endpoint}s, driven by the simulation engine.

    Each transmitted segment is encoded to bytes (with a real checksum),
    run through the optional {!Simnet.Fault} plan, and scheduled for
    delivery after the link's serialization + propagation delay. The
    receiver decodes and checksum-verifies before the segment reaches the
    state machine — a corrupted segment is silently discarded, exactly like
    a NIC without validated checksum would discard it, and recovery happens
    via the sender's retransmission timer. *)

type t

val connect :
  engine:Simnet.Engine.t ->
  link:Simnet.Link.t ->
  ?fault:Simnet.Fault.t ->
  Endpoint.t ->
  Endpoint.t ->
  t
(** Wire two endpoints together. The fault plan is consulted once per
    transmitted segment (0-based, counting both directions in transmission
    order): [Drop] vanishes in flight, [Corrupt] flips a bit so the
    receiver's checksum rejects it, [Duplicate] schedules two deliveries,
    and [Delay] adds extra latency. The wire stays FIFO per direction, so
    a delayed segment also delays everything sent behind it, like a
    stalled queue — reordering is not modelled. Partition windows apply at
    the segment's transmission instant. *)

val delivered : t -> int

val fault_stats : t -> Simnet.Fault.stats option
(** Live fault counters, when a plan is installed. *)
