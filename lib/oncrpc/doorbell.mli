(** Doorbell-style batching of small wire records.

    Wraps a {!Transport.t} so that writes stage into a pending batch and
    the underlying transport sees ONE vectored submit per batch — the
    doorbell ring. The flush policy fires on record count, byte volume, a
    virtual-time deadline armed when the batch opens, and always before a
    [recv] blocks (a reply cannot arrive for an unsubmitted call).

    A retransmitted call simply re-enters the current batch with its
    original xid, preserving the server's at-most-once semantics. *)

type policy = {
  max_records : int;  (** flush when the batch holds this many records *)
  max_bytes : int;  (** flush when the batch holds this many bytes *)
  deadline_ns : int64 option;
      (** flush this long (virtual ns) after the batch opens; requires
          [schedule] to be provided at {!wrap} time *)
}

val default_policy : policy
(** 32 records / 64 KiB, no deadline. *)

type stats = {
  flushes : int;
  flush_records : int;
  flush_bytes : int;
  flush_deadline : int;
  flush_recv : int;
  batched : int;  (** total records staged *)
  max_batch : int;  (** largest flushed batch, in records *)
}

type t

val wrap :
  ?policy:policy ->
  ?schedule:(int64 -> (unit -> unit) -> unit) ->
  Transport.t ->
  t
(** [schedule delay_ns k] must run [k] after [delay_ns] of virtual time
    (e.g. [Simnet.Engine.schedule_after]); without it the deadline clause
    is inert. *)

val transport : t -> Transport.t
(** The batching transport to hand to the RPC client. *)

val flush : t -> unit
(** Ring the doorbell now (no-op on an empty batch). *)

val pending_records : t -> int
val stats : t -> stats

val set_obs : t -> Obs.Recorder.t -> unit
(** Counters: ["rpc.doorbell_flush"]; histogram ["rpc.batch_occupancy"]
    (records per flush). *)
