(** Scatter-gather TCP segments.

    The endpoint's internal segment representation: identical header
    fields to {!Segment.t} but the payload is an {!Xdr.Iovec.t} of views
    aliasing the sender's queued data, and [window] is not clamped to the
    16-bit wire field (window scaling). {!Netdev} moves frames between
    endpoints without flattening them; the byte-encoding {!Medium} path
    materializes via {!to_segment}. *)

type t = {
  src_port : int;
  dst_port : int;
  seq : Seqnum.t;
  ack : Seqnum.t;
  flags : Segment.flags;
  window : int;
  payload : Xdr.Iovec.t;
  payload_len : int;  (** [Xdr.Iovec.length payload], precomputed *)
}

val of_segment : Segment.t -> t
(** Zero-copy view of a decoded wire segment. *)

val to_segment : t -> Segment.t
(** Materialize the payload into a flat buffer (the one copy the
    byte-wire path pays per transmission). *)

val sub : t -> int -> int -> t
(** [sub t pos len] is the payload range [pos, pos+len) as its own frame:
    sequence number advanced by [pos], payload aliased, SYN kept only at
    [pos = 0], FIN/PSH only on the final range. Used by {!Netdev} for TSO
    segmentation and GRO re-coalescing. *)
