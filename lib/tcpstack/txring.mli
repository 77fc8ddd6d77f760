(** Offset-tracked send buffer for {!Endpoint}.

    Holds application data awaiting segmentation as a FIFO of immutable
    {!Xdr.Iovec.slice} views plus an offset into the head slice.
    {!take} carves the next [n] bytes off the front as an iovec {e
    aliasing} the queued storage — no payload byte is copied when a
    segment is cut, and consuming the front is O(slices touched) instead
    of the seed's O(remaining bytes) buffer rebuild per segment. *)

type t

val create : unit -> t

val length : t -> int
(** Unconsumed bytes queued. *)

val push_bytes : t -> bytes -> unit
(** Enqueue a copy of [b] (the caller may reuse [b] afterwards). *)

val push_iovec : t -> Xdr.Iovec.t -> unit
(** Enqueue views; the caller must not mutate the underlying storage
    while it is queued or in flight (the {!Xdr.Iovec} contract). *)

val take : t -> int -> Xdr.Iovec.t
(** [take t n] removes and returns the front [n] bytes as slices sharing
    the queued storage. Raises [Invalid_argument] if fewer than [n] bytes
    are queued. *)

val clear : t -> unit
