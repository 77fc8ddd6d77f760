(** XDR (RFC 4506) decoder.

    A decoder reads items sequentially from an immutable byte string. It
    tracks its position and raises {!Types.Error} on malformed or truncated
    input. Padding bytes are verified to be zero, as the RFC requires.

    The [?max] arguments mirror the encoder's and guard against adversarial
    length fields: a declared length above [max] (or above the remaining
    input) fails before any allocation proportional to it. *)

type t

val of_string : ?pos:int -> ?len:int -> string -> t
(** Decoder over a substring. Defaults: whole string. *)

val of_bytes : ?pos:int -> ?len:int -> bytes -> t
(** Decoder over a byte buffer (the contents are copied; the decoder is not
    affected by later mutation of [bytes]). *)

val pos : t -> int
(** Current offset from the start of the decoding window. *)

val remaining : t -> int
(** Bytes left to decode. *)

val finish : t -> unit
(** Assert that the input is fully consumed; raises [Trailing_bytes]
    otherwise. *)

val skip : t -> int -> unit
(** Advance over [n] raw bytes (no alignment applied). *)

(** {1 Primitive types} *)

val int32 : t -> int32
val uint32 : t -> int32
val int : t -> int
(** Signed XDR int as an OCaml [int]. *)

val uint : t -> int
(** Unsigned XDR int as a non-negative OCaml [int]. *)

val int64 : t -> int64
val uint64 : t -> int64
val bool : t -> bool
val float32 : t -> float
val float64 : t -> float

val enum : t -> check:(int -> bool) -> int
(** Decode an enum and validate it with [check]; raises [Invalid_enum] when
    [check] is false. *)

val void : t -> unit

(** {1 Opaque data and strings} *)

val opaque_fixed : t -> int -> bytes
(** Fixed-length opaque of exactly [n] bytes (plus padding on the wire). *)

val opaque : ?max:int -> t -> bytes
(** Variable-length opaque. *)

val skip_opaque : ?max:int -> t -> unit
(** Step over a variable-length opaque, checking it exactly as {!opaque}
    does (same errors, same order) without copying it out. *)

val opaque_slice : ?max:int -> t -> Iovec.slice
(** Variable-length opaque as a no-copy view of the decoder's backing
    string — how the Cricket server takes an upload into device memory.
    The view stays valid for the lifetime of the decoded message; copy
    out with {!Iovec.slice_to_bytes} when the payload must outlive it. *)

val string : ?max:int -> t -> string
(** XDR string. *)

(** {1 Composite types} *)

val array_fixed : t -> (t -> 'a) -> int -> 'a array
val array : ?max:int -> t -> (t -> 'a) -> 'a array
val list : ?max:int -> t -> (t -> 'a) -> 'a list
val option : t -> (t -> 'a) -> 'a option
