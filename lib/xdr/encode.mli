(** XDR (RFC 4506) encoder.

    An encoder accumulates items in XDR wire format: big-endian, every item
    padded to a multiple of 4 bytes. Internally it is a scatter-gather
    structure: small fixed-size fields append to a contiguous buffer, while
    bulk opaques (at or above {!zero_copy_threshold} bytes) are recorded as
    {!Iovec.slice} views of the caller's buffer with no copy. {!to_iovec}
    exposes the message in that vectored form for the zero-copy send path;
    {!to_string}/{!to_bytes} flatten it when contiguous bytes are needed.

    Zero-copy contract: a [bytes] payload passed to {!opaque} (and friends)
    is aliased, not copied, when large. The caller must not mutate it until
    the message has been sent or flattened — trivially satisfied by the RPC
    stack, which encodes and sends synchronously within one call.

    An encoder holds one message at a time; a per-message path borrows one
    from a {!spare} instead of creating it. All [?max] arguments enforce protocol-declared size limits and
    raise {!Types.Error} ([Size_exceeded]) when violated. *)

type t

val zero_copy_threshold : int
(** Opaques at least this long (1 KiB) are recorded as slices rather than
    copied into the encoder's buffer. *)

val create : ?initial_size:int -> unit -> t
(** Fresh empty encoder. [initial_size] pre-sizes the internal buffer
    (default 256 bytes). *)

val length : t -> int
(** Number of bytes encoded so far. Always a multiple of 4. *)

val to_bytes : t -> bytes
(** Copy of the encoded contents. *)

val to_string : t -> string
(** Encoded contents as a string (copies). *)

val to_iovec : t -> Iovec.t
(** The encoded message as a list of slices, without flattening: bulk
    payloads appear as views of the caller's original buffers. The small
    accumulated fields are sealed into immutable strings, so the result
    remains valid if the encoder is later reused. Raises [Invalid_argument]
    if the message holds a deferred {!opaque_fill}. *)

val reset : t -> unit
(** Clear the encoder for reuse. *)

val is_flat : t -> bool
(** Every byte encoded so far is in the encoder's own buffer: no slice
    view and no deferred {!opaque_fill}. *)

val blit : t -> bytes -> int -> unit
(** [blit t b off] copies the message of a flat encoder to
    [b.[off .. off + length t)]. Raises [Invalid_argument] if the encoder
    is not flat. *)

(** {1 Spare encoders}

    A spare lends one encoder at a time, so a per-message path can encode
    without creating an encoder. [take] gives the lent encoder to exactly
    one taker, on any domain or thread; while it is out, [take] returns a
    fresh encoder instead, so a nested message (one encoded while another
    is still being built) never shares bytes with its outer one. The
    taker must have copied out everything it keeps — {!to_string},
    {!to_bytes}, {!blit} and {!to_iovec} all do — before {!give_back}. *)

type spare

val spare : initial_size:int -> spare
(** A spare whose encoders start with [initial_size] bytes of buffer. *)

val take : spare -> t
(** The lent encoder, empty, or a fresh one if it is out. *)

val give_back : spare -> t -> unit
(** Clear [t] and lend it from the spare again. A buffer that grew past
    the spare's size is released. *)

(** {1 Primitive types} *)

val int32 : t -> int32 -> unit
val uint32 : t -> int32 -> unit
(** Unsigned 32-bit value carried in an [int32] (two's-complement bits). *)

val int : t -> int -> unit
(** Encode an OCaml [int] as a signed XDR int. Raises [Size_exceeded] if the
    value does not fit in 32 bits. *)

val uint : t -> int -> unit
(** Encode a non-negative OCaml [int] as an unsigned XDR int (< 2^32).
    Raises [Negative_size] for negative input. *)

val int64 : t -> int64 -> unit
(** XDR hyper. *)

val uint64 : t -> int64 -> unit
(** XDR unsigned hyper (bit pattern of the [int64]). *)

val bool : t -> bool -> unit
val float32 : t -> float -> unit
(** XDR single-precision float (precision is reduced to IEEE 754 binary32). *)

val float64 : t -> float -> unit
val enum : t -> int -> unit
(** Enums are encoded exactly like signed ints. *)

(** {1 Opaque data and strings} *)

val opaque_fixed : t -> bytes -> unit
(** Fixed-length opaque: raw bytes plus zero padding, no length prefix. *)

val opaque_sub : ?max:int -> t -> bytes -> int -> int -> unit
(** [opaque_sub enc b off len] encodes [len] bytes of [b] starting at [off]
    as variable-length opaque (length prefix + data + padding) without
    copying the source into an intermediate buffer. *)

val opaque : ?max:int -> t -> bytes -> unit
(** Variable-length opaque: 4-byte length, data, zero padding. Large
    payloads are sliced, not copied (see the zero-copy contract above). *)

val opaque_fill : t -> int -> (bytes -> int -> unit) -> unit
(** [opaque_fill enc len write] encodes a variable-length opaque of [len]
    bytes that [write b off] produces at [b.[off .. off + len)]. From
    {!zero_copy_threshold} up, [write] runs only when {!to_string} or
    {!to_bytes} lays the message out, straight into its result, so the
    payload is copied once; until then {!to_iovec} raises
    [Invalid_argument]. A shorter opaque is written at once. *)

val string : ?max:int -> t -> string -> unit
(** XDR string: identical wire format to variable-length opaque. *)

(** {1 Composite types} *)

val array_fixed : t -> (t -> 'a -> unit) -> 'a array -> unit
(** Fixed-length array: elements only, no count prefix. *)

val array : ?max:int -> t -> (t -> 'a -> unit) -> 'a array -> unit
(** Variable-length array: 4-byte count then elements. *)

val list : ?max:int -> t -> (t -> 'a -> unit) -> 'a list -> unit
(** Variable-length array encoded from a list. *)

val option : t -> (t -> 'a -> unit) -> 'a option -> unit
(** XDR optional-data ("pointer"): bool discriminant then the value. *)
