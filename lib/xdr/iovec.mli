(** Scatter-gather message views.

    An iovec represents a wire message as an ordered list of {e slices} —
    views into existing buffers — so that bulk payloads can travel from the
    XDR encoder through record marking down to the transport without being
    copied at each layer. The transport performs the single unavoidable
    copy (into the socket / in-memory queue); every layer above only passes
    slice descriptors around.

    Slices are immutable descriptors but may alias mutable [bytes] (via
    {!of_bytes}): the contract throughout the RPC stack is that the
    aliased buffer is not mutated between encoding and the completion of
    the send, which all callers satisfy because encode-and-send happens
    synchronously within one call. *)

type slice = private { base : string; off : int; len : int }

type t = slice list

val slice : ?off:int -> ?len:int -> string -> slice
(** View of a substring (default: the whole string). Raises
    [Invalid_argument] when out of bounds. *)

val of_bytes : ?off:int -> ?len:int -> bytes -> slice
(** Zero-copy view of a byte buffer. The caller must not mutate the buffer
    while the slice is live. *)

val of_string : string -> t
(** Single-slice iovec over a whole string. *)

val sub_slice : slice -> int -> int -> slice
(** [sub_slice s pos len] is the [len]-byte subview starting [pos] bytes
    into [s]. *)

val length : t -> int
(** Total payload bytes across all slices. *)

val iter : (slice -> unit) -> t -> unit
(** Apply to each non-empty slice in order. *)

val concat : t -> string
(** Flatten into a fresh string (the one copy, when a caller needs
    contiguous bytes). *)

val slice_to_bytes : slice -> bytes
(** Copy one slice out into fresh bytes. *)

val slice_to_string : slice -> string
(** Copy one slice out into a fresh string. *)

val split : t -> int -> t * t
(** [split t n] is [(prefix, rest)] where [prefix] holds exactly [n] bytes,
    sharing storage with [t]. Raises [Invalid_argument] if [t] holds fewer
    than [n] bytes. *)
