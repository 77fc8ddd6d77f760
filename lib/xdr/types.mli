(** Shared error type for XDR (RFC 4506) encoding and decoding.

    XDR is a strict, big-endian, 4-byte-aligned serialization format. All
    failures raised by {!Encode} and {!Decode} carry an {!error} describing
    exactly what went wrong, so RPC layers can map them to protocol-level
    replies (e.g. [GARBAGE_ARGS]). *)

type error =
  | Truncated of { wanted : int; available : int }
      (** The decoder needed [wanted] more bytes but only [available]
          remained. *)
  | Size_exceeded of { limit : int; requested : int }
      (** A variable-length item declared a size above its protocol limit. *)
  | Invalid_bool of int32  (** A boolean field held a value other than 0/1. *)
  | Invalid_enum of int32  (** An enum field held an unknown discriminant. *)
  | Invalid_union of int32
      (** A union discriminant did not match any declared arm. *)
  | Invalid_padding
      (** Alignment padding bytes were non-zero (RFC 4506 requires zero). *)
  | Trailing_bytes of int
      (** [finish] found this many undecoded bytes after the last item. *)
  | Invalid_utf8 (** A string field failed an (optional) UTF-8 check. *)
  | Negative_size of int
      (** A length or count field decoded to a negative value. *)

exception Error of error

val error_to_string : error -> string
(** Human-readable rendering of an {!error}. *)

val fail : error -> 'a
(** [fail e] raises {!Error}[ e]. *)

val padding_of : int -> int
(** [padding_of n] is the number of zero bytes (0–3) required to pad an
    [n]-byte item to the next 4-byte boundary. *)
