(** RFC 1071 Internet checksum.

    The 16-bit one's-complement sum used by IP, TCP and UDP. This is the
    computation a guest must perform in software when the NIC/virtio
    checksum offloads (VIRTIO_NET_F_CSUM / GUEST_CSUM) are missing — one of
    the unikernel bandwidth penalties §4.2 quantifies. *)

val sum : ?initial:int -> bytes -> int -> int -> int
(** [sum ~initial b off len] is the running one's-complement sum (not yet
    folded/complemented) over [len] bytes of [b]. Odd lengths are padded
    with a zero byte, per the RFC. Processes 8 bytes per iteration via
    [Bytes.get_int64_be] with a scalar tail; the unfolded accumulator may
    differ from {!sum_bytewise}'s but {!finish} yields identical
    checksums (including when chained through [~initial]). *)

val sum_bytewise : ?initial:int -> bytes -> int -> int -> int
(** The reference two-bytes-per-iteration accumulation. Kept for the
    checksum microbenchmark and for property-testing fold-equivalence
    against {!sum}. *)

val sum_iovec : ?initial:int -> Xdr.Iovec.t -> int
(** {!sum} over a scattered payload, with 16-bit word pairing carried
    across slice boundaries — equivalent to summing the flattened bytes,
    without flattening them. *)

val finish : int -> int
(** Fold carries and take the one's complement; result in [0, 0xffff]. *)

val checksum : bytes -> int -> int -> int
(** [finish (sum b off len)]. *)

val verify : bytes -> int -> int -> bool
(** A block that embeds its own checksum sums to [0] (i.e. [finish] over it
    yields 0). *)
