(** Log-bucketed latency histogram.

    Values (nanoseconds) land in power-of-two buckets — bucket [i] holds
    values whose bit length is [i], i.e. the range [2^(i-1), 2^i) — so a
    histogram covers the full int64 range in 64 counters with a relative
    quantile error bounded by 2x. Exact minimum, maximum, count and sum
    are tracked alongside, so [max_ns] (and any quantile that resolves to
    the last occupied bucket) is exact. Recording is O(bit length); no
    allocation after {!create}. *)

type t

val create : unit -> t
val record : t -> int64 -> unit
(** Negative values are clamped to 0. *)

val count : t -> int
val sum_ns : t -> int64
val max_ns : t -> int64
(** 0 when empty. *)

val min_ns : t -> int64
(** 0 when empty. *)

val quantile : t -> float -> int64
(** [quantile t q] for [q] in [0, 1]: an upper bound of the bucket holding
    the rank-[ceil (q * count)] value, clamped to the exact [max_ns] (and
    floored at [min_ns]). 0 when empty. *)

val buckets : t -> int array
(** A copy of the 64 bucket counters, for tests and exports. *)

val pp : Format.formatter -> t -> unit
(** "p50=… p95=… p99=… max=… (n=…)" with microsecond formatting. *)
