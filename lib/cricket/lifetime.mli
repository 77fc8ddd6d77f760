(** Lifetime-tracked GPU allocations.

    RPC-Lib wraps [cudaMalloc]/[cudaFree] so GPU allocations behave like
    Rust heap allocations, ruling out use-after-free and double-free at
    compile time. OCaml has no borrow checker, so this module provides the
    same guarantee dynamically: every operation on a freed buffer raises
    {!Use_after_free}, a second free raises {!Double_free}, and
    {!with_buffer} scopes an allocation so it is freed exactly once on all
    exit paths. *)

exception Use_after_free
exception Double_free

type t

val alloc : Client.t -> int -> t
(** Allocate [n] device bytes. *)

val ptr : t -> int64
(** The raw device pointer; raises {!Use_after_free} once freed. *)

val is_live : t -> bool

val free : t -> unit
(** Raises {!Double_free} on a second call. *)

val upload : t -> bytes -> unit
(** H2D into this buffer; checks live-ness and size. *)

val upload_at : t -> offset:int -> bytes -> unit

val download : ?stream:Stream.t -> t -> bytes
(** D2H of the whole buffer. With [?stream], the copy is stream-ordered:
    the stream flushes its queued commands and blocks only on its own
    completion, not the whole device. *)

(** {1 Stream-ordered variants}

    Enqueue on a {!Stream} without blocking. Liveness is checked both at
    enqueue time and again when the stream flushes, so a buffer freed with
    commands still queued raises {!Use_after_free} at the flush — the
    enqueued-but-not-executed command can never touch freed memory. The
    stream must belong to the same client ([Invalid_argument] otherwise). *)

val upload_async : t -> Stream.t -> bytes -> unit

val download_part : t -> offset:int -> len:int -> bytes
val fill : t -> int -> unit
(** cudaMemset over the whole buffer. *)

val with_buffer : Client.t -> int -> (t -> 'a) -> 'a
(** Allocate, run, free — even on exceptions. *)
