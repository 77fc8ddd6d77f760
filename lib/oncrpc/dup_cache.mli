(** The at-most-once duplicate-request cache behind
    {!Server.set_dup_cache}: a bounded map from
    [(ident, xid, prog, vers, proc)] to the reply a call produced.

    A ring of [capacity] slots over flat arrays, indexed by a chained hash
    whose links are slot numbers in an int array. {!lookup} and {!store}
    allocate nothing on a miss and nothing on a store: a lookup hashes the
    ident string and walks a chain of, on average, at most one slot, and a
    store fills the slot after the newest in place. Every entry lives at
    most [capacity] stores, evicted FIFO by insertion order, as a
    [Hashtbl] plus [Queue] of keys would evict. Large replies (at least
    {!Xdr.Encode.zero_copy_threshold} bytes, such as stream-ordered
    downloads) are also bounded by bytes: while they hold more than
    [max_bytes] between them, the oldest of them go, but never the entry
    just stored. Small replies never count against that bound, so no
    download, however large, can push out the reply of another ident's
    non-idempotent call (allocation, free, launch) before its [capacity]
    stores are up. Every
    operation takes the cache's mutex, so one cache can serve calls from
    several domains. *)

type t

val default_max_bytes : int
(** The large-reply bytes a server's cache keeps: 128 MiB. Of a run of
    64 MiB [cudaMemcpyDtoHAsync] downloads, whose replies are a few bytes
    over 64 MiB each, it keeps the newest. ([cudaMemcpyDtoH] is
    registered idempotent, so its replies are never stored.) *)

val create : capacity:int -> max_bytes:int -> t
(** Raises [Invalid_argument] if [capacity < 1] or [max_bytes < 0]. *)

val lookup :
  t -> ident:string -> xid:int -> prog:int -> vers:int -> proc:int ->
  string option
(** The reply recorded for the key ([Some ""] for a one-way call, which
    produced none), counting a hit; [None] if the key is not cached. *)

val store :
  t -> ident:string -> xid:int -> prog:int -> vers:int -> proc:int ->
  string -> unit
(** Record the reply for a key that {!lookup} just missed, evicting the
    entry stored [capacity] stores ago, then, while the large replies hold
    more than [max_bytes], the oldest of them but the one just stored.
    [""] records a one-way call. *)

val hits : t -> int
(** Lookups that found their key. *)

val bytes : t -> int
(** Bytes of the large replies the cache holds: at most [max_bytes], or
    the newest reply's length if that alone is more. *)

val entries : t -> ((string * int * int * int * int) * string) list
(** The cached keys with their replies, oldest (next to be evicted)
    first. *)
