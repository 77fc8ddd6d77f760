(** The at-most-once duplicate-request cache behind
    {!Server.set_dup_cache}: a bounded FIFO map from
    [(ident, xid, prog, vers, proc)] to the reply a call produced.

    A fixed ring of [capacity] slots over flat arrays, indexed by a chained
    hash whose links are slot numbers in an int array. {!lookup} and
    {!store} allocate nothing on a miss and nothing on a store: a lookup
    hashes the ident string and walks a chain of, on average, at most one
    slot, and a store overwrites the oldest slot in place. Eviction is FIFO
    by insertion order, as a [Hashtbl] plus [Queue] of keys would evict.
    Every operation takes the cache's mutex, so one cache can serve calls
    from several domains. *)

type t

val create : capacity:int -> t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val lookup :
  t -> ident:string -> xid:int -> prog:int -> vers:int -> proc:int ->
  string option
(** The reply recorded for the key ([Some ""] for a one-way call, which
    produced none), counting a hit; [None] if the key is not cached. *)

val store :
  t -> ident:string -> xid:int -> prog:int -> vers:int -> proc:int ->
  string -> unit
(** Record the reply for a key that {!lookup} just missed, evicting the
    oldest entry when the cache is full. [""] records a one-way call. *)

val hits : t -> int
(** Lookups that found their key. *)

val entries : t -> ((string * int * int * int * int) * string) list
(** The cached keys with their replies, oldest (next to be evicted)
    first. *)
