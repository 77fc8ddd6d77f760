(** Online fair-share dispatch for the serving core.

    Implements the {!Cricket.Sched} policies as an online queue: work
    arrives over (virtual) time, and the dispatcher decides which
    tenant's head-of-line item runs next.

    - [Fifo] — one global arrival-order queue; no isolation.
    - [Round_robin] — deficit round robin (DRR) across tenants. Each
      active tenant holds a deficit in virtual nanoseconds; serving an
      item {e post-charges} its measured cost (GPU work cost is unknown
      until executed), and a tenant whose deficit is exhausted rotates to
      the back of the ring and tops up by one quantum. Long-term
      throughput share converges to equal per-tenant regardless of item
      cost, which is what the Jain index in the load reports measures.
    - [Priority] — strict priority classes (smaller value is more
      urgent; class 0 preempts class 1 between items), DRR within a
      class. Starvation of low classes is possible by design; the
      scheduler property tests bound it for finite high-class work.

    The service contract is run-to-completion per item: {!next} hands out
    one item and {!charge} must report its cost before the next {!next}.
    All internal orders (ring activation, class iteration) are
    deterministic functions of the enqueue sequence. *)

type policy = Cricket.Sched.policy

val default_quantum_ns : int
(** 5 ms of virtual GPU time. *)

type 'a t

val create :
  policy:policy ->
  ?quantum_ns:int ->
  tenants:string array ->
  priorities:int array ->
  unit ->
  'a t
(** [tenants.(i)] names tenant id [i]; [priorities.(i)] is its class
    (used by [Priority] only). Arrays must have equal length. *)

val enqueue : 'a t -> tenant:int -> 'a -> unit

val next : 'a t -> (int * 'a) option
(** Pop the item to serve next, with its tenant id. [None] when idle.
    Must be followed by {!charge} for that tenant before the next call. *)

val charge : 'a t -> tenant:int -> cost_ns:int -> unit
(** Post-charge the cost of the item just served (DRR accounting; a
    no-op under [Fifo]). *)

val rotations : 'a t -> int
(** DRR ring rotations performed (quantum exhaustions) — a cheap proxy
    for scheduling overhead in benchmarks. *)
