(** Array-backed binary min-heap, the event queue of {!Engine}.

    Entries are ordered by a caller-supplied [int] priority (an event's
    due time in nanoseconds) with a monotonically increasing sequence
    number as a tie-breaker, so events scheduled for the same instant pop
    in insertion order — a property the deterministic benchmarks rely on.

    Priorities, sequence numbers and values live in three parallel arrays:
    {!push}, {!min_priority} and {!pop_min} allocate nothing once the
    arrays have grown to the queue's high-water mark, and a popped value
    is released at once (the queue keeps no reference to it). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> priority:int -> 'a -> unit

val min_priority : 'a t -> int
(** Priority of the minimum entry. Raises [Invalid_argument] when the
    heap is empty. *)

val pop_min : 'a t -> 'a
(** Remove the minimum (earliest, then oldest) entry and return its value.
    Raises [Invalid_argument] when the heap is empty. *)
