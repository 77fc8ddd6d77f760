(** Discrete-event simulation engine.

    An engine owns a virtual clock and an event queue. Model code either
    schedules callbacks ({!schedule_at} / {!schedule_after}) and lets
    {!run}/{!run_until} drive the clock, or — for the synchronous RPC
    benchmarks — simply {!advance}s the clock by analytically computed
    costs. Both styles share one clock, so a TCP state machine and a
    cost-model channel can coexist in one simulation. *)

type t

val create : unit -> t

val now : t -> Time.t

val now_ns : t -> int
(** [now] as plain nanoseconds. *)

val advance : t -> Time.t -> unit
(** Move the clock forward by a duration (never backwards; negative
    durations raise [Invalid_argument]). *)

val advance_ns : t -> int -> unit
(** [advance] by plain nanoseconds: the only allocation is the new clock. *)

val advance_to : t -> Time.t -> unit
(** Move the clock to an absolute instant (no-op when in the past). *)

val schedule_at : t -> Time.t -> (unit -> unit) -> unit
(** Enqueue a callback for an absolute time; times before [now] fire
    immediately on the next run step (clock never rewinds). The queue keys
    events by [int] nanoseconds: a time outside the [int] range raises
    [Invalid_argument], here and wherever a [Time.t] enters the engine. *)

val schedule_at_ns : t -> int -> (unit -> unit) -> unit
(** [schedule_at] with the time as plain nanoseconds. *)

val schedule_after : t -> Time.t -> (unit -> unit) -> unit

val pending : t -> int
(** Number of queued events. *)

val step : t -> bool
(** Execute the earliest event, advancing the clock to its due time.
    Returns [false] when the queue is empty. *)

val run : t -> unit
(** Run until the event queue drains. *)

val run_until : t -> Time.t -> unit
(** Run events due up to and including the given time, then advance the
    clock to exactly that time. *)
