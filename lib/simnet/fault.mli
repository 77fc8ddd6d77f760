(** Seeded, declarative fault plans for every simulated transport.

    A {!plan} describes — ahead of time and in one vocabulary — what the
    network is allowed to do to a workload: drop, duplicate, delay or
    corrupt individual records, black-hole traffic during virtual-time
    partition windows, and crash (then restart) the server after a given
    number of records. {!Unikernel.Simchannel} consumes plans at RPC
    record granularity and {!Tcpstack.Medium} at TCP segment granularity,
    so one plan exercises the same scenario at either layer of the stack.

    Determinism: random-rate rules draw from a PRNG seeded by the plan, and
    all windows are in virtual time, so a (plan, workload) pair produces a
    bit-identical run every time — the property the recovery tests and the
    [benchctl faults] ablation rely on. *)

type decision =
  | Pass
  | Drop  (** unit vanishes in flight *)
  | Duplicate  (** delivered twice *)
  | Corrupt
      (** payload bit-flip; transports model the receiver's integrity check
          discarding it, so observable behaviour is loss, not garbage *)
  | Delay of Time.t  (** delivered after an extra delay *)

type crash = {
  after_records : int;
      (** fire once the plan has decided this many records (so the
          [after_records]-th record and everything behind it is lost) *)
  down_for : Time.t;  (** virtual time before a restart accepts connections *)
}

type plan = {
  seed : int;  (** PRNG seed for the [*_rate] rules *)
  drop_rate : float;
  duplicate_rate : float;
  corrupt_rate : float;
  delay_rate : float;
  delay : Time.t;  (** extra latency applied by [Delay] decisions *)
  drop_nth : int list;  (** 0-based record indices to drop, exactly *)
  duplicate_nth : int list;
  corrupt_nth : int list;
  delay_nth : int list;
  partitions : (Time.t * Time.t) list;
      (** half-open virtual-time windows [\[start, stop)] during which
          everything is dropped *)
  crashes : crash list;
}

val none : plan
(** No faults; [make none] decides [Pass] forever. *)

val drops : ?seed:int -> float -> plan
(** [drops rate] is [none] with a uniform drop probability. *)

type stats = {
  records : int;  (** decisions taken *)
  dropped : int;  (** includes partition-window and corrupt losses *)
  duplicated : int;
  corrupted : int;
  delayed : int;
  crashes_fired : int;
}

val injected : stats -> int
(** Total non-[Pass] decisions. *)

type t

val make : plan -> t
(** Instantiate a plan: fresh counters, PRNG reset to [plan.seed], crash
    schedule armed. Two [t]s made from the same plan behave identically. *)

val plan : t -> plan

val decide : ?now:Time.t -> t -> decision
(** Decide the fate of the next record. Precedence: partition window (at
    [now], default [Time.zero]) → exact [*_nth] rules → seeded [*_rate]
    draws. When any rate is positive, exactly one PRNG draw is consumed on
    every call — including calls forced by a window or an exact rule — so
    exact rules never shift the random sequence of the rate rules. *)

val crash_due : t -> Time.t option
(** [Some down_for] when a scheduled crash should fire given the records
    decided so far; each crash fires at most once. *)

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
