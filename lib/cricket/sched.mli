(** Configurable GPU-sharing scheduler.

    The paper's closing argument: mapping whole GPUs to single unikernels
    is wasteful, so Cricket manages shared access "through configurable
    schedulers". This module schedules kernel jobs from many clients onto
    one GPU under three policies and reports per-client waiting, so the
    ablation benchmark can compare them under contention.

    The model is non-preemptive: whenever the GPU is free, the scheduler
    picks among jobs that have already arrived — FIFO by arrival, round
    robin by least-recently-served client, or strict priority. *)

module Time = Simnet.Time

type policy = Fifo | Round_robin | Priority

val policy_to_string : policy -> string

type job = {
  client : string;
  arrival : Time.t;
  duration : Time.t;
  priority : int;  (** smaller = more urgent; only Priority uses it *)
}

type placement = { job : job; start : Time.t; finish : Time.t }

val schedule : policy -> job list -> placement list
(** Run all jobs on one GPU. The result is in execution order; makespan is
    the last element's [finish]. *)

type client_stats = {
  jobs : int;
  busy : Time.t;  (** total execution time *)
  waiting : Time.t;  (** total time between arrival and start *)
  max_waiting : Time.t;
}

val per_client : placement list -> (string * client_stats) list
(** Sorted by client name. *)

val makespan : placement list -> Time.t

val fairness : placement list -> float
(** Jain's fairness index over per-client busy GPU time (1.0 = perfectly
    fair). *)
