(** Calibrated analytic cost model for one network message.

    Computes the virtual time taken to move an [n]-byte message from a
    sender host to a receiver host over a link, given both hosts' cost
    profiles ({!Hostprofile.t}) and negotiated offloads. The model is a
    standard three-stage pipeline (sender CPU → wire → receiver CPU):

    - each stage's total cost over the whole message is computed from the
      profile (syscalls, copies, software checksums, per-segment
      processing, VM exits for kicks and interrupt injection, coalesced
      interrupts);
    - a single-packet message pays all three stages serially;
    - a multi-packet message pays one packet through every stage plus
      [(packets - 1)] times the bottleneck stage — so bulk throughput is
      set by the slowest stage, which is how the paper's single-threaded
      RPC-argument transfer path behaves ("bound by the CPU's single-core
      performance").

    The full TCP state machine in [tcpstack] exists to validate this
    model's segmentation/acknowledgement behaviour; the benchmarks use this
    closed form so that 100 000-call experiments run instantly. *)

type breakdown = {
  packets : int;  (** on-wire TCP segments *)
  sender_cpu_ns : float;  (** total sender-side CPU time *)
  wire_ns : float;  (** total serialization time (excl. latency) *)
  receiver_cpu_ns : float;  (** total receiver-side CPU time *)
  total : Time.t;  (** pipelined end-to-end one-way time *)
}

val one_way :
  sender:Hostprofile.t -> receiver:Hostprofile.t -> link:Link.t -> int ->
  breakdown
(** Cost of one [n]-byte message ([n >= 0]; [n = 0] still pays fixed
    costs for a header-only packet). *)

val one_way_time :
  sender:Hostprofile.t -> receiver:Hostprofile.t -> link:Link.t -> int ->
  Time.t
(** [(one_way ~sender ~receiver ~link n).total]. *)

val one_way_ns :
  sender:Hostprofile.t -> receiver:Hostprofile.t -> link:Link.t -> int -> int
(** {!one_way_time} in nanoseconds, computed without building the
    breakdown: the per-message cost a channel charges on every exchange. *)

val throughput_bytes_per_s :
  sender:Hostprofile.t -> receiver:Hostprofile.t -> link:Link.t -> int ->
  float
(** [n / one_way n] — the steady-state bandwidth the model predicts for a
    message of size [n]. *)
