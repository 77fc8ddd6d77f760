(** A stream: a FIFO command queue with stream-ordered virtual-time
    accounting.

    Commands on one stream serialize — each starts at
    [max now stream_completion] — while different streams overlap freely;
    device-wide completion is the max over streams, not the sum. The queue
    retains a record per in-flight command (sequence number, operation,
    start/finish times) until a synchronisation point {!retire}s the
    commands whose finish time has passed, or the next {!enqueue} finds
    them finished, which is what lets callers introspect how deep the
    pipeline currently is. A stream that is never synchronised therefore
    holds only the commands still running, not its whole history.

    Data side effects are NOT performed here: the owning {!Gpu} applies
    them eagerly at enqueue time (see gpu.mli); streams only account for
    time and ordering. *)

module Time = Simnet.Time

type op =
  | Kernel_launch of string  (** kernel name *)
  | Memcpy_h2d of int  (** bytes *)
  | Memcpy_d2h of int  (** bytes *)
  | Memset of int  (** bytes *)
  | Wait_event of int  (** event handle waited on *)

type command = { seq : int; op : op; start : Time.t; finish : Time.t }

type t

val create : id:int -> t
val id : t -> int

val completion : t -> Time.t
(** Virtual time at which everything enqueued so far has finished. *)

val pending : t -> int
(** Commands enqueued but not yet {!retire}d. *)

val pending_commands : t -> command list
(** Oldest first. *)

val enqueue : t -> now:Time.t -> seq:int -> op:op -> cost:Time.t -> Time.t
(** {!retire} at [now], then append a command starting at
    [max now completion] and lasting [cost]; returns (and records as the
    new completion) its finish time. *)

val wait_event : t -> seq:int -> event:int -> time:Time.t option -> unit
(** cudaStreamWaitEvent: all commands enqueued after this one start no
    earlier than [time]. [time = None] (event never recorded) is a no-op,
    per CUDA semantics. *)

val retire : t -> now:Time.t -> unit
(** Drop leading commands whose finish time is [<= now]. *)
