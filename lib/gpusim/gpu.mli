(** One simulated GPU: device memory, streams, events, kernel execution.

    The GPU is asynchronous relative to the host: each stream tracks the
    virtual time at which its queued work completes. Launching executes the
    kernel's side effects immediately (device memory is updated eagerly)
    but time is accounted on the stream; synchronisation points return the
    completion time so the caller (the Cricket server) can advance the
    simulation clock. This mirrors the CUDA execution model closely enough
    for the paper's workloads, which always synchronise before reading
    results back. *)

module Time = Simnet.Time

type t

val default_capacity_clamp : int
(** 2 GiB — the default bound applied to [total_global_mem] when no
    explicit capacity is given. *)

val create : ?memory_capacity:int -> ?capacity_clamp:int -> Device.t -> t
(** [memory_capacity] defaults to the device's [total_global_mem] clamped
    to [capacity_clamp] (default {!default_capacity_clamp}, 2 GiB) to keep
    host memory bounded. The backing store only grows as touched, so a
    fleet that needs per-device OOM behaviour to match the catalog (a
    16 GiB T4 must OOM before a 40 GiB A100) can pass a clamp of
    [max_int] and pay host memory only for bytes actually written;
    allocations beyond the effective capacity fail with OOM, as on a
    smaller device. *)

val device : t -> Device.t
val memory : t -> Memory.t

val set_obs : t -> Obs.Recorder.t -> unit
(** Attach an observability recorder: every stream command (kernel launch,
    memcpy, memset) is recorded as a ["gpu"]-layer span covering its
    execution interval on the device timeline. Commands run in the virtual
    future — completion can lie past the RPC dispatch that enqueued them —
    so the spans are root-level events with explicit timestamps, not
    children of the dispatch span. One branch per command while the
    recorder is disabled. *)

(** {1 Streams} *)

val default_stream : int
(** Stream handle 0, always valid. *)

val stream_create : t -> int
val stream_destroy : t -> int -> unit
(** Raises [Not_found] for an unknown handle. *)

val stream_valid : t -> int -> bool

val stream_pending : t -> int -> int
(** Commands enqueued on the stream and not yet retired by a
    synchronisation point — the current pipeline depth. *)

val stream_commands : t -> int -> Stream.command list
(** The pending commands, oldest first. *)

val stream_synchronize : t -> now:Time.t -> int -> Time.t
(** Time at which the host resumes: [now], or later when the stream's
    queued work finishes then.
    Retires the stream's finished commands. *)

val stream_wait_event : t -> stream:int -> event:int -> unit
(** cudaStreamWaitEvent: commands enqueued on [stream] after this call
    start no earlier than the event's recorded time (no-op if the event
    was never recorded, per CUDA). Raises [Not_found] for an unknown
    stream or event. *)

(** {1 Stream-ordered work submission}

    Data side effects are applied eagerly, in submission order, while the
    time cost is accounted on the stream — the same convention as
    {!launch}. Because every mutation of device memory happens at enqueue
    time in one global submission order, results are bit-identical to a
    fully synchronous execution of the same command sequence. *)

val memcpy_h2d : t -> now:Time.t -> ?stream:int -> dst:int -> bytes -> Time.t
(** Host-to-device copy at PCIe bandwidth; returns the stream's new
    completion time. Raises [Not_found] for an unknown stream and
    {!Memory.Error} on bad pointers/bounds. *)

val memcpy_d2h :
  t -> now:Time.t -> ?stream:int -> src:int -> int -> Time.t * bytes
(** [memcpy_d2h t ~now ?stream ~src len] is a device-to-host copy of [len]
    bytes; returns (completion time, data). *)

val memset :
  t -> now:Time.t -> ?stream:int -> ptr:int -> value:int -> int -> Time.t
(** [memset t ~now ?stream ~ptr ~value len]: on-device fill at memory
    bandwidth. *)

(** {1 Kernel execution} *)

val launch :
  t -> now:Time.t -> ?stream:int -> ?execute:bool -> Kernels.t ->
  Kernels.launch -> Time.t
(** Enqueue and (eagerly) execute. Returns the stream's new completion
    time. With [~execute:false] the launch is timed and enqueued but the
    kernel's implementation does not run (a timing-only context). Raises
    [Not_found] for an unknown stream,
    {!Kernels.Bad_args} for malformed arguments and {!Memory.Error} for a
    pointer argument whose range lies outside device memory; a launch that
    raises enqueues nothing. *)

val synchronize : t -> now:Time.t -> Time.t
(** cudaDeviceSynchronize: completion time across all streams. *)

(** {1 Events} *)

val event_create : t -> int
val event_destroy : t -> int -> unit

val event_record : t -> now:Time.t -> event:int -> stream:int -> unit
(** The event fires when the stream's currently-queued work completes. *)

val event_synchronize : t -> now:Time.t -> int -> Time.t

val event_elapsed_ms : t -> start:int -> stop:int -> float
(** cudaEventElapsedTime. Raises [Not_found] if either event is unknown or
    not yet recorded. *)

(** {1 Whole-device operations} *)

val reset : t -> unit
(** cudaDeviceReset: drop all memory, streams and events. *)

val set_memory : t -> Memory.t -> unit
(** Replace the device's memory wholesale (checkpoint restore). *)

type handles = {
  hs_streams : int list;  (** live non-default stream handles *)
  hs_events : (int * Simnet.Time.t option) list;
      (** event handle, recorded time *)
  hs_next_handle : int;
  hs_next_seq : int;
}
(** Stream/event handle state, for checkpoints. Only meaningful when the
    device is quiesced (all streams retired): queued commands are not
    captured, just which handles exist and what events have recorded. *)

val handles : t -> handles
val set_handles : t -> handles -> unit
