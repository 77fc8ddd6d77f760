(** Application-facing CUDA API forwarded through Cricket — the OCaml
    analogue of the paper's RPC-Lib client.

    All functions raise {!Cudasim.Error.Cuda_error} when the server reports
    a CUDA error, and {!Oncrpc.Client.Rpc_error} / {!Oncrpc.Transport.Closed}
    on protocol or connection failures.

    Kernel launches work as in the paper's extension: the application loads
    a compiled kernel module (cubin or fatbin) from bytes or a file, the
    client parses the metadata locally to learn each kernel's parameter
    layout, packs launch arguments into the exact buffer layout
    [cuLaunchKernel] expects, and the module bytes travel to the server
    once via [rpc_cuModuleLoadData].

    The [?charge] hook receives client-side CPU nanoseconds (used by the
    simulated-host runner to account application work such as C's slower
    launch path); [?launch_extra_ns] models the extra compatibility logic
    the C implementations run per kernel launch (§4.2: Rust is ≈6.3 %
    faster on launches because it omits the [<<<...>>>] path). *)

type t

type func
(** A kernel function handle plus its parameter metadata. *)

type dim3 = Gpusim.Kernels.dim3 = { x : int; y : int; z : int }

exception Session_lost of string
(** The session could not be recovered (see {!enable_recovery}): the
    server crashed during recovery, or the retry budget ran out. Sticky —
    once raised, {e every} further call on this client (sync, one-way or
    pipelined) raises it immediately rather than hanging on a dead
    connection. *)

val create :
  ?launch_extra_ns:int ->
  ?charge:(int -> unit) ->
  ?fragment_size:int ->
  ?doorbell:Oncrpc.Doorbell.policy ->
  ?doorbell_schedule:(int64 -> (unit -> unit) -> unit) ->
  transport:Oncrpc.Transport.t ->
  unit ->
  t
(** [doorbell] interposes an {!Oncrpc.Doorbell} batcher between the RPC
    client and [transport]: small calls coalesce into one wire submit per
    flush. [doorbell_schedule] clocks the flush deadline (pass
    [Simnet.Engine.schedule_after] for virtual time). *)

val close : t -> unit

val rpc : t -> Oncrpc.Client.t
(** The underlying RPC client (retry/timeout/reconnect counters live in
    its {!Oncrpc.Client.stats}). *)

val set_obs : t -> Obs.Recorder.t -> unit
(** Attach an observability recorder to the client shim: every forwarded
    CUDA call opens a ["shim"]-layer span named by its RPCL procedure,
    with ["rpc"]-layer per-attempt spans nested inside (see
    {!Oncrpc.Client.set_obs}). *)

(** {1 Session recovery}

    With recovery enabled the client survives a server crash: the RPC
    layer reconnects (backing off in virtual time via [sleep]), the client
    restores the server from the latest checkpoint, replays the journal of
    state-mutating calls issued since, remaps any handle the server
    assigned differently, and the interrupted call is retransmitted — the
    application simply sees its call return. This is the client half of
    the paper's CRIU-style checkpoint/restart story, turned into
    transparent fault tolerance. *)

val enable_recovery :
  ?retry:Oncrpc.Client.retry_policy ->
  ?checkpoint_every:int ->
  ?checkpoint_name:string ->
  t ->
  now:(unit -> int64) ->
  sleep:(int64 -> unit) ->
  reconnect:(unit -> Oncrpc.Transport.t) ->
  unit ->
  unit
(** [checkpoint_every] (default 64) is the journal length that triggers an
    automatic server checkpoint (journal truncates only after the
    checkpoint RPC succeeds); [checkpoint_name] (default ["session-auto"])
    the server-side checkpoint file name. [now]/[sleep] clock the retry
    backoff — pass the simulation engine's virtual clock for deterministic
    runs. [reconnect] must return a fresh transport to the (restarted)
    server, or raise {!Oncrpc.Transport.Closed} while it is still down
    (e.g. {!Unikernel.Simchannel.reconnect}). *)

val session_lost : t -> bool
val recoveries : t -> int
(** Successful crash recoveries (restore + replay) completed. *)

val replayed_calls : t -> int
(** Journaled calls re-issued across all recoveries. *)

val checkpoints_taken : t -> int
(** Automatic checkpoints triggered by the journal cadence. *)

val recover : t -> unit
(** Restore the latest checkpoint and replay the journal tail. Runs
    automatically on reconnect; exposed so a duplicate recovery (lost ack)
    can be exercised directly — recovery is idempotent: running it twice
    yields byte-identical server state. No-op without recovery enabled. *)

(** {1 Statistics (per paper §4.1: API calls and transferred bytes)} *)

val api_calls : t -> int
val bytes_to_server : t -> int
val bytes_from_server : t -> int

val memcpy_bytes_up : t -> int
(** Payload bytes moved by [memcpy_h2d] — the paper's "memory transfers"
    metric counts these, not RPC argument bytes. *)

val memcpy_bytes_down : t -> int
val charge_host : t -> int -> unit
(** Account client-side CPU work (e.g. input-data generation). *)

(** {1 Device management} *)

val get_device_count : t -> int
val set_device : t -> int -> unit
val get_device : t -> int

type device_properties = {
  name : string;
  total_global_mem : int64;
  multi_processor_count : int;
  clock_rate_khz : int;
  compute_major : int;
  compute_minor : int;
  memory_bandwidth : int64;
}

val get_device_properties : t -> int -> device_properties
val device_synchronize : t -> unit
val device_reset : t -> unit

(** {1 Memory} *)

val malloc : t -> int -> int64
val free : t -> int64 -> unit
val memcpy_h2d : t -> dst:int64 -> bytes -> unit
val memcpy_d2h : t -> src:int64 -> len:int -> bytes
val memcpy_d2d : t -> dst:int64 -> src:int64 -> len:int -> unit
val memset : t -> ptr:int64 -> value:int -> len:int -> unit
val mem_get_info : t -> int64 * int64

(** {2 Stream-ordered (one-way) variants}

    These return once the request record is written; no reply exists on
    the wire (RFC 5531 §8 batching), so N of them plus one synchronizing
    call cost a single round trip. Server-side failures latch and are
    raised by the next synchronizing call. Prefer the higher-level
    {!Stream} module, which also defers the sends for explicit
    pipeline-depth control. *)

val memcpy_h2d_async : t -> dst:int64 -> stream:int64 -> bytes -> unit
val memset_async : t -> ptr:int64 -> value:int -> len:int -> stream:int64 -> unit

val memcpy_d2h_stream : t -> src:int64 -> len:int -> stream:int64 -> bytes
(** Blocking, but only drains [stream] (not the whole device). *)

(** {1 Streams and events} *)

val stream_create : t -> int64
val stream_destroy : t -> int64 -> unit
val stream_synchronize : t -> int64 -> unit
val event_create : t -> int64
val event_destroy : t -> int64 -> unit
val event_record : t -> event:int64 -> stream:int64 -> unit
val event_synchronize : t -> int64 -> unit
val event_elapsed_ms : t -> start:int64 -> stop:int64 -> float

val stream_wait_event : t -> stream:int64 -> event:int64 -> unit
(** One-way cudaStreamWaitEvent: [stream]'s subsequent work starts no
    earlier than the event's recorded time. *)

val event_record_async : t -> event:int64 -> stream:int64 -> unit
(** One-way {!event_record}. *)

(** {1 Kernel modules and launches} *)

val module_load : t -> string -> int64
(** Send a serialized cubin/fatbin to the server; parse metadata locally. *)

val module_load_file : t -> string -> int64
(** Read a module from disk first (the cubin-file flow the paper added). *)

val module_unload : t -> int64 -> unit

val get_function : t -> modul:int64 -> name:string -> func
val get_global : t -> modul:int64 -> name:string -> int64 * int
(** Device pointer and size of a module global. *)

val launch :
  t ->
  func ->
  grid:dim3 ->
  block:dim3 ->
  ?shared_mem:int ->
  ?stream:int64 ->
  Gpusim.Kernels.arg array ->
  unit

val launch_async :
  t ->
  func ->
  grid:dim3 ->
  block:dim3 ->
  ?shared_mem:int ->
  stream:int64 ->
  Gpusim.Kernels.arg array ->
  unit
(** One-way {!launch}: returns without waiting for the server. Launch
    errors latch and surface at the next synchronizing call. *)

(** {1 cuBLAS / cuSOLVER} *)

val cublas_create : t -> int64
val cublas_destroy : t -> int64 -> unit

val cublas_sgemm :
  t -> handle:int64 -> m:int -> n:int -> k:int -> alpha:float -> a:int64 ->
  lda:int -> b:int64 -> ldb:int -> beta:float -> c:int64 -> ldc:int -> unit

val cublas_sgemv :
  t -> handle:int64 -> m:int -> n:int -> alpha:float -> a:int64 -> lda:int ->
  x:int64 -> incx:int -> beta:float -> y:int64 -> incy:int -> unit

val cublas_sdot :
  t -> handle:int64 -> n:int -> x:int64 -> incx:int -> y:int64 -> incy:int ->
  float

val cublas_sscal :
  t -> handle:int64 -> n:int -> alpha:float -> x:int64 -> incx:int -> unit

val cublas_snrm2 : t -> handle:int64 -> n:int -> x:int64 -> incx:int -> float

val cusolver_create : t -> int64
val cusolver_destroy : t -> int64 -> unit

val cusolver_sgetrf_buffer_size :
  t -> handle:int64 -> m:int -> n:int -> a:int64 -> lda:int -> int

val cusolver_sgetrf :
  t -> handle:int64 -> m:int -> n:int -> a:int64 -> lda:int ->
  workspace:int64 -> ipiv:int64 -> int

val cusolver_sgetrs :
  t -> handle:int64 -> n:int -> nrhs:int -> a:int64 -> lda:int ->
  ipiv:int64 -> b:int64 -> ldb:int -> int

(** {1 Checkpoint / restart} *)

val checkpoint : t -> string -> unit
(** [checkpoint t name]: server writes its GPU state under [name]. *)

val restore : t -> string -> unit

(** {1 Live migration}

    Stubs for the destination side of a pre-copy migration; the source
    server (via {!Migrate} in [lib/migrate]) drives them over an ordinary
    RPC connection to the destination. *)

val migrate_begin : t -> string -> unit
(** [migrate_begin t tenant] opens an inbound migration. *)

val migrate_base : t -> bytes -> unit
(** Install the full base snapshot. *)

val migrate_delta : t -> bytes -> unit
(** Apply one dirty-page delta on top of the base. *)

val migrate_commit : t -> tenant:string -> bytes -> unit
(** Hand over the session; the bytes carry the serialized source lease
    (empty if the tenant held none). *)

val migrate_abort : t -> string -> unit
(** Discard any half-copied inbound state for this tenant. *)
