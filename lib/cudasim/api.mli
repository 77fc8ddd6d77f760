(** The CUDA runtime + driver API surface Cricket forwards.

    Each function mirrors one RPC procedure of the Cricket protocol and is
    what the Cricket server executes against the simulated GPUs. Results
    are [(value, Error.t)]-style — never exceptions — so the server can
    ship the error code back verbatim, as the real Cricket does.

    Time accounting: every call charges a fixed driver-dispatch cost;
    synchronous memcpys charge PCIe transfer time after draining the
    device; kernel launches are asynchronous (enqueue only), exactly like
    CUDA's default-stream semantics for small transfers vs. launches. *)

module Time = Simnet.Time

type device_properties = {
  name : string;
  total_global_mem : int64;
  multi_processor_count : int;
  clock_rate_khz : int;
  compute_major : int;
  compute_minor : int;
  memory_bandwidth : int64;  (** bytes/s *)
}

(** {1 Device management} *)

val get_device_count : Context.t -> int
val set_device : Context.t -> int -> Error.t
val get_device : Context.t -> int
val get_device_properties : Context.t -> int -> (device_properties, Error.t) result
val device_synchronize : Context.t -> Error.t
val device_reset : Context.t -> Error.t

(** {1 Memory} *)

val malloc : Context.t -> int64 -> (int64, Error.t) result
val free : Context.t -> int64 -> Error.t
val memcpy_h2d : Context.t -> dst:int64 -> bytes -> Error.t

val memcpy_h2d_string :
  Context.t -> dst:int64 -> string -> off:int -> len:int -> Error.t
(** {!memcpy_h2d} of the [len] bytes of a string from [off], written into
    device memory straight from it. *)

val memcpy_d2h : Context.t -> src:int64 -> len:int64 -> (bytes, Error.t) result

val memcpy_d2h_check : Context.t -> src:int64 -> len:int64 -> Error.t
(** Everything {!memcpy_d2h} does but the copy: the charges and the range
    check, with the error it would return. After [Success],
    {!memcpy_d2h_into} copies the bytes out wherever the caller wants them
    — how the server writes a download straight into its reply. *)

val memcpy_d2h_into :
  Context.t -> src:int64 -> len:int -> bytes -> off:int -> unit
(** Copy [len] bytes of device memory at [src] into a buffer at [off]; no
    charge. Meant for the range {!memcpy_d2h_check} just admitted, before
    anything else runs on the context. *)

val memcpy_d2d : Context.t -> dst:int64 -> src:int64 -> len:int64 -> Error.t
val memset : Context.t -> ptr:int64 -> value:int -> len:int64 -> Error.t
val mem_get_info : Context.t -> int64 * int64
(** (free, total). *)

(** {1 Stream-ordered (asynchronous) memory operations}

    Unlike their synchronous counterparts these never drain the device:
    only the driver-dispatch cost hits the host clock, the transfer/fill
    time is enqueued on the stream. Failures cannot be returned (the RPCs
    are one-way), so they latch via {!Context.set_async_error} and surface
    at the next synchronizing call. *)

val memcpy_h2d_async : Context.t -> dst:int64 -> bytes -> stream:int64 -> unit
val memset_async :
  Context.t -> ptr:int64 -> value:int -> len:int64 -> stream:int64 -> unit

val memcpy_d2h_stream :
  Context.t -> src:int64 -> len:int64 -> stream:int64 -> (bytes, Error.t) result
(** Blocking, but only on [stream]'s completion (plus the DMA setup
    overhead) — other streams keep running. Also surfaces a latched async
    error, since it is a synchronizing call. *)

(** {1 Streams and events} *)

val stream_create : Context.t -> int64
val stream_destroy : Context.t -> int64 -> Error.t
val stream_synchronize : Context.t -> int64 -> Error.t
val event_create : Context.t -> int64
val event_destroy : Context.t -> int64 -> Error.t
val event_record : Context.t -> event:int64 -> stream:int64 -> Error.t
val event_synchronize : Context.t -> int64 -> Error.t
val event_elapsed_ms : Context.t -> start:int64 -> stop:int64 -> (float, Error.t) result

val stream_wait_event : Context.t -> stream:int64 -> event:int64 -> unit
(** One-way cudaStreamWaitEvent; unknown handles latch an async error. *)

val event_record_async : Context.t -> event:int64 -> stream:int64 -> unit
(** One-way {!event_record}; unknown handles latch an async error. *)

(** {1 Module API (cubin loading — the paper's Cricket extension)} *)

val module_load_data : Context.t -> string -> (int64, Error.t) result
(** Accepts a standalone cubin image or a fat binary (best-arch image is
    selected for the current device). Decompresses as needed, then binds
    each kernel declared in the metadata to the registry. *)

val module_unload : Context.t -> int64 -> Error.t
val module_get_function : Context.t -> modul:int64 -> name:string -> (int64, Error.t) result
val module_get_global : Context.t -> modul:int64 -> name:string -> (int64 * int64, Error.t) result
(** Allocates device storage for the global on first access. *)

type launch_config = {
  function_handle : int64;
  grid : Gpusim.Kernels.dim3;
  block : Gpusim.Kernels.dim3;
  shared_mem_bytes : int;
  stream : int64;
}

val launch_kernel : Context.t -> launch_config -> params:bytes -> Error.t
(** Unpacks [params] using the function's cubin metadata, then enqueues. *)

val launch_kernel_async : Context.t -> launch_config -> params:bytes -> unit
(** One-way {!launch_kernel}: any error latches instead of returning. *)

(** {1 Cost constants (exposed for the benchmarks' documentation)} *)

val dispatch_ns : int
(** Fixed server-side driver dispatch cost charged per API call. *)

val charge : Context.t -> int -> unit
(** Advance the virtual clock by a CPU cost in nanoseconds (shared with the
    cuBLAS/cuSOLVER layers). *)
