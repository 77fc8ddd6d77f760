(** The server-side CUDA context: devices, loaded modules, library handles.

    One context corresponds to one Cricket server process sitting on the
    GPU node. It owns the simulated GPUs, tracks loaded kernel modules and
    cuBLAS/cuSOLVER handles, and charges GPU/PCIe time through a caller
    supplied virtual clock.

    [functional] controls whether kernel implementations actually execute
    (device memory mutated) or only account time. Benchmarks verify
    numerics with it on, then disable it for the remaining thousands of
    identical iterations — the cost models are data-independent, so virtual
    timing is unaffected. *)

module Time = Simnet.Time

type clock = {
  now : unit -> Time.t;
  advance_to : Time.t -> unit;  (** never rewinds *)
}

val engine_clock : Simnet.Engine.t -> clock

type function_entry = {
  module_handle : int;
  info : Cubin.Image.kernel_info;
  kernel : Gpusim.Kernels.t;
}

type t

val create :
  ?devices:Gpusim.Device.t list ->
  ?memory_capacity:int ->
  ?capacity_clamp:int ->
  clock ->
  t
(** Defaults to the evaluation machine's GPU node (A100 + 2×T4 + P40).
    [memory_capacity] and [capacity_clamp] are forwarded to
    {!Gpusim.Gpu.create} for every device; pass [~capacity_clamp:max_int]
    when per-device OOM behaviour must track the catalog's
    [total_global_mem]. *)

val clock : t -> clock
val device_count : t -> int
val current : t -> int
val set_current : t -> int -> (unit, Error.t) result
val gpu : t -> Gpusim.Gpu.t
(** The currently selected device. *)

val gpu_at : t -> int -> Gpusim.Gpu.t option

val functional : t -> bool
val set_functional : t -> bool -> unit

(** {1 Sticky asynchronous error}

    Failures of one-way (stream-ordered) operations cannot be reported to
    the caller inline — there is no reply. As with [cudaGetLastError], the
    first such failure is latched and surfaced by the next synchronizing
    call, which clears it. *)

val set_async_error : t -> Error.t -> unit
(** Keeps the first error if one is already latched. *)

val take_async_error : t -> Error.t option
(** Return and clear the latched error. *)

(** {1 Module / function tables} *)

val add_module : t -> data:string -> image:Cubin.Image.t -> int
val find_module : t -> int -> (string * Cubin.Image.t) option
val remove_module : t -> int -> bool
(** Also drops the module's functions. *)

val add_function : t -> function_entry -> int
val find_function : t -> int -> function_entry option

val find_global : t -> int * string -> int option
(** Device pointer already assigned to a module's global, if any. *)

val add_global : t -> int * string -> int -> unit

(** {1 Library handles} *)

val add_cublas : t -> int
val valid_cublas : t -> int -> bool
val remove_cublas : t -> int -> bool
val add_cusolver : t -> int
val valid_cusolver : t -> int -> bool
val remove_cusolver : t -> int -> bool

(** {1 Checkpoint / restart} *)

val checkpoint : t -> string
(** Quiesces (synchronizes all devices, advancing the clock) and serializes
    device memory, module and handle tables. *)

val restore : t -> string -> (unit, string) result
(** Replace this context's state with a checkpoint's. The clock keeps its
    current value (restart happens later in virtual time). Dirty-page
    tracking, if enabled, restarts with a clean slate from the restored
    state. *)

(** {1 Incremental checkpoints (migration deltas)}

    With dirty-page tracking enabled, [checkpoint_base] captures a full
    snapshot and rebases the delta stream on it; each subsequent
    [checkpoint_delta] carries only the pages written since the previous
    base/delta plus the (tiny) module and handle tables. Applying the base
    with {!restore} and then each delta with [restore_delta] in order
    reconstructs the context. *)

val set_dirty_tracking : t -> bool -> unit
val dirty_pages : t -> int
(** Pages written since the last base/delta, summed across devices. *)

val checkpoint_base : t -> string
(** Full {!checkpoint} that also clears the dirty sets, making this
    snapshot the baseline for subsequent deltas. *)

val checkpoint_delta : t -> string
(** Quiesce and serialize only state changed since the last base/delta.
    Raises [Invalid_argument] if dirty tracking is disabled. *)

val restore_delta : t -> string -> (unit, string) result
(** Apply a delta on top of previously restored state. *)

val wipe : t -> unit
(** Drop all state (devices reset, tables cleared) — used when an inbound
    migration is aborted so no half-copied session lingers. *)
