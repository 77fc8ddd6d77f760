(** Heterogeneous multi-GPU cluster scheduler.

    Owns a set of simulated GPUs built from a device catalog (mixed SM
    counts, bandwidths, compute capabilities — e.g.
    {!Gpusim.Device.gpu_node}) and routes every kernel launch to a device
    that can actually run it: a module's fat binary is resolved per device
    with {!Cubin.Fatbin.best_image}, and a launch is only ever placed on a
    device whose compute capability has a compatible SASS image — same
    major architecture, minor not exceeded. A module with no compatible
    image for any device is rejected with a typed {!error}, never run on a
    wrong-arch device.

    Placement is cost-aware by default: the scheduler estimates each
    eligible device's finish time from its current queue depth on the
    virtual clock plus the kernel's analytic cost on that device
    ({!Gpusim.Device.effective_flops} derating, per-grid
    [launch_overhead_ns]), and picks the earliest — faster devices draw
    proportionally more work, and the slowest card stops gating the
    makespan.
    Round-robin placement is kept as the baseline the benchmarks compare
    against.

    Host submission is free on the virtual clock: launches enqueue without
    advancing [now] (each device's stream back-pressure is what the cost
    model sees), and {!barrier} advances [now] to the fleet-wide completion
    — the list-scheduling model of a host thread feeding N devices and
    joining on all of them. *)

module Time = Simnet.Time

type policy = Round_robin | Cost_aware

val policy_name : policy -> string
(** ["rr"] / ["cost"] — the names [benchctl fleet] sweeps over. *)

type error =
  | No_compatible_image
      (** no device in the fleet has a SASS image it can run *)
  | Bad_module of string  (** container or image failed to parse *)
  | Unknown_kernel of string

val error_message : error -> string

type t

val create : ?policy:policy -> Gpusim.Device.t list -> t
(** Builds one {!Gpusim.Gpu.t} per catalog entry with an uncapped memory
    clamp, so per-device OOM behaviour tracks the catalog's
    [total_global_mem] (the backing store only grows as touched). Raises
    [Invalid_argument] on an empty catalog. *)

val policy : t -> policy
val device_count : t -> int
val now : t -> Time.t

val device : t -> int -> Gpusim.Device.t
val gpu : t -> int -> Gpusim.Gpu.t
(** Direct device access for workload buffers (allocation, memcpy). Kernel
    launches must go through {!launch} so compatibility routing and
    accounting apply. *)

(** {1 Modules and functions} *)

type modul
(** A loaded module: the per-device resolution of one fat binary (or
    standalone cubin) to the image each device would execute. *)

type func

val load_module : t -> string -> (modul, error) result
(** Resolve a serialized fatbin/cubin against every device in the fleet.
    [Error No_compatible_image] when no device has a compatible image —
    the typed rejection a scheduler must produce instead of silently
    running wrong-arch SASS. *)

val eligible : modul -> int list
(** Device indices that hold a compatible image, ascending. *)

val get_function : t -> modul -> string -> (func, error) result

(** {1 Launch routing} *)

val launch :
  t -> func -> (int -> Gpusim.Kernels.launch) -> (int * Time.t, error) result
(** [launch t f mk] places one launch on a compatible device chosen by the
    scheduling policy and executes it there (eagerly, time accounted on
    the device's stream). [mk dev] builds the launch parameters for the
    chosen device — argument pointers are device-local, so the callback
    runs after placement (and, for cost estimation, per candidate; it must
    be cheap and pure). Returns the chosen device index and the launch's
    completion time. *)

val barrier : t -> Time.t
(** Advance the cluster clock to the completion of all queued work on all
    devices (host joins the fleet); returns the new [now]. *)

(** {1 Accounting} *)

type device_stats = {
  ds_id : int;
  ds_name : string;
  ds_launches : int;
  ds_busy : Time.t;  (** virtual time the device spent occupied *)
  ds_utilization : float;  (** busy / makespan, 0 when makespan is 0 *)
}

val stats : t -> device_stats list
val makespan : t -> Time.t
(** Max completion time across devices (meaningful after {!barrier}). *)

val total_launches : t -> int

val incompatible_launches : t -> int
(** Launches that reached a device whose architecture could not run the
    selected image — must be zero; a non-zero count means the
    [best_image] compatibility rule was violated upstream. *)

val digest : t -> int64
(** FNV-1a digest of the deterministic merge of all devices' completion
    streams ({!Par.Merge}): byte-identical across runs and domain
    counts. *)
