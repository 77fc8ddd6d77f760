(** A multi-device fleet session over real Cricket RPC.

    The in-process {!Cluster} owns its GPUs directly; a [Session] drives
    the same heterogeneous-fleet discipline through the wire protocol
    instead: one {!Cricket.Client} connected to a {!Cricket.Server} whose
    context holds the whole device catalog. The session discovers the
    devices via [cudaGetDeviceProperties], resolves a fat binary's
    per-device eligibility client-side with {!Cubin.Fatbin.image_compatible}
    (the server independently re-applies the same rule in
    [cuModuleLoadData], so an incompatible image is rejected at both
    ends), loads the module once per eligible device, and steers each
    launch with [cudaSetDevice] + [cuLaunchKernel].

    Placement mirrors {!Cluster.policy}: round-robin, or cost-aware using
    a client-visible speed proxy (SM count × clock rate from the device
    properties) over the work already assigned — the client cannot see the
    server's virtual clock, so it balances estimated work instead of
    finish times.

    Connect through {!Cricket.Local.connect_for} (or any tenant-routed
    transport) and the session's traffic lands in per-tenant accounting
    and lease hooks; {!Cricket.Server.device_calls} shows the per-device
    RPC spread this steering produces. *)

type t

val connect : ?policy:Cluster.policy -> Cricket.Client.t -> t
(** Queries the device count and properties over RPC. *)

val device_count : t -> int

type modul
type func

val load_module : t -> string -> (modul, Cluster.error) result
(** Load a serialized fatbin on every compatible device (one
    [cuModuleLoadData] each, steered by [cudaSetDevice]).
    [Error No_compatible_image] when no device qualifies. *)

val eligible : modul -> int list

val get_function : t -> modul -> string -> (func, Cluster.error) result

val launch :
  t ->
  func ->
  grid:Gpusim.Kernels.dim3 ->
  block:Gpusim.Kernels.dim3 ->
  ?shared_mem:int ->
  (int -> Gpusim.Kernels.arg array) ->
  (int, Cluster.error) result
(** Place one launch on a compatible device and issue it over RPC;
    the callback builds the argument vector for the chosen device.
    Returns the device index used. *)

val synchronize : t -> unit
(** [cudaDeviceSynchronize] on every device the session launched on. *)

val launches : t -> (int * int) list
(** Per-device launch counts, one entry per device index in order. *)
