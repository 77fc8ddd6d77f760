(** Device-memory transfer strategies (§4.2 of the paper).

    Cricket implements several ways to move data between application and
    GPU: inside RPC arguments (the only one usable from unikernels, and the
    one the paper evaluates), multiple parallel TCP sockets, GPUDirect RDMA
    over InfiniBand, and shared memory for co-located servers. The paper
    disables everything but the RPC-argument path because unikernels lack
    InfiniBand drivers and host shared memory.

    This module models the strategies' relative bandwidth so the ablation
    benchmark can show what the unikernels are missing. *)

type t =
  | Rpc_arguments  (** single TCP connection, single-threaded staging *)
  | Parallel_tcp of int  (** n sockets + n staging threads *)
  | Infiniband_rdma  (** GPUDirect: no staging buffer at all *)
  | Shared_memory  (** co-located client: memcpy through a shared segment *)

exception Unsupported of { strategy : t; reason : string }

val to_string : t -> string

val supported_by_unikernel : t -> bool
(** Only {!Rpc_arguments}: no IB drivers, no host shared memory, and the
    unikernel network stacks are single-queue. *)

val check_available : unikernel:bool -> t -> unit
(** Raises {!Unsupported} with the paper's reason when a unikernel client
    selects an unavailable strategy. *)

val staging_copies : t -> int
(** How many times each payload byte is copied between the application
    buffer and the wire (tx side) under this strategy. With the
    scatter-gather RPC datapath the {!Rpc_arguments} path is down to the
    single transport staging copy; RDMA and shared memory avoid even
    that. Feeds the copies-per-transfer table in [DESIGN.md]. *)

val bandwidth_multiplier : t -> float
(** Steady-state bandwidth relative to {!Rpc_arguments} on the evaluation
    testbed: parallel sockets scale sub-linearly (still staged through a
    buffer), RDMA reaches the wire rate, shared memory the host memcpy
    rate. *)
