(** The Cricket server: executes forwarded CUDA calls on the GPU node.

    Binds the generated RPC dispatch skeleton ({!Proto.Rpc_cd_prog_def_v1})
    to the {!Cudasim} API. One server owns one CUDA context (and thus the
    node's GPUs); any number of client connections — local unikernels, VMs
    or remote native processes — can share it, which is exactly the
    flexible-GPU-assignment story of the paper.

    The server never raises on malformed or failing CUDA calls: errors
    travel back as CUDA error codes inside the result structs, and
    RPC-protocol errors (bad procedure, garbage arguments) as RFC 5531
    accepted-stat errors. *)

type t

val create :
  ?devices:Gpusim.Device.t list ->
  ?memory_capacity:int ->
  ?capacity_clamp:int ->
  ?checkpoint_dir:string ->
  clock:Cudasim.Context.clock ->
  unit ->
  t
(** [checkpoint_dir] (default ["."]) is where [rpc_checkpoint] writes
    state files; paths in checkpoint RPCs are interpreted relative to it
    and may not escape it. [memory_capacity] / [capacity_clamp] are
    forwarded to {!Cudasim.Context.create} (and survive {!respawn}). *)

val respawn : t -> t
(** A fresh server process of the same kind: same GPUs, clock and
    checkpoint directory, but brand-new (empty) CUDA state and RPC
    bookkeeping. This is what a crash-restart supervisor starts — the
    recovering client then restores state from the latest checkpoint and
    replays its journal (see {!Client.enable_recovery}). *)

val dup_hits : t -> int
(** Calls answered from the at-most-once duplicate-request cache (always
    enabled on Cricket servers): client retransmissions whose original
    execution survived. *)

val rpc_server : t -> Oncrpc.Server.t
(** The underlying RPC server, for attaching transports or a portmapper. *)

val context : t -> Cudasim.Context.t
val dispatch : t -> string -> string
(** Request record → reply record (convenience re-export). *)

(** {1 Multi-tenant serving hooks}

    The serving core ({!Tenancy.Core} in [lib/tenancy]) sits between the
    transports and this server. The server itself stays tenancy-agnostic;
    it only exposes the interception points the core needs: a per-request
    admission gate and accounting callbacks for the calls that create or
    release per-tenant device resources. *)

type reject = [ `Lease_expired | `Over_quota | `Overloaded ]
(** Typed admission rejections. On the wire they travel as RFC 5531 auth
    rejections ([AUTH_REJECTEDCRED] / [AUTH_TOOWEAK] / [AUTH_FAILED]), so
    an unmodified client raises a structured {!Oncrpc.Client.Rpc_error}
    instead of hanging; {!reject_of_auth_stat} recovers the reason. *)

val reject_to_auth_stat : reject -> Oncrpc.Message.auth_stat
val reject_of_auth_stat : Oncrpc.Message.auth_stat -> reject option

type tenant_hooks = {
  admit : tenant:string -> reject option;
      (** evaluated once per dispatched request; [Some r] denies the call
          with an auth rejection carrying [r] *)
  malloc_allowed : tenant:string -> size:int64 -> bool;
      (** [false] fails the allocation with [cudaErrorMemoryAllocation]
          (the lease cap feels like device OOM to the tenant) *)
  note_malloc : tenant:string -> ptr:int64 -> size:int64 -> unit;
  note_free : tenant:string -> ptr:int64 -> unit;
  stream_allowed : tenant:string -> bool;
  note_stream_create : tenant:string -> handle:int64 -> unit;
  note_stream_destroy : tenant:string -> handle:int64 -> unit;
}

val set_tenant_hooks : t -> tenant_hooks -> unit

val dispatch_for : t -> tenant:string -> string -> string
(** Like {!dispatch}, but on behalf of a named tenant: the admission hook
    runs first (a rejection becomes a typed auth-denied reply), per-tenant
    call accounting is updated, the tenant identity keys the at-most-once
    duplicate-request cache (so tenants reusing the same xid space never
    collide), and resource-creating calls report to the tenant hooks. *)

val dispatch_preparsed_for :
  t ->
  tenant:string ->
  xid:int32 ->
  prog:int ->
  vers:int ->
  proc:int ->
  body_off:int ->
  string ->
  string
(** {!dispatch_for} for a device-parsed call (see [Tcpstack.Rpcdev]): same
    admission and per-tenant accounting, but an admission rejection is
    answered directly from the known [xid] and an admitted call skips the
    software header decode via {!Oncrpc.Server.dispatch_preparsed}. *)

val tenant_calls : t -> (string * int) list
(** Per-tenant dispatched-call counts, sorted by tenant name. *)

val device_calls : t -> (int * int) list
(** Per-device dispatched-call counts, one entry per device index in
    order. Each call is attributed to the device that was selected when
    it arrived, so a multi-device session's RPC traffic shows up against
    the devices it steered to. *)

(** {1 Live migration (destination side)}

    A source server drives the [rpc_migrate_*] procedures against this
    server to move a tenant session here: begin → base snapshot →
    dirty-page deltas → commit (or abort). The server accepts the copied
    state mechanically; lease adoption is delegated to the hook below so
    the server stays tenancy-agnostic. *)

val set_migration_adopt : t -> (tenant:string -> blob:string -> bool) -> unit
(** Called at commit with the serialized source lease ([blob] is [""] when
    the tenant held no lease). Returning [false] refuses the commit: the
    half-copied state is wiped and the source keeps the session. *)

val migrations_in : t -> int
(** Sessions successfully adopted by this server. *)

val calls_served : t -> int

val proc_stats : t -> (string * int) list
(** Per-procedure call counts, most-called first. Procedure names are
    resolved from the RPCL specification the stubs were generated from —
    the same single source of truth. *)

val proc_name : int -> string
(** Procedure number → RPCL procedure name (["proc_<n>"] for unknown
    numbers). *)

val set_obs : t -> Obs.Recorder.t -> unit
(** Attach an observability recorder to the whole server side: the
    underlying RPC server emits ["dispatch"]-layer spans named by RPCL
    procedure (see {!Oncrpc.Server.set_obs}) and every simulated GPU emits
    ["gpu"]-layer spans for its stream commands
    ({!Gpusim.Gpu.set_obs}). Must be re-applied after {!respawn} — a
    respawned server starts with recording detached, like a real fresh
    process. *)
