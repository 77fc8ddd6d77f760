(** Tenant registry and leases for the multi-tenant serving core.

    A lease entitles one tenant to a bounded slice of the GPU node: a cap
    on live device memory bytes, a cap on concurrent CUDA streams, and a
    virtual-time TTL. Leases are granted, renewed and checked against the
    simulation clock; when one expires (or a re-grant revokes it) every
    device allocation and stream the tenant still holds is reclaimed
    through the server's CUDA context, so the arena returns to its
    pre-tenant baseline and the memory becomes available to other
    tenants.

    The registry also owns the per-tenant resource accounting that backs
    {!Cricket.Server.tenant_hooks}: {!install} wires a registry into a
    server so that [cudaMalloc] beyond the memory cap fails with
    [cudaErrorMemoryAllocation], [cudaStreamCreate] beyond the stream cap
    likewise, and every successful allocate/free updates the lease. An
    expired lease denies every subsequent call with a typed
    [`Lease_expired] rejection — including journal replays during session
    recovery, so a tenant can never resurrect reclaimed state through a
    partial replay. *)

module Time = Simnet.Time

type caps = {
  mem_bytes : int;  (** max live device bytes *)
  streams : int;  (** max concurrent streams *)
  ttl : Time.t;  (** virtual-time lease duration *)
}

val default_caps : caps
(** 64 MiB, 8 streams, TTL of 1 virtual hour. *)

type state = Active | Expired | Revoked

type lease = {
  tenant : string;
  mutable caps : caps;
  mutable granted_at : Time.t;
  mutable expires_at : Time.t;
  mutable state : state;
  mutable mem_used : int;
  mutable live_streams : int;
  mutable renewals : int;
}

type t

val create :
  now:(unit -> Time.t) -> ctx:(unit -> Cudasim.Context.t) -> unit -> t
(** [ctx] is consulted at reclaim time (a closure, because a crashed
    server respawns with a fresh context). *)

val grant : t -> tenant:string -> caps -> lease
(** Grant (or re-grant) a lease. Any previous lease for the tenant is
    revoked first, reclaiming its resources. *)

val find : t -> string -> lease option

val renew : t -> tenant:string -> (Time.t, [ `Unknown_tenant | `Not_active ]) result
(** Extend an active lease's expiry to [now + ttl]; returns the new
    expiry. Expired and revoked leases cannot be renewed — re-{!grant}. *)

val check : t -> tenant:string -> (lease, [ `Unknown_tenant | `Expired | `Revoked ]) result
(** Validity check, performed per dispatched call. Lazily transitions an
    overdue [Active] lease to [Expired], reclaiming its resources. *)

(** {1 Server wiring} *)

val install : t -> Cricket.Server.t -> unit
(** Install this registry as the server's tenant hooks: admission checks
    lease validity, allocation/stream calls are capped and accounted.
    Tenants without a lease are admitted uncapped (grant to enforce). *)

val hooks : t -> Cricket.Server.tenant_hooks
(** The hooks {!install} uses, exposed so a serving core can wrap them
    (e.g. to add queue-level admission on top of lease validity). *)

(** {1 Statistics} *)

type stats = {
  expiries : int;
  reclaimed_bytes : int;  (** device bytes freed by expiry/revocation *)
  reclaimed_streams : int;
  denied_mallocs : int;  (** allocations refused by the memory cap *)
  denied_streams : int;
  expired_denials : int;  (** calls denied because the lease had expired *)
}

val stats : t -> stats
val leases : t -> lease list
(** Sorted by tenant name. *)

val allocs : t -> tenant:string -> (int64 * int * int) list
(** The tenant's ledger of live device allocations as
    [(ptr, device, size)], sorted — the ground truth migration tests
    audit against the arena on both servers. *)

(** {1 Live-migration handoff}

    The lease follows the session: {!export} serializes it on the source
    (a pure read — the source stays authoritative until commit), the blob
    rides the migration commit RPC, {!adopt} installs it on the
    destination, and only after the commit succeeded does the source call
    {!complete_handoff} to reclaim its now-stale copies and forget the
    tenant. An abort at any earlier point leaves the source lease
    untouched. *)

val export : t -> tenant:string -> (string, [ `Unknown_tenant | `Not_active ]) result
(** Serialize an active lease + its resource ledger. Does not modify the
    registry. *)

val adopt : t -> string -> (lease, string) result
(** Install an exported lease into this registry (destination side),
    including its resource ledger so later reclaim frees the migrated
    copies. Replaces any existing entry for the tenant without reclaim —
    the migration has just overwritten the local device state it
    described. *)

val complete_handoff : t -> tenant:string -> unit
(** Source side, after a committed migration: reclaim the source copies of
    the tenant's device resources and drop the lease. Unknown tenants are
    ignored. *)

val adopted : t -> int
(** Sessions adopted from another server. *)
