(** The multi-tenant serving core: leases + admission + fair-share
    dispatch glued into one virtual-time serving loop.

    The core sits between transports and a {!Cricket.Server}. Work
    arrives as {!item}s — a tenant, a virtual arrival time, and a closure
    that performs the tenant's calls against the server. The loop:

    + admits every due arrival through {!Admission} (typed rejection
      instead of unbounded queueing);
    + asks {!Dispatch} which tenant's head-of-line item runs next;
    + re-validates the tenant's {!Lease} (an item admitted while the
      lease was live can still find it expired by the time it is served —
      it is rejected with [Lease_expired], and the lease's device memory
      has already been reclaimed);
    + runs the item to completion, measuring the virtual time it
      consumed, and post-charges that cost to the DRR ring;
    + records the item's sojourn (completion − arrival) into per-tenant
      and aggregate {!Obs.Histogram}s.

    When the queues drain, virtual time advances to the next arrival, so
    a run is a deterministic function of the item set. Per-call
    enforcement (lease validity on every RPC, memory/stream caps) is
    installed into the server via {!Lease.install} at {!create} time. *)

module Time = Simnet.Time

type tenant_spec = {
  name : string;
  priority : int;  (** class under [Priority]; smaller is more urgent *)
  caps : Lease.caps option;  (** [None] = no lease, uncapped *)
}

type item = {
  tenant : int;  (** index into the [tenants] array *)
  arrival : Time.t;
  work : unit -> unit;
}

type tenant_result = {
  name : string;
  completed : int;
  rejected_quota : int;
  rejected_overload : int;
  rejected_expired : int;
  errors : int;  (** items whose work raised (run still completes) *)
  busy_ns : int64;  (** virtual ns of service consumed *)
  sojourn : Obs.Histogram.t;  (** completion − arrival, completed items *)
}

type ev_kind = Served | Shed of Admission.reject_reason

type event = {
  ev_time : Time.t;  (** engine clock when the decision was made *)
  ev_arrival : Time.t;
  ev_tenant : int;  (** index into the [tenants] array *)
  ev_seq : int;  (** emission index; tie-break among same-instant events *)
  ev_kind : ev_kind;
}
(** One serving decision. The timeline is emitted in strictly increasing
    (ev_time, ev_seq) order — the sortedness contract [Par.Merge]
    assumes when sharded runs are recombined into one global order. *)

type result = {
  policy : Cricket.Sched.policy;
  tenants : tenant_result array;
  aggregate : Obs.Histogram.t;
  jain : float;  (** Jain index over per-tenant [busy_ns]; 1.0 = equal *)
  makespan : Time.t;
  completed : int;
  rejected : int;
  admission : Admission.stats;
  timeline : event array;  (** every decision, in (ev_time, ev_seq) order *)
}

type t

val create :
  engine:Simnet.Engine.t ->
  server:Cricket.Server.t ->
  policy:Cricket.Sched.policy ->
  ?quantum_ns:int ->
  ?admission:Admission.config ->
  ?obs:Obs.Recorder.t ->
  tenants:tenant_spec array ->
  unit ->
  t
(** Grants a lease per tenant with caps, installs the lease registry as
    the server's tenant hooks, and prepares the admission gate. [obs]
    (when enabled) receives per-tenant counters under
    [Obs.Recorder.tenant_label] names ["tenancy.served"] /
    ["tenancy.rejected"]. *)

val lease_registry : t -> Lease.t
(** For renewal, revocation and inspection from tests/harnesses. *)

val dispatch_for : t -> tenant:int -> string -> string
(** Serve one raw RPC record for a tenant through the server's
    tenant-aware dispatch — the connector harnesses hand to transports. *)

val run : t -> item list -> result
(** Serve the items to completion. Items with equal arrival are served
    in list order (stable sort). Reusable: each [run] starts fresh
    per-run statistics but shares leases and the server. *)

val jain_index : int64 array -> float
(** Jain's fairness index over per-tenant service time; tenants with
    zero service are excluded. Used by sharded harnesses to recompute
    global fairness across shard-local results. *)
