(** Admission control and backpressure for the multi-tenant serving core.

    Every offered work item passes through an admission gate before it may
    queue for dispatch. The gate bounds in-flight work (admitted but not
    yet completed) both per tenant and globally, and sheds load under a
    configurable high-water mark — rejected items get a typed reason
    instead of queueing without bound, so an overloaded server never hangs
    its tenants and never grows unbounded queues.

    Decision order for an offer from tenant [i]:
    + global in-flight [>= global_window] → [Overloaded] (hard wall);
    + global in-flight [>= high_water] and tenant [i] already has work in
      flight → [Overloaded] (load shedding: under pressure only tenants
      with {e nothing} in flight are admitted, which protects light
      tenants from heavy ones);
    + tenant in-flight [>= per_tenant_window] → [Over_quota];
    + otherwise admitted.

    All state is plain arrays indexed by tenant id — deterministic and
    allocation-free on the hot path. *)

type reject_reason = Over_quota | Overloaded | Lease_expired

exception Rejected of reject_reason
(** Raised to a tenant whose work was refused (by the serving core, not by
    this module — {!offer} returns the reason). *)

type config = {
  per_tenant_window : int;  (** max in-flight items per tenant *)
  global_window : int;  (** hard bound on total in-flight items *)
  high_water : int;  (** load-shedding threshold, [<= global_window] *)
}

val default : config
(** 4 per tenant, 4096 global, high water 2048. *)

val unlimited : config
(** No windows (all [max_int]) — for closed-loop harnesses that generate
    work only as fast as it completes. *)

type t

val create : ?config:config -> n_tenants:int -> unit -> t

val offer : t -> tenant:int -> (unit, reject_reason) result
(** Admit (and count in flight) or reject one item. *)

val complete : t -> tenant:int -> unit
(** An admitted item finished (or was abandoned); frees its window slot. *)

type stats = {
  admitted : int;
  rejected_quota : int;
  rejected_overload : int;
  shed : int;  (** [Overloaded] rejections issued below the hard wall *)
}

val stats : t -> stats
