(** Many unikernels sharing one Cricket server (§5 of the paper).

    "Because the use case of unikernels involves using many unikernels to
    run isolated applications, mapping entire GPUs to individual
    unikernels is not feasible. In contrast, our approach allows the
    flexibility of sharing GPU devices across many unikernels, managing
    the shared access through configurable schedulers."

    This harness runs N tenant applications against a single Cricket
    server and GPU, each tenant with its own RPC channel (and host
    profile), interleaved at RPC granularity under a scheduling policy:

    - [Fifo]: tenants run to completion in arrival order (head-of-line
      blocking — what static GPU assignment feels like);
    - [Round_robin]: one call per tenant per turn (fair sharing);
    - [Priority]: the most urgent tenant with work left always goes next.

    All tenants share one virtual clock, one server, one GPU — so a
    tenant's kernel executions and transfers delay the others exactly as
    a shared physical device would.

    Since the serving core landed this harness is a thin veneer over
    {!Tenancy.Core} (quantum 1 ns so DRR degenerates to one call per
    tenant per turn, unlimited admission, no leases), kept because its
    step-granularity reports are what EXPERIMENTS.md's §5 tables pin.
    For overload behaviour, leases, and 10k-client scale use
    [Tenancy.Loadgen] / [benchctl tenants]. *)

type step = Cricket.Client.t -> unit
(** One unit of tenant work (typically one or a few CUDA calls). *)

type tenant_spec = {
  name : string;
  config : Config.t;  (** host profile for this tenant's channel *)
  priority : int;  (** smaller = more urgent (Priority policy only) *)
  work : step list;
}

type tenant_report = {
  tenant : string;
  steps : int;
  api_calls : int;
  finished_at : Simnet.Time.t;  (** virtual completion time *)
}

type report = {
  policy : Cricket.Sched.policy;
  tenants : tenant_report list;  (** in input order *)
  makespan : Simnet.Time.t;
}

val run :
  ?policy:Cricket.Sched.policy ->
  ?functional:bool ->
  tenant_spec list ->
  report

val pp_report : Format.formatter -> report -> unit
