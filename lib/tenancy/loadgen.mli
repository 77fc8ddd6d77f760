(** Multi-tenant load harness: simulate thousands of clients against one
    serving core and report per-tenant latency, rejection and fairness.

    Each simulated tenant is a real {!Cricket.Client} connected through a
    loopback transport to the tenant-aware server dispatch, generating a
    Poisson stream of work items drawn from a fixed mix (control-plane
    Small items, PCIe-bound Transfer items, GPU-bound Compute items, plus
    a configurable fraction of heavy tenants that multiply their work).
    Everything — arrivals, item kinds, payloads — derives from the seed,
    so a run's report is byte-reproducible: equal seeds give equal
    reports, which CI checks by diffing two runs.

    The tenant set is partitioned over [shards] logical shards — each a
    complete, self-contained serving core (own engine, server, leases,
    admission, DRR) — executed across [domains] OCaml domains by
    {!Par.Pool} and recombined through the deterministic virtual-time
    merge ({!Par.Merge}, ordered by (vtime, shard, seq)). The shard
    split is a pure function of tenant id and shard count, so the
    rendered report is byte-identical for any [domains]; only wall-clock
    time changes.

    A fresh engine + server set is built per policy so the three
    policies serve identical offered load. *)

module Time = Simnet.Time

type params = {
  tenants : int;
  items_per_tenant : int;
  seed : int;
  mean_gap : Time.t;  (** per-tenant Poisson inter-arrival mean *)
  policies : Cricket.Sched.policy list;
  quantum_ns : int;
  admission : Admission.config;
  caps : Lease.caps;  (** granted to every tenant *)
  heavy_every : int;  (** every k-th tenant is heavy; 0 disables *)
  heavy_factor : int;  (** heavy tenants repeat each item this often *)
  uniform : bool;
      (** all tenants run identical cheap items (no mix, no heavies) —
          the workload under which DRR's Jain index should approach 1 *)
  shards : int;
      (** logical serving shards the tenant set is partitioned over;
          part of the workload definition, independent of [domains] *)
  domains : int;
      (** OCaml domains executing the shards (clamped to [1, shards]);
          never affects report bytes, only wall-clock time *)
}

val default : params
(** 10k tenants, 2 items each, all three policies, windows sized so the
    admission gate engages under the offered load. *)

val smoke : params
(** CI-sized: 1k tenants, tighter windows, same determinism. *)

type percentiles = { p50_us : float; p99_us : float }

type report = {
  policy : Cricket.Sched.policy;
  tenants : int;
  items : int;  (** offered (generated) items *)
  shards : int;
  completed : int;
  rejected_quota : int;
  rejected_overload : int;
  rejected_expired : int;
  errors : int;
  makespan_ms : float;
  latency : percentiles;  (** aggregate sojourn over the merged timeline *)
  tenant_p99_med_us : float;  (** spread of per-tenant p99 sojourn *)
  tenant_p99_max_us : float;
  jain : float;
  events : int;  (** merged timeline length (served + shed) *)
  digest : int64;
      (** FNV-1a over the merged (vtime, shard, seq, payload) order —
          pinned byte-identical across --domains counts *)
}

val run_policy : params -> Cricket.Sched.policy -> report
val run : params -> report list
(** One report per entry of [params.policies]. *)

val to_string : report list -> string
(** Fixed-format table; byte-identical across equal-seed runs. *)
