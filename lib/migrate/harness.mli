(** Fault-injectable two-server migration harness.

    Builds a complete topology on one virtual clock — a source Cricket
    server with a leased tenant, a destination server, a tenant RPC
    channel that follows the session (source until commit, destination
    after), and a migration channel that carries the pre-copy transfer
    and the {!Simnet.Fault.plan} under test — then runs a deterministic
    seeded write workload while {!Engine.migrate} moves the session
    mid-stream. A destination crash on the migration channel respawns the
    destination (fresh context, fresh lease registry, hooks rewired),
    exactly like a failed node coming back empty.

    The workload mirrors every device write into a client-side buffer, so
    the final report can compare a device read-back digest against ground
    truth regardless of which server ended up (or stayed) authoritative —
    the end-to-end correctness check for both handoff and rollback. *)

module Time = Simnet.Time

type params = {
  profile : Unikernel.Config.t;  (** host profile for both channels *)
  buf_kib : int;  (** tenant device buffer size *)
  batches : int;  (** total write batches in the workload *)
  pre_batches : int;  (** batches served before migration starts *)
  dirty_kib : int;  (** bytes rewritten (at a rotating offset) per batch *)
  seed : int;
  fault : Simnet.Fault.plan option;  (** applied to the migration channel *)
  config : Engine.config;
}

val default_params : params
(** rust-native profile, 1 MiB buffer, 24 batches (8 before migration),
    64 KiB dirtied per batch, seed 7, no faults, {!Engine.default}. *)

type outcome =
  | Completed of Engine.report
  | Aborted of { phase : Engine.phase; reason : string }

type audit = {
  lease_present : bool;  (** active lease for the tenant in this registry *)
  ledger_entries : int;  (** live allocations the lease accounts for *)
  ledger_live : bool;
      (** every ledger pointer is actually allocated in this server's
          arena — the no-leak/no-dangle invariant *)
  arena_used : int;  (** allocated bytes across the server's devices *)
}

type report = {
  params : params;
  outcome : outcome;
  served_during : int;  (** batches served from pre-copy [serve] callbacks *)
  served_after : int;  (** batches served after commit (dst) or abort (src) *)
  digest : string;  (** device buffer read back at the end *)
  digest_ok : bool;
      (** [digest] matches a client-side mirror of every write *)
  elapsed : Time.t;  (** virtual time, session start to final read-back *)
  src_audit : audit;
  dst_audit : audit;
  migrations_in : int;  (** destination's committed-inbound counter *)
  mig_stats : Unikernel.Simchannel.stats;
  fault_stats : Simnet.Fault.stats option;
}

val tenant : string
(** The tenant name the harness grants and migrates. *)

val run : ?obs:Obs.Recorder.t -> params -> report
(** Deterministic: equal params give byte-identical reports. *)
