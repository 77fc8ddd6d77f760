(** Pre-copy live migration of a tenant's GPU session between two Cricket
    servers.

    The source server's context is checkpointed incrementally (dirty-page
    deltas, see {!Cudasim.Context.checkpoint_delta}) and streamed to the
    destination over an ordinary Cricket RPC connection while the source
    keeps serving the tenant. When the delta shrinks below [stop_bytes]
    (or [max_rounds] is exhausted) the source pauses, ships the final
    delta, and commits — handing over the tenant's lease and forgetting
    the session. Failure at any phase aborts with rollback: the
    destination wipes its half-copy and the source, which never stopped
    being authoritative, just keeps serving. *)

module Time = Simnet.Time

type phase = Begin | Base | Delta of int | Stop_copy | Commit

val phase_to_string : phase -> string

exception Migration_aborted of { phase : phase; reason : string }
(** The migration failed and was rolled back. The source session is fully
    intact; the destination holds no tenant state. *)

type config = {
  max_rounds : int;  (** delta rounds before forcing stop-and-copy *)
  stop_bytes : int;  (** delta size that triggers stop-and-copy *)
  pause_budget : Time.t;
      (** abort (rather than commit) if the stop-and-copy pause alone
          already exceeds this *)
}

val default : config
(** 8 rounds, 64 KiB stop threshold, 5 ms pause budget. *)

type round = {
  delta_bytes : int;  (** bytes actually shipped *)
  full_bytes : int;  (** what a full checkpoint would have shipped *)
}

type report = {
  tenant : string;
  base_bytes : int;
  rounds : round list;  (** in order; the last round is the stop-and-copy *)
  total_bytes : int;  (** base + all deltas: bytes actually transferred *)
  full_total_bytes : int;  (** base + a full snapshot per round *)
  pause : Time.t;  (** stop-and-copy through commit (source not serving) *)
  pause_budget : Time.t;
}

val migrate :
  src:Cricket.Server.t ->
  leases:Tenancy.Lease.t ->
  dst:Cricket.Client.t ->
  tenant:string ->
  ?config:config ->
  ?obs:Obs.Recorder.t ->
  now:(unit -> Time.t) ->
  serve:(int -> unit) ->
  unit ->
  report
(** [migrate ~src ~leases ~dst ~tenant ~now ~serve ()] moves [tenant]'s
    session from [src] to the server behind the [dst] client connection.
    [serve i] is called after the base copy and after each non-final delta
    round [i] — this is where the caller keeps dispatching the tenant's
    live traffic on the source (the dirtying those calls do is what the
    next round picks up). Raises {!Migration_aborted} on failure; on
    return the caller must route the tenant's subsequent traffic to the
    destination. [obs] (default null) receives ["migrate"]-layer spans and
    [migrate.*] counters/histograms: rounds, bytes, dirty pages, pause
    time, aborts. *)
