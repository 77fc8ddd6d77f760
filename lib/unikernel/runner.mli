(** Application runner: executes a Cricket GPU application inside a
    simulated host configuration and measures it the way the paper does
    (GNU [time] around the whole process, including initialization).

    For each run a fresh virtual clock, Cricket server (native GPU node)
    and client (with the configuration's network profile and language
    runtime parameters) are created. The measurement is the virtual time
    between process start and the app function returning. *)

type measurement = {
  config : Config.t;
  elapsed : Simnet.Time.t;  (** total virtual wall time (GNU time style) *)
  api_calls : int;  (** CUDA API calls the client issued *)
  bytes_to_server : int;  (** RPC argument payload bytes *)
  bytes_from_server : int;
  memcpy_up : int;  (** cudaMemcpy H2D payload — the paper's transfer metric *)
  memcpy_down : int;
  network_time : Simnet.Time.t;  (** time attributable to the channel *)
}

type env = {
  client : Cricket.Client.t;
  engine : Simnet.Engine.t;
  cfg : Config.t;
  server : Cricket.Server.t;
}

val run :
  ?functional:bool ->
  ?obs:Obs.Recorder.t ->
  Config.t ->
  (env -> unit) ->
  measurement
(** [functional] (default [true]) controls whether kernels mutate device
    memory; see {!Cudasim.Context.set_functional}.

    [obs] threads one observability recorder through every instrumented
    layer — Cricket client shim, RPC client/server, channel, GPU
    simulator — and installs the run's virtual clock on it, so its spans
    ({!Obs.Recorder.spans}) decompose [elapsed] by layer. Enable it with
    {!Obs.Recorder.set_enabled} before the run; without [obs] nothing is
    recorded and the run costs one branch per would-be event. *)

val run_tcp :
  ?functional:bool ->
  ?obs:Obs.Recorder.t ->
  Config.t ->
  (env -> unit) ->
  measurement * Tcpchannel.t
(** Like {!run}, but the RPC bytes traverse the executable TCP stack
    ({!Tcpchannel}: endpoints + virtio-style netdev with the
    configuration's negotiated offloads) instead of the
    {!Simnet.Netcost} closed form. Returns the channel too, for netdev /
    endpoint statistics. *)

(** {1 Fault-injected runs} *)

type fault_report = {
  measurement : measurement;
  faults : Simnet.Fault.stats;  (** what the plan actually injected *)
  rpc_retries : int;  (** RPC retransmissions the client performed *)
  rpc_timeouts : int;  (** attempts that ended in a modelled timeout *)
  reconnects : int;  (** successful channel reconnections *)
  crashes : int;  (** scheduled server crashes that fired *)
  recoveries : int;  (** completed restore+replay recoveries *)
  replayed_calls : int;  (** journaled calls re-issued during recovery *)
  checkpoints : int;  (** automatic checkpoints taken *)
  dup_hits : int;  (** at-most-once cache hits, summed across respawns *)
}

val run_with_faults :
  ?functional:bool ->
  ?checkpoint_every:int ->
  plan:Simnet.Fault.plan ->
  Config.t ->
  (env -> unit) ->
  fault_report
(** Like {!run}, but the channel runs under the fault plan and the full
    recovery stack is armed: client-side retries with virtual-time backoff
    ({!Oncrpc.Client.default_retry}), the server's
    at-most-once duplicate-request cache, session checkpoint/journal/replay
    recovery ([checkpoint_every], default 64), and automatic server respawn
    when a scheduled crash fires. Fully deterministic for a fixed (plan,
    workload, config) triple. Checkpoints go to a fresh temp file that is
    removed afterwards. Raises {!Cricket.Client.Session_lost} if the plan
    defeats recovery (e.g. back-to-back crashes). *)

val charge_rng : env -> int -> unit
(** Account generation of [n] input bytes at the configuration's RNG
    cost — how the C/Rust initialization difference enters benchmarks. *)

val pp_measurement : Format.formatter -> measurement -> unit
val pp_fault_report : Format.formatter -> fault_report -> unit
