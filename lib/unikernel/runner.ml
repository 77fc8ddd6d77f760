module Time = Simnet.Time
module Engine = Simnet.Engine

type measurement = {
  config : Config.t;
  elapsed : Simnet.Time.t;
  api_calls : int;
  bytes_to_server : int;
  bytes_from_server : int;
  memcpy_up : int;
  memcpy_down : int;
  network_time : Simnet.Time.t;
}

type env = {
  client : Cricket.Client.t;
  engine : Simnet.Engine.t;
  cfg : Config.t;
  server : Cricket.Server.t;
}

(* What the shared wiring needs from a channel implementation. *)
type 'ch channel = {
  transport : 'ch -> Oncrpc.Transport.t;
  set_obs : 'ch -> Obs.Recorder.t -> unit;
  network_time : 'ch -> Simnet.Time.t;
}

let simchannel =
  {
    transport = Simchannel.transport;
    set_obs = Simchannel.set_obs;
    network_time = (fun c -> (Simchannel.stats c).Simchannel.network_time);
  }

let tcpchannel =
  {
    transport = Tcpchannel.transport;
    set_obs = Tcpchannel.set_obs;
    network_time = (fun c -> (Tcpchannel.stats c).Tcpchannel.network_time);
  }

(* The wiring every runner shares: a fresh engine and Cricket server, the
   process startup charge, then [connect] builds the channel (Simchannel
   leaves the clock alone; Tcpchannel runs its TCP handshake here) and the
   Cricket client talks through it. An [obs] recorder is threaded through
   every instrumented layer and driven off the engine's virtual clock, so
   span durations decompose exactly the virtual time the measurement
   reports. Returns the app's environment, the channel, and a function
   measuring the run from process start up to now. *)
let start ?checkpoint_dir ?obs ~functional (cfg : Config.t) ops ~connect =
  let engine = Engine.create () in
  let server =
    Cricket.Server.create ?checkpoint_dir
      ~clock:(Cudasim.Context.engine_clock engine)
      ()
  in
  Cudasim.Context.set_functional (Cricket.Server.context server) functional;
  let t0 = Engine.now engine in
  (* process startup: load, then connect to the Cricket server *)
  Engine.advance engine (Time.us 150);
  let channel = connect engine server in
  let client =
    Cricket.Client.create ~launch_extra_ns:cfg.Config.launch_extra_ns
      ~charge:(fun ns -> Engine.advance engine (Time.ns ns))
      ~transport:(ops.transport channel)
      ()
  in
  (match obs with
  | None -> ()
  | Some obs ->
      Obs.Recorder.set_clock obs (fun () -> Engine.now engine);
      Cricket.Server.set_obs server obs;
      Cricket.Client.set_obs client obs;
      ops.set_obs channel obs);
  let measure () =
    {
      config = cfg;
      elapsed = Time.sub (Engine.now engine) t0;
      api_calls = Cricket.Client.api_calls client;
      bytes_to_server = Cricket.Client.bytes_to_server client;
      bytes_from_server = Cricket.Client.bytes_from_server client;
      memcpy_up = Cricket.Client.memcpy_bytes_up client;
      memcpy_down = Cricket.Client.memcpy_bytes_down client;
      network_time = ops.network_time channel;
    }
  in
  ({ client; engine; cfg; server }, channel, measure)

let run ?(functional = true) ?obs (cfg : Config.t) app =
  let env, _, measure =
    start ?obs ~functional cfg simchannel ~connect:(fun engine server ->
        Simchannel.create ~engine ~client:cfg.Config.profile
          ~dispatch:(Cricket.Server.dispatch server)
          ())
  in
  app env;
  measure ()

(* Like [run], but the RPC bytes traverse the executable TCP stack
   (Tcpchannel: Endpoint + Netdev with the configuration's negotiated
   offloads) instead of the Netcost closed form. *)
let run_tcp ?(functional = true) ?obs (cfg : Config.t) app =
  let env, channel, measure =
    start ?obs ~functional cfg tcpchannel ~connect:(fun engine server ->
        Tcpchannel.create ~engine ~client:cfg.Config.profile
          ~dispatch:(Cricket.Server.dispatch server)
          ())
  in
  app env;
  (measure (), channel)

type fault_report = {
  measurement : measurement;
  faults : Simnet.Fault.stats;
  rpc_retries : int;
  rpc_timeouts : int;
  reconnects : int;
  crashes : int;
  recoveries : int;
  replayed_calls : int;
  checkpoints : int;
  dup_hits : int;
}

let run_with_faults ?(functional = true) ?checkpoint_every ~plan
    (cfg : Config.t) app =
  (* a unique temp file so concurrent test binaries never share checkpoints *)
  let ckpt_file = Filename.temp_file "cricket-session" ".ckpt" in
  let fault = Simnet.Fault.make plan in
  (* the server process currently serving; each crash respawns it *)
  let live = ref None in
  (* dup-cache hits die with each crashed server process; aggregate them *)
  let dup_hits_acc = ref 0 in
  let env, channel, measure =
    start ~checkpoint_dir:(Filename.dirname ckpt_file) ~functional cfg
      simchannel ~connect:(fun engine server ->
        live := Some server;
        Simchannel.create ~engine ~client:cfg.Config.profile ~fault
          ~on_crash:(fun ~down_for:_ ->
            let old = Option.get !live in
            dup_hits_acc := !dup_hits_acc + Cricket.Server.dup_hits old;
            let fresh = Cricket.Server.respawn old in
            Cudasim.Context.set_functional
              (Cricket.Server.context fresh)
              functional;
            live := Some fresh)
          ~dispatch:(fun request ->
            Cricket.Server.dispatch (Option.get !live) request)
          ())
  in
  let engine = env.engine in
  Cricket.Client.enable_recovery ?checkpoint_every
    ~checkpoint_name:(Filename.basename ckpt_file) env.client
    ~now:(fun () -> Engine.now engine)
    ~sleep:(fun ns -> Engine.advance engine ns)
    ~reconnect:(fun () -> Simchannel.reconnect channel)
    ();
  Fun.protect
    ~finally:(fun () -> try Sys.remove ckpt_file with Sys_error _ -> ())
    (fun () ->
      app env;
      let stats = Simchannel.stats channel in
      let rpc = Oncrpc.Client.stats (Cricket.Client.rpc env.client) in
      {
        measurement = measure ();
        faults = Simnet.Fault.stats fault;
        rpc_retries = rpc.Oncrpc.Client.retries;
        rpc_timeouts = rpc.Oncrpc.Client.timeouts;
        reconnects = stats.Simchannel.reconnects;
        crashes = stats.Simchannel.crashes;
        recoveries = Cricket.Client.recoveries env.client;
        replayed_calls = Cricket.Client.replayed_calls env.client;
        checkpoints = Cricket.Client.checkpoints_taken env.client;
        dup_hits =
          !dup_hits_acc + Cricket.Server.dup_hits (Option.get !live);
      })

let charge_rng env n =
  let ns = Float.of_int n *. env.cfg.Config.rng_ns_per_byte in
  Engine.advance env.engine (Time.of_float_ns ns)

let pp_measurement ppf m =
  Format.fprintf ppf "%-9s %a (%d API calls, %.2f MiB up, %.2f MiB down)"
    m.config.Config.name Time.pp m.elapsed m.api_calls
    (Float.of_int m.bytes_to_server /. 1048576.0)
    (Float.of_int m.bytes_from_server /. 1048576.0)

let pp_fault_report ppf r =
  Format.fprintf ppf
    "%a@ faults: %a@ rpc: %d retries, %d timeouts, %d reconnects@ recovery: \
     %d crashes, %d recoveries, %d replayed, %d checkpoints, %d dup hits"
    pp_measurement r.measurement Simnet.Fault.pp_stats r.faults r.rpc_retries
    r.rpc_timeouts r.reconnects r.crashes r.recoveries r.replayed_calls
    r.checkpoints r.dup_hits
