module Time = Simnet.Time
module Sim = Simnet.Engine

type params = {
  profile : Unikernel.Config.t;
  buf_kib : int;
  batches : int;
  pre_batches : int;
  dirty_kib : int;
  seed : int;
  fault : Simnet.Fault.plan option;
  config : Engine.config;
}

let default_params =
  {
    profile = Unikernel.Config.rust_native;
    buf_kib = 1024;
    batches = 24;
    pre_batches = 8;
    dirty_kib = 64;
    seed = 7;
    fault = None;
    config = Engine.default;
  }

type outcome =
  | Completed of Engine.report
  | Aborted of { phase : Engine.phase; reason : string }

type audit = {
  lease_present : bool;
  ledger_entries : int;
  ledger_live : bool;
  arena_used : int;
}

type report = {
  params : params;
  outcome : outcome;
  served_during : int;
  served_after : int;
  digest : string;
  digest_ok : bool;
  elapsed : Time.t;
  src_audit : audit;
  dst_audit : audit;
  migrations_in : int;
  mig_stats : Unikernel.Simchannel.stats;
  fault_stats : Simnet.Fault.stats option;
}

let tenant = "tenant-a"

(* Deterministic payload bytes: a tiny LCG keyed by (seed, salt), so runs
   are byte-reproducible without consulting any ambient RNG state. *)
let pattern ~seed ~salt len =
  let b = Bytes.create len in
  let x = ref (((seed * 2654435761) lxor (salt * 40503)) land 0x3FFFFFFF) in
  for i = 0 to len - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    Bytes.unsafe_set b i (Char.unsafe_chr ((!x lsr 7) land 0xff))
  done;
  b

let audit_server leases server =
  let ctx = Cricket.Server.context server in
  let lease = Tenancy.Lease.find leases tenant in
  let allocs = Tenancy.Lease.allocs leases ~tenant in
  let ledger_live =
    List.for_all
      (fun (ptr, dev, _size) ->
        match Cudasim.Context.gpu_at ctx dev with
        | None -> false
        | Some gpu ->
            Gpusim.Memory.is_allocated (Gpusim.Gpu.memory gpu)
              (Int64.to_int ptr))
      allocs
  in
  let arena_used = ref 0 in
  for d = 0 to Cudasim.Context.device_count ctx - 1 do
    match Cudasim.Context.gpu_at ctx d with
    | Some gpu ->
        arena_used := !arena_used + Gpusim.Memory.used_bytes (Gpusim.Gpu.memory gpu)
    | None -> ()
  done;
  {
    lease_present =
      (match lease with
      | Some l -> l.Tenancy.Lease.state = Tenancy.Lease.Active
      | None -> false);
    ledger_entries = List.length allocs;
    ledger_live;
    arena_used = !arena_used;
  }

let run ?obs (p : params) =
  let buf_bytes = p.buf_kib * 1024 in
  let dirty_bytes = p.dirty_kib * 1024 in
  if buf_bytes <= 0 then invalid_arg "Harness.run: buf_kib";
  if dirty_bytes <= 0 || dirty_bytes > buf_bytes then
    invalid_arg "Harness.run: dirty_kib";
  if p.pre_batches > p.batches then invalid_arg "Harness.run: pre_batches";
  let engine = Sim.create () in
  let clock = Cudasim.Context.engine_clock engine in
  let now () = Sim.now engine in
  (match obs with
  | Some obs -> Obs.Recorder.set_clock obs now
  | None -> ());
  let src = Cricket.Server.create ~clock () in
  let dst = ref (Cricket.Server.create ~clock ()) in
  let src_leases =
    Tenancy.Lease.create ~now ~ctx:(fun () -> Cricket.Server.context src) ()
  in
  let fresh_dst_registry () =
    Tenancy.Lease.create ~now ~ctx:(fun () -> Cricket.Server.context !dst) ()
  in
  let dst_leases = ref (fresh_dst_registry ()) in
  let install_dst () =
    Tenancy.Lease.install !dst_leases !dst;
    Cricket.Server.set_migration_adopt !dst (fun ~tenant:_ ~blob ->
        blob = ""
        ||
        match Tenancy.Lease.adopt !dst_leases blob with
        | Ok _ -> true
        | Error _ -> false)
  in
  Tenancy.Lease.install src_leases src;
  install_dst ();
  ignore
    (Tenancy.Lease.grant src_leases ~tenant
       {
         Tenancy.Lease.mem_bytes = buf_bytes + (1024 * 1024);
         streams = 8;
         ttl = Time.s 3600;
       });
  (* The tenant's connection: dispatches against whichever server owns the
     session, switched at commit — the redirect a migration-aware proxy or
     smart client performs. *)
  let serving = ref `Src in
  let tenant_chan =
    Unikernel.Simchannel.create ~engine
      ~client:p.profile.Unikernel.Config.profile
      ~dispatch:(fun req ->
        match !serving with
        | `Src -> Cricket.Server.dispatch_for src ~tenant req
        | `Dst -> Cricket.Server.dispatch_for !dst ~tenant req)
      ()
  in
  let client =
    Cricket.Client.create
      ~transport:(Unikernel.Simchannel.transport tenant_chan)
      ()
  in
  (* The migration channel: source → destination, carrying the fault plan
     under test. It inherits the host profile being evaluated, so the
     profile's network cost shows up in transfer time and stop-and-copy
     pause. A destination crash respawns the destination process (fresh
     registry, hooks rewired). *)
  let mig_fault = Option.map Simnet.Fault.make p.fault in
  let mig_chan =
    Unikernel.Simchannel.create ~engine
      ~client:p.profile.Unikernel.Config.profile ?fault:mig_fault
      ~on_crash:(fun ~down_for:_ ->
        dst := Cricket.Server.respawn !dst;
        dst_leases := fresh_dst_registry ();
        install_dst ())
      ~dispatch:(fun req -> Cricket.Server.dispatch !dst req)
      ()
  in
  let mig_client =
    Cricket.Client.create
      ~transport:(Unikernel.Simchannel.transport mig_chan)
      ()
  in
  let mig_rpc = Cricket.Client.rpc mig_client in
  Oncrpc.Client.set_retry mig_rpc
    (Some { Oncrpc.Client.default_retry with Oncrpc.Client.max_attempts = 10 });
  Oncrpc.Client.set_clock mig_rpc ~now ~sleep:(fun ns -> Sim.advance engine ns);
  Oncrpc.Client.set_reconnect mig_rpc (fun () ->
      Unikernel.Simchannel.reconnect mig_chan);
  let t0 = now () in
  (* session bring-up: one device buffer, filled with a seeded pattern,
     mirrored client-side so the final device contents can be checked
     against ground truth no matter which server ends up serving *)
  let d = Cricket.Client.malloc client buf_bytes in
  let mirror = pattern ~seed:p.seed ~salt:0 buf_bytes in
  Cricket.Client.memcpy_h2d client ~dst:d (Bytes.copy mirror);
  let run_batch i =
    let span = max 1 (buf_bytes - dirty_bytes + 1) in
    let off = i * 7919 * 256 mod span in
    let data = pattern ~seed:p.seed ~salt:(i + 1) dirty_bytes in
    Cricket.Client.memcpy_h2d client
      ~dst:(Int64.add d (Int64.of_int off))
      (Bytes.copy data);
    Bytes.blit data 0 mirror off dirty_bytes
  in
  let next = ref 0 in
  while !next < p.pre_batches do
    run_batch !next;
    incr next
  done;
  let served_during = ref 0 in
  let serve _round =
    if !next < p.batches then begin
      run_batch !next;
      incr next;
      incr served_during
    end
  in
  let outcome =
    match
      Engine.migrate ~src ~leases:src_leases ~dst:mig_client ~tenant
        ~config:p.config ?obs ~now ~serve ()
    with
    | rep ->
        serving := `Dst;
        Completed rep
    | exception Engine.Migration_aborted { phase; reason } ->
        Aborted { phase; reason }
  in
  let served_after = ref 0 in
  while !next < p.batches do
    run_batch !next;
    incr next;
    incr served_after
  done;
  let final = Cricket.Client.memcpy_d2h client ~src:d ~len:buf_bytes in
  let digest = Digest.to_hex (Digest.bytes final) in
  let expected = Digest.to_hex (Digest.bytes mirror) in
  {
    params = p;
    outcome;
    served_during = !served_during;
    served_after = !served_after;
    digest;
    digest_ok = String.equal digest expected;
    elapsed = Time.sub (now ()) t0;
    src_audit = audit_server src_leases src;
    dst_audit = audit_server !dst_leases !dst;
    migrations_in = Cricket.Server.migrations_in !dst;
    mig_stats = Unikernel.Simchannel.stats mig_chan;
    fault_stats = Option.map Simnet.Fault.stats mig_fault;
  }
