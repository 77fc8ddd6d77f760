module Time = Simnet.Time

type phase = Begin | Base | Delta of int | Stop_copy | Commit

let phase_to_string = function
  | Begin -> "begin"
  | Base -> "base"
  | Delta i -> Printf.sprintf "delta-%d" i
  | Stop_copy -> "stop-copy"
  | Commit -> "commit"

exception Migration_aborted of { phase : phase; reason : string }

let () =
  Printexc.register_printer (function
    | Migration_aborted { phase; reason } ->
        Some
          (Printf.sprintf "Migrate.Engine.Migration_aborted(%s): %s"
             (phase_to_string phase) reason)
    | _ -> None)

type config = {
  max_rounds : int;
  stop_bytes : int;
  pause_budget : Time.t;
}

let default = { max_rounds = 8; stop_bytes = 64 * 1024; pause_budget = Time.ms 5 }

type round = {
  delta_bytes : int;
  full_bytes : int;
}

type report = {
  tenant : string;
  base_bytes : int;
  rounds : round list;
  total_bytes : int;
  full_total_bytes : int;
  pause : Time.t;
  pause_budget : Time.t;
}

(* Pre-copy driver, run on (or beside) the source server.

   begin → base snapshot → { delta round; keep serving } … until the delta
   is small enough (or rounds run out) → stop-and-copy final delta →
   pause-budget check → commit (lease blob rides along) → source handoff.

   Any RPC failure — the destination crashed, the link partitioned past
   the retry budget, the destination refused a transfer — aborts: a
   best-effort abort RPC tells the destination to wipe its half-copy, and
   [Migration_aborted] carries the phase back to the caller. The source
   has kept serving throughout (it only pauses inside stop-and-copy), so
   rollback is simply "carry on".

   The pause budget is enforced between the final delta and the commit:
   before the commit the destination holds a copy but the source is still
   authoritative, so aborting is safe; after a successful commit the
   session has moved, full stop. *)
let migrate ~src ~leases ~dst ~tenant ?(config = default)
    ?(obs = Obs.Recorder.null) ~now ~serve () =
  if config.max_rounds < 1 then invalid_arg "Migrate.Engine.migrate: max_rounds";
  if String.length tenant = 0 then invalid_arg "Migrate.Engine.migrate: tenant";
  let ctx = Cricket.Server.context src in
  Cudasim.Context.set_dirty_tracking ctx true;
  let abort phase reason =
    (try Cricket.Client.migrate_abort dst tenant with _ -> ());
    Obs.Recorder.incr obs "migrate.aborts";
    raise (Migration_aborted { phase; reason })
  in
  let rpc phase f =
    match f () with
    | v -> v
    | exception (Migration_aborted _ as e) -> raise e
    | exception e -> abort phase (Printexc.to_string e)
  in
  Obs.Recorder.with_span obs ~layer:"migrate"
    (Obs.Recorder.tenant_label "migrate.session" ~tenant)
    (fun () ->
      rpc Begin (fun () -> Cricket.Client.migrate_begin dst tenant);
      let base = Cudasim.Context.checkpoint_base ctx in
      let base_bytes = String.length base in
      Obs.Recorder.incr obs ~by:base_bytes "migrate.bytes";
      rpc Base (fun () -> Cricket.Client.migrate_base dst (Bytes.of_string base));
      serve 0;
      let rounds = ref [] in
      let rec loop i =
        let dirty_pages = Cudasim.Context.dirty_pages ctx in
        (* what a full checkpoint would ship at this instant, for the
           incremental-vs-full comparison (does not clear dirty state) *)
        let full_bytes = String.length (Cudasim.Context.checkpoint ctx) in
        let delta = Cudasim.Context.checkpoint_delta ctx in
        let delta_bytes = String.length delta in
        Obs.Recorder.incr obs "migrate.rounds";
        Obs.Recorder.incr obs ~by:delta_bytes "migrate.bytes";
        Obs.Recorder.observe obs "migrate.dirty_pages" (Int64.of_int dirty_pages);
        rounds :=
          { delta_bytes; full_bytes } :: !rounds;
        if delta_bytes <= config.stop_bytes || i >= config.max_rounds then begin
          (* stop-and-copy: the source stops serving until commit/abort *)
          let p0 = now () in
          rpc Stop_copy (fun () ->
              Cricket.Client.migrate_delta dst (Bytes.of_string delta));
          let so_far = Time.sub (now ()) p0 in
          if Time.compare so_far config.pause_budget > 0 then
            abort Stop_copy
              (Printf.sprintf "pause %.1f us already exceeds budget %.1f us"
                 (Time.to_float_us so_far)
                 (Time.to_float_us config.pause_budget));
          let blob =
            match Tenancy.Lease.export leases ~tenant with
            | Ok b -> b
            | Error `Unknown_tenant -> "" (* uncapped tenant: no lease moves *)
            | Error `Not_active -> abort Commit "source lease is not active"
          in
          rpc Commit (fun () ->
              Cricket.Client.migrate_commit dst ~tenant (Bytes.of_string blob));
          Tenancy.Lease.complete_handoff leases ~tenant;
          let pause = Time.sub (now ()) p0 in
          Obs.Recorder.observe obs "migrate.pause_ns" pause;
          Obs.Recorder.incr obs "migrate.completed";
          pause
        end
        else begin
          rpc (Delta i) (fun () ->
              Cricket.Client.migrate_delta dst (Bytes.of_string delta));
          serve i;
          loop (i + 1)
        end
      in
      let pause = loop 1 in
      let rounds = List.rev !rounds in
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 rounds in
      {
        tenant;
        base_bytes;
        rounds;
        total_bytes = base_bytes + sum (fun r -> r.delta_bytes);
        full_total_bytes = base_bytes + sum (fun r -> r.full_bytes);
        pause;
        pause_budget = config.pause_budget;
      })
