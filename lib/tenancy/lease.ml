module Time = Simnet.Time

type caps = { mem_bytes : int; streams : int; ttl : Time.t }

let default_caps =
  { mem_bytes = 64 * 1024 * 1024; streams = 8; ttl = Time.s 3600 }

type state = Active | Expired | Revoked

type lease = {
  tenant : string;
  mutable caps : caps;
  mutable granted_at : Time.t;
  mutable expires_at : Time.t;
  mutable state : state;
  mutable mem_used : int;
  mutable live_streams : int;
  mutable renewals : int;
}

(* Per-lease resource ledger: which device each allocation/stream lives
   on, so reclaim can free it even after the tenant switched devices.
   Keyed by (device, ptr), not bare ptr: each device's arena hands out
   its own pointer values, so the same ptr can be live on two devices at
   once in a multi-device session. *)
type ledger = {
  allocs : (int * int64, int) Hashtbl.t;  (* device, ptr -> size *)
  stream_handles : (int * int64, unit) Hashtbl.t;  (* device, handle *)
}

type stats = {
  expiries : int;
  reclaimed_bytes : int;
  reclaimed_streams : int;
  denied_mallocs : int;
  denied_streams : int;
  expired_denials : int;
}

type t = {
  now : unit -> Time.t;
  ctx : unit -> Cudasim.Context.t;
  table : (string, lease * ledger) Hashtbl.t;
  mutable expiries : int;
  mutable reclaimed_bytes : int;
  mutable reclaimed_streams : int;
  mutable denied_mallocs : int;
  mutable denied_streams : int;
  mutable expired_denials : int;
  mutable adopted : int;
}

let create ~now ~ctx () =
  {
    now;
    ctx;
    table = Hashtbl.create 64;
    expiries = 0;
    reclaimed_bytes = 0;
    reclaimed_streams = 0;
    denied_mallocs = 0;
    denied_streams = 0;
    expired_denials = 0;
    adopted = 0;
  }

let find t tenant =
  match Hashtbl.find_opt t.table tenant with
  | Some (l, _) -> Some l
  | None -> None

(* Free every allocation and stream the lease still holds, on the device
   it was created on, restoring the context's selected device after. *)
let reclaim t (lease, ledger) =
  let ctx = t.ctx () in
  let saved = Cudasim.Context.current ctx in
  let on_device dev f =
    if Cudasim.Context.current ctx <> dev then
      ignore (Cudasim.Context.set_current ctx dev);
    f ()
  in
  Hashtbl.iter
    (fun (dev, ptr) size ->
      on_device dev (fun () ->
          match Cudasim.Api.free ctx ptr with
          | Cudasim.Error.Success ->
              t.reclaimed_bytes <- t.reclaimed_bytes + size
          | _ -> ()))
    ledger.allocs;
  Hashtbl.reset ledger.allocs;
  Hashtbl.iter
    (fun (dev, handle) () ->
      on_device dev (fun () ->
          match Cudasim.Api.stream_destroy ctx handle with
          | Cudasim.Error.Success ->
              t.reclaimed_streams <- t.reclaimed_streams + 1
          | _ -> ()))
    ledger.stream_handles;
  Hashtbl.reset ledger.stream_handles;
  ignore (Cudasim.Context.set_current ctx saved);
  lease.mem_used <- 0;
  lease.live_streams <- 0

let expire t entry =
  let lease, _ = entry in
  lease.state <- Expired;
  t.expiries <- t.expiries + 1;
  reclaim t entry

let revoke_entry t entry =
  let lease, _ = entry in
  lease.state <- Revoked;
  reclaim t entry

let grant t ~tenant caps =
  (match Hashtbl.find_opt t.table tenant with
  | Some ((lease, _) as entry) when lease.state = Active ->
      revoke_entry t entry
  | _ -> ());
  let now = t.now () in
  let lease =
    {
      tenant;
      caps;
      granted_at = now;
      expires_at = Int64.add now caps.ttl;
      state = Active;
      mem_used = 0;
      live_streams = 0;
      renewals = 0;
    }
  in
  let ledger =
    { allocs = Hashtbl.create 16; stream_handles = Hashtbl.create 8 }
  in
  Hashtbl.replace t.table tenant (lease, ledger);
  lease

let check t ~tenant =
  match Hashtbl.find_opt t.table tenant with
  | None -> Error `Unknown_tenant
  | Some ((lease, _) as entry) -> (
      match lease.state with
      | Revoked -> Error `Revoked
      | Expired -> Error `Expired
      | Active ->
          if Int64.compare (t.now ()) lease.expires_at > 0 then begin
            expire t entry;
            Error `Expired
          end
          else Ok lease)

let renew t ~tenant =
  match Hashtbl.find_opt t.table tenant with
  | None -> Error `Unknown_tenant
  | Some ((lease, _) as entry) -> (
      match lease.state with
      | Expired | Revoked -> Error `Not_active
      | Active ->
          let now = t.now () in
          if Int64.compare now lease.expires_at > 0 then begin
            expire t entry;
            Error `Not_active
          end
          else begin
            lease.expires_at <- Int64.add now lease.caps.ttl;
            lease.renewals <- lease.renewals + 1;
            Ok lease.expires_at
          end)

(* {1 Server hooks} *)

let entry_if_active t tenant =
  match Hashtbl.find_opt t.table tenant with
  | Some ((lease, _) as entry) when lease.state = Active -> Some entry
  | _ -> None

let hooks t : Cricket.Server.tenant_hooks =
  {
    admit =
      (fun ~tenant ->
        match check t ~tenant with
        | Ok _ | Error `Unknown_tenant -> None
        | Error (`Expired | `Revoked) ->
            t.expired_denials <- t.expired_denials + 1;
            Some `Lease_expired);
    malloc_allowed =
      (fun ~tenant ~size ->
        match entry_if_active t tenant with
        | None -> true
        | Some (lease, _) ->
            let ok =
              lease.mem_used + Int64.to_int size <= lease.caps.mem_bytes
            in
            if not ok then t.denied_mallocs <- t.denied_mallocs + 1;
            ok);
    note_malloc =
      (fun ~tenant ~ptr ~size ->
        match entry_if_active t tenant with
        | None -> ()
        | Some (lease, ledger) ->
            let dev = Cudasim.Context.current (t.ctx ()) in
            Hashtbl.replace ledger.allocs (dev, ptr) (Int64.to_int size);
            lease.mem_used <- lease.mem_used + Int64.to_int size);
    note_free =
      (fun ~tenant ~ptr ->
        match entry_if_active t tenant with
        | None -> ()
        | Some (lease, ledger) -> (
            let dev = Cudasim.Context.current (t.ctx ()) in
            match Hashtbl.find_opt ledger.allocs (dev, ptr) with
            | None -> ()
            | Some size ->
                Hashtbl.remove ledger.allocs (dev, ptr);
                lease.mem_used <- lease.mem_used - size));
    stream_allowed =
      (fun ~tenant ->
        match entry_if_active t tenant with
        | None -> true
        | Some (lease, _) ->
            let ok = lease.live_streams < lease.caps.streams in
            if not ok then t.denied_streams <- t.denied_streams + 1;
            ok);
    note_stream_create =
      (fun ~tenant ~handle ->
        match entry_if_active t tenant with
        | None -> ()
        | Some (lease, ledger) ->
            let dev = Cudasim.Context.current (t.ctx ()) in
            Hashtbl.replace ledger.stream_handles (dev, handle) ();
            lease.live_streams <- lease.live_streams + 1);
    note_stream_destroy =
      (fun ~tenant ~handle ->
        match entry_if_active t tenant with
        | None -> ()
        | Some (lease, ledger) ->
            let dev = Cudasim.Context.current (t.ctx ()) in
            if Hashtbl.mem ledger.stream_handles (dev, handle) then begin
              Hashtbl.remove ledger.stream_handles (dev, handle);
              lease.live_streams <- lease.live_streams - 1
            end);
  }

let install t server = Cricket.Server.set_tenant_hooks server (hooks t)

let stats t : stats =
  {
    expiries = t.expiries;
    reclaimed_bytes = t.reclaimed_bytes;
    reclaimed_streams = t.reclaimed_streams;
    denied_mallocs = t.denied_mallocs;
    denied_streams = t.denied_streams;
    expired_denials = t.expired_denials;
  }

let leases t =
  Hashtbl.fold (fun _ (l, _) acc -> l :: acc) t.table []
  |> List.sort (fun a b -> compare a.tenant b.tenant)

let allocs t ~tenant =
  match Hashtbl.find_opt t.table tenant with
  | None -> []
  | Some (_, ledger) ->
      Hashtbl.fold
        (fun (dev, ptr) size acc -> (ptr, dev, size) :: acc)
        ledger.allocs []
      |> List.sort compare

(* {1 Migration handoff}

   A lease travels between registries as a self-contained blob: caps,
   timing, and the resource ledger (which the destination needs so reclaim
   keeps working after adoption — device memory was copied by the
   migration, the accounting must follow it). *)

type portable = {
  p_tenant : string;
  p_caps : caps;
  p_granted_at : Time.t;
  p_expires_at : Time.t;
  p_renewals : int;
  p_mem_used : int;
  p_live_streams : int;
  p_allocs : (int64 * (int * int)) list;
  p_streams : (int64 * int) list;
}

let export t ~tenant =
  match Hashtbl.find_opt t.table tenant with
  | None -> Error `Unknown_tenant
  | Some (lease, ledger) ->
      if lease.state <> Active then Error `Not_active
      else
        Ok
          (Marshal.to_string
             {
               p_tenant = tenant;
               p_caps = lease.caps;
               p_granted_at = lease.granted_at;
               p_expires_at = lease.expires_at;
               p_renewals = lease.renewals;
               p_mem_used = lease.mem_used;
               p_live_streams = lease.live_streams;
               p_allocs =
                 Hashtbl.fold
                   (fun (dev, ptr) size acc -> (ptr, (dev, size)) :: acc)
                   ledger.allocs []
                 |> List.sort compare;
               p_streams =
                 Hashtbl.fold
                   (fun (dev, handle) () acc -> (handle, dev) :: acc)
                   ledger.stream_handles []
                 |> List.sort compare;
             }
             [])

let adopt t blob =
  match (Marshal.from_string blob 0 : portable) with
  | exception _ -> Error "unreadable lease blob"
  | p ->
      (* An adopted lease supersedes any lease this registry already holds
         for the tenant; that one's resources belong to old local state,
         which migration just overwrote, so drop it without reclaim. *)
      Hashtbl.remove t.table p.p_tenant;
      let lease =
        {
          tenant = p.p_tenant;
          caps = p.p_caps;
          granted_at = p.p_granted_at;
          expires_at = p.p_expires_at;
          state = Active;
          mem_used = p.p_mem_used;
          live_streams = p.p_live_streams;
          renewals = p.p_renewals;
        }
      in
      let ledger =
        { allocs = Hashtbl.create 16; stream_handles = Hashtbl.create 8 }
      in
      List.iter
        (fun (ptr, (dev, size)) ->
          Hashtbl.replace ledger.allocs (dev, ptr) size)
        p.p_allocs;
      List.iter
        (fun (handle, dev) ->
          Hashtbl.replace ledger.stream_handles (dev, handle) ())
        p.p_streams;
      Hashtbl.replace t.table p.p_tenant (lease, ledger);
      t.adopted <- t.adopted + 1;
      Ok lease

(* After a committed migration the source must forget the session without
   freeing device resources: they now live (copied) on the destination,
   and the source context will be dropped or reused for other tenants —
   its copies are freed here so the source arena does not leak. *)
let complete_handoff t ~tenant =
  match Hashtbl.find_opt t.table tenant with
  | None -> ()
  | Some entry ->
      reclaim t entry;
      Hashtbl.remove t.table tenant
let adopted t = t.adopted
