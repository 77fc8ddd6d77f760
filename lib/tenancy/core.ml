module Time = Simnet.Time
module Engine = Simnet.Engine

type tenant_spec = {
  name : string;
  priority : int;
  caps : Lease.caps option;
}

type item = { tenant : int; arrival : Time.t; work : unit -> unit }

type tenant_result = {
  name : string;
  completed : int;
  rejected_quota : int;
  rejected_overload : int;
  rejected_expired : int;
  errors : int;
  busy_ns : int64;
  sojourn : Obs.Histogram.t;
}

(* One serving decision, stamped with the engine clock at the moment it
   was made. The timeline is emitted in strictly increasing (time, seq)
   order — seq is the tie-break for decisions made at the same virtual
   instant — which is exactly the sortedness contract Par.Merge checks
   when sharded runs are recombined. *)
type ev_kind = Served | Shed of Admission.reject_reason

type event = {
  ev_time : Time.t;  (** completion (or rejection) instant *)
  ev_arrival : Time.t;
  ev_tenant : int;
  ev_seq : int;
  ev_kind : ev_kind;
}

type result = {
  policy : Cricket.Sched.policy;
  tenants : tenant_result array;
  aggregate : Obs.Histogram.t;
  jain : float;
  makespan : Time.t;
  completed : int;
  rejected : int;
  admission : Admission.stats;
  timeline : event array;  (** every decision in (ev_time, ev_seq) order *)
}

type t = {
  engine : Engine.t;
  server : Cricket.Server.t;
  policy : Cricket.Sched.policy;
  quantum_ns : int;
  admission_config : Admission.config;
  obs : Obs.Recorder.t;
  specs : tenant_spec array;
  leases : Lease.t;
}

let create ~engine ~server ~policy ?(quantum_ns = Dispatch.default_quantum_ns)
    ?(admission = Admission.default) ?(obs = Obs.Recorder.null) ~tenants () =
  if Array.length tenants = 0 then invalid_arg "Core.create: no tenants";
  let leases =
    Lease.create
      ~now:(fun () -> Engine.now engine)
      ~ctx:(fun () -> Cricket.Server.context server)
      ()
  in
  Array.iter
    (fun spec ->
      match spec.caps with
      | Some caps -> ignore (Lease.grant leases ~tenant:spec.name caps)
      | None -> ())
    tenants;
  Lease.install leases server;
  {
    engine;
    server;
    policy;
    quantum_ns;
    admission_config = admission;
    obs;
    specs = tenants;
    leases;
  }

let lease_registry t = t.leases

let dispatch_for t ~tenant request =
  Cricket.Server.dispatch_for t.server ~tenant:t.specs.(tenant).name request

(* Jain's fairness index over per-tenant service time. Tenants that never
   ran are excluded (they say nothing about how service was shared). *)
let jain_index busy =
  let xs = Array.to_list busy |> List.filter (fun b -> b > 0L) in
  match xs with
  | [] -> 1.0
  | xs ->
      let fs = List.map Int64.to_float xs in
      let n = float_of_int (List.length fs) in
      let sum = List.fold_left ( +. ) 0.0 fs in
      let sumsq = List.fold_left (fun a x -> a +. (x *. x)) 0.0 fs in
      if sumsq = 0.0 then 1.0 else sum *. sum /. (n *. sumsq)

type counters = {
  mutable completed : int;
  mutable rejected_quota : int;
  mutable rejected_overload : int;
  mutable rejected_expired : int;
  mutable errors : int;
  mutable busy_ns : int64;
  sojourn : Obs.Histogram.t;
}

let run t items =
  let n = Array.length t.specs in
  let engine = t.engine in
  let obs_on = Obs.Recorder.enabled t.obs in
  let per =
    Array.init n (fun _ ->
        {
          completed = 0;
          rejected_quota = 0;
          rejected_overload = 0;
          rejected_expired = 0;
          errors = 0;
          busy_ns = 0L;
          sojourn = Obs.Histogram.create ();
        })
  in
  let aggregate = Obs.Histogram.create () in
  let admission =
    Admission.create ~config:t.admission_config ~n_tenants:n ()
  in
  let dispatch =
    Dispatch.create ~policy:t.policy ~quantum_ns:t.quantum_ns
      ~tenants:(Array.map (fun (s : tenant_spec) -> s.name) t.specs)
      ~priorities:(Array.map (fun (s : tenant_spec) -> s.priority) t.specs)
      ()
  in
  let items =
    List.stable_sort (fun a b -> Time.compare a.arrival b.arrival) items
  in
  let arrivals = Array.of_list items in
  let n_items = Array.length arrivals in
  let next_arrival = ref 0 in
  let start = Engine.now engine in
  let events = ref [] in
  let next_seq = ref 0 in
  let emit ~arrival ~tenant kind =
    events :=
      { ev_time = Engine.now engine; ev_arrival = arrival; ev_tenant = tenant;
        ev_seq = !next_seq; ev_kind = kind }
      :: !events;
    incr next_seq
  in
  let record_reject ~arrival tenant reason =
    let c = per.(tenant) in
    (match reason with
    | Admission.Over_quota -> c.rejected_quota <- c.rejected_quota + 1
    | Admission.Overloaded -> c.rejected_overload <- c.rejected_overload + 1
    | Admission.Lease_expired -> c.rejected_expired <- c.rejected_expired + 1);
    emit ~arrival ~tenant (Shed reason);
    if obs_on then
      Obs.Recorder.incr t.obs
        (Obs.Recorder.tenant_label "tenancy.rejected"
           ~tenant:t.specs.(tenant).name)
  in
  let admit_due () =
    while
      !next_arrival < n_items
      && Time.compare arrivals.(!next_arrival).arrival (Engine.now engine)
         <= 0
    do
      let item = arrivals.(!next_arrival) in
      incr next_arrival;
      match Admission.offer admission ~tenant:item.tenant with
      | Ok () -> Dispatch.enqueue dispatch ~tenant:item.tenant item
      | Error reason -> record_reject ~arrival:item.arrival item.tenant reason
    done
  in
  let serving = ref true in
  while !serving do
    admit_due ();
    match Dispatch.next dispatch with
    | Some (tenant, item) ->
        let name = t.specs.(tenant).name in
        let lease_ok =
          match Lease.check t.leases ~tenant:name with
          | Ok _ | Error `Unknown_tenant -> true
          | Error (`Expired | `Revoked) -> false
        in
        let t0 = Engine.now engine in
        if lease_ok then begin
          (match item.work () with
          | () -> ()
          | exception _ -> per.(tenant).errors <- per.(tenant).errors + 1);
          let now = Engine.now engine in
          let cost = Int64.to_int (Time.sub now t0) in
          Dispatch.charge dispatch ~tenant ~cost_ns:cost;
          Admission.complete admission ~tenant;
          let c = per.(tenant) in
          c.completed <- c.completed + 1;
          c.busy_ns <- Int64.add c.busy_ns (Int64.of_int cost);
          let sojourn = Time.sub now item.arrival in
          Obs.Histogram.record c.sojourn sojourn;
          Obs.Histogram.record aggregate sojourn;
          emit ~arrival:item.arrival ~tenant Served;
          if obs_on then
            Obs.Recorder.incr t.obs
              (Obs.Recorder.tenant_label "tenancy.served" ~tenant:name)
        end
        else begin
          Dispatch.charge dispatch ~tenant ~cost_ns:0;
          Admission.complete admission ~tenant;
          record_reject ~arrival:item.arrival tenant Admission.Lease_expired
        end
    | None ->
        if !next_arrival < n_items then
          Engine.advance_to engine arrivals.(!next_arrival).arrival
        else serving := false
  done;
  let busy = Array.map (fun c -> c.busy_ns) per in
  let tenants =
    Array.mapi
      (fun i c ->
        {
          name = t.specs.(i).name;
          completed = c.completed;
          rejected_quota = c.rejected_quota;
          rejected_overload = c.rejected_overload;
          rejected_expired = c.rejected_expired;
          errors = c.errors;
          busy_ns = c.busy_ns;
          sojourn = c.sojourn;
        })
      per
  in
  let completed = Array.fold_left (fun a c -> a + c.completed) 0 per in
  let rejected =
    Array.fold_left
      (fun a c ->
        a + c.rejected_quota + c.rejected_overload + c.rejected_expired)
      0 per
  in
  {
    policy = t.policy;
    tenants;
    aggregate;
    jain = jain_index busy;
    makespan = Time.sub (Engine.now engine) start;
    completed;
    rejected;
    admission = Admission.stats admission;
    timeline = Array.of_list (List.rev !events);
  }
