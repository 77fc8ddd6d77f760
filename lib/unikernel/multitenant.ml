module Time = Simnet.Time
module Engine = Simnet.Engine

type step = Cricket.Client.t -> unit

type tenant_spec = {
  name : string;
  config : Config.t;
  priority : int;
  work : step list;
}

type tenant_report = {
  tenant : string;
  steps : int;
  api_calls : int;
  finished_at : Simnet.Time.t;
}

type report = {
  policy : Cricket.Sched.policy;
  tenants : tenant_report list;
  makespan : Simnet.Time.t;
}

let run ?(policy = Cricket.Sched.Round_robin) ?(functional = true) specs =
  if specs = [] then invalid_arg "Multitenant.run: no tenants";
  let engine = Engine.create () in
  let server =
    Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  Cudasim.Context.set_functional (Cricket.Server.context server) functional;
  let specs_a = Array.of_list specs in
  let core =
    Tenancy.Core.create ~engine ~server ~policy
      (* Quantum of 1 virtual ns: any step with nonzero cost exhausts the
         deficit, so DRR degenerates to one step per tenant per turn —
         the historical Multitenant round-robin granularity. *)
      ~quantum_ns:1
      ~admission:Tenancy.Admission.unlimited
      ~tenants:
        (Array.map
           (fun spec ->
             { Tenancy.Core.name = spec.name; priority = spec.priority;
               caps = None })
           specs_a)
      ()
  in
  (* Each tenant keeps its own RPC channel with its own host profile; the
     channel dispatches through the tenant-aware server path, so tenants
     get separate duplicate-request cache key spaces. *)
  let clients =
    Array.mapi
      (fun i spec ->
        let channel =
          Simchannel.create ~engine ~client:spec.config.Config.profile
            ~dispatch:(fun req -> Tenancy.Core.dispatch_for core ~tenant:i req)
            ()
        in
        Cricket.Client.create
          ~launch_extra_ns:spec.config.Config.launch_extra_ns
          ~charge:(fun ns -> Engine.advance engine (Time.ns ns))
          ~transport:(Simchannel.transport channel)
          ())
      specs_a
  in
  let n = Array.length specs_a in
  let steps_total = Array.map (fun s -> List.length s.work) specs_a in
  let steps_done = Array.make n 0 in
  let finished_at = Array.make n Time.zero in
  let items =
    List.concat
      (List.mapi
         (fun i spec ->
           List.map
             (fun step ->
               {
                 Tenancy.Core.tenant = i;
                 arrival = Time.zero;
                 work =
                   (fun () ->
                     step clients.(i);
                     steps_done.(i) <- steps_done.(i) + 1;
                     if steps_done.(i) = steps_total.(i) then
                       finished_at.(i) <- Engine.now engine);
               })
             spec.work)
         specs)
  in
  let result = Tenancy.Core.run core items in
  let reports =
    List.mapi
      (fun i spec ->
        {
          tenant = spec.name;
          steps = steps_done.(i);
          api_calls = Cricket.Client.api_calls clients.(i);
          finished_at =
            (if steps_done.(i) = steps_total.(i) && steps_total.(i) > 0 then
               finished_at.(i)
             else Engine.now engine);
        })
      specs
  in
  ignore result.Tenancy.Core.completed;
  { policy; tenants = reports; makespan = Engine.now engine }

let pp_report ppf r =
  Format.fprintf ppf "policy %s, makespan %a@."
    (Cricket.Sched.policy_to_string r.policy)
    Time.pp r.makespan;
  List.iter
    (fun t ->
      Format.fprintf ppf "  %-12s %4d steps %6d calls  finished at %a@."
        t.tenant t.steps t.api_calls Time.pp t.finished_at)
    r.tenants
