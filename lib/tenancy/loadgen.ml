module Time = Simnet.Time
module Engine = Simnet.Engine
module Rv = Simnet.Random_variate

type params = {
  tenants : int;
  items_per_tenant : int;
  seed : int;
  mean_gap : Time.t;
  policies : Cricket.Sched.policy list;
  quantum_ns : int;
  admission : Admission.config;
  caps : Lease.caps;
  heavy_every : int;
  heavy_factor : int;
  uniform : bool;
  shards : int;
      (** logical shards: independent serving cores the tenant set is
          partitioned over. Fixed by the workload, NOT by [domains] —
          that split is what keeps reports byte-identical while the
          domain count varies. *)
  domains : int;  (** OCaml domains executing the shards *)
}

let default =
  {
    tenants = 10_000;
    items_per_tenant = 4;
    seed = 42;
    (* Per-tenant Poisson arrivals; at 10k tenants this offered load keeps
       the serving core moderately overloaded (~10-20% of items shed), so
       the admission windows actually engage. *)
    mean_gap = Time.ms 300;
    policies = Cricket.Sched.[ Fifo; Round_robin; Priority ];
    quantum_ns = Dispatch.default_quantum_ns;
    admission =
      { Admission.per_tenant_window = 3; global_window = 512; high_water = 448 };
    caps = { Lease.default_caps with mem_bytes = 1 * 1024 * 1024 };
    heavy_every = 10;
    heavy_factor = 8;
    uniform = false;
    shards = Par.Topology.default_shards;
    domains = 1;
  }

let smoke =
  {
    default with
    tenants = 1_000;
    items_per_tenant = 4;
    mean_gap = Time.ms 30;
    admission =
      { Admission.per_tenant_window = 3; global_window = 128; high_water = 112 };
  }

type percentiles = { p50_us : float; p99_us : float }

type report = {
  policy : Cricket.Sched.policy;
  tenants : int;
  items : int;
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
      (** order-sensitive fingerprint of the merged (vtime, shard, seq)
          timeline — byte-identical across domain counts by contract *)
}

(* Small deterministic payload, shared read-only across worker domains —
   eager on purpose: forcing a [lazy] concurrently from several domains
   is a race (RacyLazy). *)
let payload = Bytes.init 32_768 (fun i -> Char.chr ((i * 131) land 0xff))

(* Three item shapes with distinct cost profiles:
   - Small: 4 KiB scratch, memset, free (cheap control-plane traffic);
   - Transfer: 32 KiB h2d + d2h round trip (PCIe bound);
   - Compute: 32x32 sgemm through a transient cuBLAS handle (GPU bound). *)
type kind = Small | Transfer | Compute

let kind_of_draw u = if u < 0.6 then Small else if u < 0.9 then Transfer else Compute

let run_item client kind ~repeat =
  let module C = Cricket.Client in
  for _ = 1 to repeat do
    match kind with
    | Small ->
        let p = C.malloc client 4096 in
        C.memset client ~ptr:p ~value:0 ~len:4096;
        C.free client p
    | Transfer ->
        let data = payload in
        let len = Bytes.length data in
        let p = C.malloc client len in
        C.memcpy_h2d client ~dst:p data;
        ignore (C.memcpy_d2h client ~src:p ~len);
        C.free client p
    | Compute ->
        let n = 32 in
        let bytes = n * n * 4 in
        let h = C.cublas_create client in
        let a = C.malloc client bytes in
        let b = C.malloc client bytes in
        let c = C.malloc client bytes in
        C.cublas_sgemm client ~handle:h ~m:n ~n ~k:n ~alpha:1.0 ~a ~lda:n
          ~b ~ldb:n ~beta:0.0 ~c ~ldc:n;
        C.free client a;
        C.free client b;
        C.free client c;
        C.cublas_destroy client h
  done

let tenant_name i = Printf.sprintf "t%05d" i

(* One logical shard = one complete serving core: its own engine, its own
   Cricket server, its own leases/admission/DRR over its slice of the
   tenant set. Nothing here touches state outside the shard, so the body
   may run on any domain. Item streams are derived per *global* tenant id
   ({!Rv.substream}), so a tenant's workload is identical no matter which
   shard or domain serves it. *)
let run_shard (params : params) policy ~tenants:tenant_ids =
  let engine = Engine.create () in
  let server =
    Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  let n = Array.length tenant_ids in
  let specs =
    Array.map
      (fun gi ->
        {
          Core.name = tenant_name gi;
          (* Three priority classes, round-robin over the global tenant
             index, so the Priority policy has real classes to
             discriminate. *)
          priority = gi mod 3;
          caps = Some params.caps;
        })
      tenant_ids
  in
  let core =
    Core.create ~engine ~server ~policy ~quantum_ns:params.quantum_ns
      ~admission:params.admission ~tenants:specs ()
  in
  (* One lazily-created client per tenant, dispatching through the
     tenant-aware server path (typed rejections, per-tenant dup cache). *)
  let clients = Array.make n None in
  let client_of j =
    match clients.(j) with
    | Some c -> c
    | None ->
        let transport =
          Cricket.Local.transport_of_dispatch (fun record ->
              Core.dispatch_for core ~tenant:j record)
        in
        let c =
          Cricket.Client.create
            ~charge:(fun ns -> Engine.advance engine (Time.ns ns))
            ~transport ()
        in
        clients.(j) <- Some c;
        c
  in
  let items = ref [] in
  for j = n - 1 downto 0 do
    let gi = tenant_ids.(j) in
    let arrivals =
      Rv.poisson_arrivals
        (Rv.substream ~seed:params.seed ~index:(2 * gi))
        ~mean_gap:params.mean_gap ~count:params.items_per_tenant
    in
    let kinds = Rv.substream ~seed:params.seed ~index:((2 * gi) + 1) in
    let heavy =
      (not params.uniform)
      && params.heavy_every > 0
      && gi mod params.heavy_every = 0
    in
    List.iter
      (fun arrival ->
        let kind =
          if params.uniform then Small else kind_of_draw (Rv.uniform kinds)
        in
        let repeat = if heavy then params.heavy_factor else 1 in
        items :=
          {
            Core.tenant = j;
            arrival;
            work = (fun () -> run_item (client_of j) kind ~repeat);
          }
          :: !items)
      arrivals
  done;
  (* Stable order under equal arrivals must not depend on construction
     order tricks: sort by (arrival, tenant). Local tenant index order
     equals global id order within a shard, so this key is stable under
     resharding too. *)
  let items =
    List.stable_sort
      (fun (a : Core.item) b ->
        match Time.compare a.arrival b.arrival with
        | 0 -> compare a.tenant b.tenant
        | c -> c)
      !items
  in
  Core.run core items

let kind_tag = function
  | Core.Served -> 1
  | Core.Shed Admission.Over_quota -> 2
  | Core.Shed Admission.Overloaded -> 3
  | Core.Shed Admission.Lease_expired -> 4

let run_policy (params : params) policy =
  let shards = max 1 params.shards in
  let partition = Par.Topology.partition ~shards ~n:params.tenants in
  let shard_results =
    Par.Pool.run ~domains:params.domains shards (fun s ->
        run_shard params policy ~tenants:partition.(s))
  in
  (* Deterministic virtual-time merge: every shard decision, ordered by
     (vtime, shard, seq), replayed into one global engine. *)
  let streams =
    Array.mapi
      (fun s (r : Core.result) ->
        Array.map
          (fun (ev : Core.event) ->
            { Par.Merge.vtime = ev.Core.ev_time; shard = s;
              seq = ev.Core.ev_seq;
              payload = (partition.(s).(ev.Core.ev_tenant), ev) })
          r.Core.timeline)
      shard_results
  in
  let merged = Par.Merge.merge streams in
  let digest =
    Par.Merge.digest merged ~payload:(fun (gi, ev) ->
        Int64.of_int ((gi * 8) + kind_tag ev.Core.ev_kind))
  in
  let gengine = Engine.create () in
  let aggregate = Obs.Histogram.create () in
  Par.Merge.replay ~engine:gengine merged (fun e ->
      let _gi, (ev : Core.event) = e.Par.Merge.payload in
      match ev.Core.ev_kind with
      | Core.Served ->
          Obs.Histogram.record aggregate (Time.sub ev.Core.ev_time ev.Core.ev_arrival)
      | Core.Shed _ -> ());
  let makespan = Engine.now gengine in
  (* Per-tenant results back in global tenant order. *)
  let tenant_results = Array.make params.tenants None in
  Array.iteri
    (fun s (r : Core.result) ->
      Array.iteri
        (fun j tr -> tenant_results.(partition.(s).(j)) <- Some tr)
        r.Core.tenants)
    shard_results;
  let tenant_results =
    Array.map
      (function Some tr -> tr | None -> assert false)
      tenant_results
  in
  let q h p =
    if Obs.Histogram.count h = 0 then 0.0
    else Int64.to_float (Obs.Histogram.quantile h p) /. 1_000.0
  in
  let per_p99 =
    Array.to_list tenant_results
    |> List.filter_map (fun (tr : Core.tenant_result) ->
           if Obs.Histogram.count tr.sojourn > 0 then
             Some (q tr.sojourn 0.99)
           else None)
    |> List.sort compare
  in
  let nth_frac xs f =
    match xs with
    | [] -> 0.0
    | xs ->
        let n = List.length xs in
        List.nth xs (min (n - 1) (int_of_float (f *. float_of_int n)))
  in
  let sum f = Array.fold_left (fun a tr -> a + f tr) 0 tenant_results in
  let rejected_quota = sum (fun (tr : Core.tenant_result) -> tr.rejected_quota)
  and rejected_overload =
    sum (fun (tr : Core.tenant_result) -> tr.rejected_overload)
  and rejected_expired =
    sum (fun (tr : Core.tenant_result) -> tr.rejected_expired)
  and errors = sum (fun (tr : Core.tenant_result) -> tr.errors)
  and completed = sum (fun (tr : Core.tenant_result) -> tr.completed) in
  let busy = Array.map (fun (tr : Core.tenant_result) -> tr.busy_ns) tenant_results in
  {
    policy;
    tenants = params.tenants;
    items = params.tenants * params.items_per_tenant;
    shards;
    completed;
    rejected_quota;
    rejected_overload;
    rejected_expired;
    errors;
    makespan_ms = Time.to_float_ms makespan;
    latency = { p50_us = q aggregate 0.5; p99_us = q aggregate 0.99 };
    tenant_p99_med_us = nth_frac per_p99 0.5;
    tenant_p99_max_us = nth_frac per_p99 1.0;
    jain = Core.jain_index busy;
    events = Array.length merged;
    digest;
  }

let run params = List.map (run_policy params) params.policies

let header =
  Printf.sprintf "%-11s %8s %8s %6s %6s %6s %10s %9s %9s %9s %9s %6s %s"
    "policy" "complete" "rej-load" "rej-q" "rej-ex" "errors" "makespan"
    "p50us" "p99us" "t-p99med" "t-p99max" "jain" "merge-digest"

let row r =
  Printf.sprintf
    "%-11s %8d %8d %6d %6d %6d %8.1fms %9.1f %9.1f %9.1f %9.1f %.4f %016Lx"
    (Cricket.Sched.policy_to_string r.policy)
    r.completed r.rejected_overload r.rejected_quota r.rejected_expired
    r.errors r.makespan_ms r.latency.p50_us r.latency.p99_us
    r.tenant_p99_med_us r.tenant_p99_max_us r.jain r.digest

(* NOTE: the rendered report must stay independent of the domain count —
   CI byte-diffs --domains 1 against --domains 4. Shard count and seed
   belong here (they define the workload); domain count and wall-clock
   throughput do not (benchctl prints those separately). *)
let to_string reports =
  let b = Buffer.create 1024 in
  (match reports with
  | [] -> ()
  | r :: _ ->
      Buffer.add_string b
        (Printf.sprintf "tenants=%d items=%d shards=%d seed-deterministic\n"
           r.tenants r.items r.shards));
  Buffer.add_string b header;
  Buffer.add_char b '\n';
  List.iter
    (fun r ->
      Buffer.add_string b (row r);
      Buffer.add_char b '\n')
    reports;
  Buffer.contents b
