module Time = Simnet.Time

type policy = Round_robin | Cost_aware

let policy_name = function Round_robin -> "rr" | Cost_aware -> "cost"

type error =
  | No_compatible_image
  | Bad_module of string
  | Unknown_kernel of string

let error_message = function
  | No_compatible_image -> "no device has a compatible SASS image"
  | Bad_module e -> Printf.sprintf "bad module: %s" e
  | Unknown_kernel n -> Printf.sprintf "unknown kernel %s" n

type dev = {
  id : int;
  device : Gpusim.Device.t;
  gpu : Gpusim.Gpu.t;
  mutable busy_until : Time.t;
  mutable launches : int;
  mutable busy : Time.t;
  mutable seq : int;
  mutable events : unit Par.Merge.event list;  (* newest first *)
}

type t = {
  devs : dev array;
  policy : policy;
  mutable now : Time.t;
  mutable rr : int;
  mutable incompatible : int;
}

let create ?(policy = Cost_aware) devices =
  if devices = [] then invalid_arg "Fleet.Cluster.create: no devices";
  let devs =
    Array.of_list
      (List.mapi
         (fun id device ->
           {
             id;
             device;
             (* Uncapped clamp: OOM behaviour must track the catalog's
                total_global_mem per device, and the lazily-grown backing
                store makes the large capacity free until touched. *)
             gpu = Gpusim.Gpu.create ~capacity_clamp:max_int device;
             busy_until = Time.zero;
             launches = 0;
             busy = Time.zero;
             seq = 0;
             events = [];
           })
         devices)
  in
  {
    devs;
    policy;
    now = Time.zero;
    rr = 0;
    incompatible = 0;
  }

let policy t = t.policy
let device_count t = Array.length t.devs
let now t = t.now
let device t i = t.devs.(i).device
let gpu t i = t.devs.(i).gpu

(* --- modules --- *)

type placement = { p_dev : int; p_arch : int * int; p_image : Cubin.Image.t }
type modul = { placements : placement list (* ascending device id *) }

type func = {
  f_kernel : Gpusim.Kernels.t;
  f_places : placement list;  (* devices where the kernel exists *)
}

let cc (d : Gpusim.Device.t) = (d.compute_major, d.compute_minor)

let load_module t data =
  let image_for =
    if Cubin.Fatbin.is_fatbin data then begin
      match Cubin.Fatbin.parse data with
      | Error e -> Error (Bad_module e)
      | Ok fatbin -> Ok (fun d -> Cubin.Fatbin.best_image fatbin ~cc:(cc d))
    end
    else
      (* standalone cubin: its own arch decides eligibility *)
      match Cubin.Image.parse data with
      | Error e -> Error (Bad_module e)
      | Ok image ->
          Ok
            (fun d ->
              if Cubin.Fatbin.image_compatible ~cc:(cc d) image.Cubin.Image.arch
              then Some data
              else None)
  in
  match image_for with
  | Error _ as e -> e
  | Ok image_for -> (
      let bad = ref None in
      let placements =
        Array.to_list t.devs
        |> List.filter_map (fun d ->
               match image_for d.device with
               | None -> None
               | Some raw -> (
                   match Cubin.Image.parse raw with
                   | Ok image ->
                       Some
                         {
                           p_dev = d.id;
                           p_arch = image.Cubin.Image.arch;
                           p_image = image;
                         }
                   | Error e ->
                       if !bad = None then bad := Some e;
                       None))
      in
      match (!bad, placements) with
      | Some e, _ -> Error (Bad_module e)
      | None, [] -> Error No_compatible_image
      | None, placements -> Ok { placements })

let eligible m = List.map (fun p -> p.p_dev) m.placements

let get_function t m name =
  match Gpusim.Kernels.find name with
  | None -> Error (Unknown_kernel name)
  | Some kernel -> (
      ignore t;
      let places =
        List.filter
          (fun p -> Cubin.Image.find_kernel p.p_image name <> None)
          m.placements
      in
      match places with
      | [] -> Error (Unknown_kernel name)
      | places -> Ok { f_kernel = kernel; f_places = places })

(* --- launch routing --- *)

let tmax a b = if Time.compare a b > 0 then a else b

(* Estimated completion if the launch were placed on [d] now: the device's
   queue tail (or the host clock, whichever is later) plus the kernel's
   analytic cost on that device plus its per-grid launch overhead. *)
let estimate t d kernel lp =
  let start = tmax d.busy_until t.now in
  let cost = Time.of_float_ns (kernel.Gpusim.Kernels.cost d.device lp) in
  Time.add start (Time.add (Time.ns d.device.Gpusim.Device.launch_overhead_ns) cost)

let record_event d finish =
  let seq = d.seq in
  d.seq <- seq + 1;
  d.events <-
    { Par.Merge.vtime = finish; shard = d.id; seq; payload = () } :: d.events

let launch t f mk =
  (* Belt and suspenders on the compatibility rule: even if routing code
     regresses, a device never executes an image of another major arch. *)
  let compatible p =
    let d = t.devs.(p.p_dev) in
    if Cubin.Fatbin.image_compatible ~cc:(cc d.device) p.p_arch then true
    else begin
      t.incompatible <- t.incompatible + 1;
      false
    end
  in
  match List.filter compatible f.f_places with
  | [] -> Error No_compatible_image
  | places -> (
      let chosen =
        match t.policy with
        | Round_robin ->
            let n = List.length places in
            let i = t.rr mod n in
            t.rr <- t.rr + 1;
            List.nth places i
        | Cost_aware ->
            (* earliest estimated finish, lowest device id on ties *)
            List.fold_left
              (fun best p ->
                match best with
                | None -> Some p
                | Some b ->
                    let db = t.devs.(b.p_dev) and dp = t.devs.(p.p_dev) in
                    let eb = estimate t db f.f_kernel (mk b.p_dev)
                    and ep = estimate t dp f.f_kernel (mk p.p_dev) in
                    if Time.compare ep eb < 0 then Some p else Some b)
              None places
            |> Option.get
      in
      let d = t.devs.(chosen.p_dev) in
      let lp = mk d.id in
      match Gpusim.Gpu.launch d.gpu ~now:t.now f.f_kernel lp with
      | exception Gpusim.Kernels.Bad_args e -> Error (Bad_module e)
      | finish ->
          let start = tmax d.busy_until t.now in
          d.busy <- Time.add d.busy (Time.sub finish start);
          d.busy_until <- finish;
          d.launches <- d.launches + 1;
          record_event d finish;
          Ok (d.id, finish))

let barrier t =
  let now =
    Array.fold_left
      (fun acc d -> tmax acc (Gpusim.Gpu.synchronize d.gpu ~now:t.now))
      t.now t.devs
  in
  t.now <- now;
  now

(* --- accounting --- *)

type device_stats = {
  ds_id : int;
  ds_name : string;
  ds_launches : int;
  ds_busy : Time.t;
  ds_utilization : float;
}

let makespan t =
  Array.fold_left (fun acc d -> tmax acc d.busy_until) Time.zero t.devs

let stats t =
  let span = makespan t in
  Array.to_list t.devs
  |> List.map (fun d ->
         {
           ds_id = d.id;
           ds_name = d.device.Gpusim.Device.name;
           ds_launches = d.launches;
           ds_busy = d.busy;
           ds_utilization =
             (if Time.compare span Time.zero = 0 then 0.0
              else Int64.to_float d.busy /. Int64.to_float span);
         })

let total_launches t =
  Array.fold_left (fun acc d -> acc + d.launches) 0 t.devs

let incompatible_launches t = t.incompatible

let digest t =
  let streams =
    Array.map (fun d -> Array.of_list (List.rev d.events)) t.devs
  in
  Par.Merge.digest (Par.Merge.merge streams)
