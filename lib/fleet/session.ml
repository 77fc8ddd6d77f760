type dev = {
  sd_cc : int * int;
  sd_weight : float;  (* SM count × clock rate: client-visible speed proxy *)
  mutable sd_assigned : float;  (* estimated work units steered here *)
  mutable sd_launches : int;
}

type t = {
  client : Cricket.Client.t;
  devs : dev array;
  policy : Cluster.policy;
  mutable rr : int;
}

let connect ?(policy = Cluster.Cost_aware) client =
  let n = Cricket.Client.get_device_count client in
  let devs =
    Array.init n (fun i ->
        let p = Cricket.Client.get_device_properties client i in
        {
          sd_cc = (p.Cricket.Client.compute_major, p.Cricket.Client.compute_minor);
          sd_weight =
            float_of_int p.Cricket.Client.multi_processor_count
            *. float_of_int p.Cricket.Client.clock_rate_khz;
          sd_assigned = 0.0;
          sd_launches = 0;
        })
  in
  { client; devs; policy; rr = 0 }

let device_count t = Array.length t.devs

type modul = { sm_handles : (int * int64) list (* device, module handle *) }
type func = { sf_places : (int * Cricket.Client.func) list }

(* Client-side eligibility: which devices have a compatible image. The
   server re-applies the same best_image rule on load, so a disagreement
   would surface as a CUDA error rather than a wrong-arch execution. *)
let eligible_devices t data =
  if Cubin.Fatbin.is_fatbin data then
    match Cubin.Fatbin.parse data with
    | Error e -> Error (Cluster.Bad_module e)
    | Ok fatbin ->
        Ok
          (List.filter
             (fun i ->
               Cubin.Fatbin.best_image fatbin ~cc:t.devs.(i).sd_cc <> None)
             (List.init (Array.length t.devs) Fun.id))
  else
    match Cubin.Image.parse data with
    | Error e -> Error (Cluster.Bad_module e)
    | Ok image ->
        Ok
          (List.filter
             (fun i ->
               Cubin.Fatbin.image_compatible ~cc:t.devs.(i).sd_cc
                 image.Cubin.Image.arch)
             (List.init (Array.length t.devs) Fun.id))

let load_module t data =
  match eligible_devices t data with
  | Error _ as e -> e
  | Ok [] -> Error Cluster.No_compatible_image
  | Ok devices ->
      let handles =
        List.map
          (fun i ->
            Cricket.Client.set_device t.client i;
            (i, Cricket.Client.module_load t.client data))
          devices
      in
      Ok { sm_handles = handles }

let eligible m = List.map fst m.sm_handles

let get_function t m name =
  match m.sm_handles with
  | [] -> Error Cluster.No_compatible_image
  | handles ->
      Ok
        {
          sf_places =
            List.map
              (fun (i, h) ->
                Cricket.Client.set_device t.client i;
                (i, Cricket.Client.get_function t.client ~modul:h ~name))
              handles;
        }

let grid_work ~grid ~block =
  let open Gpusim.Kernels in
  float_of_int (grid.x * grid.y * grid.z)
  *. float_of_int (block.x * block.y * block.z)

let launch t f ~grid ~block ?shared_mem mk_args =
  match f.sf_places with
  | [] -> Error Cluster.No_compatible_image
  | places ->
      let chosen, cfunc =
        match t.policy with
        | Cluster.Round_robin ->
            let n = List.length places in
            let p = List.nth places (t.rr mod n) in
            t.rr <- t.rr + 1;
            p
        | Cluster.Cost_aware ->
            let work = grid_work ~grid ~block in
            (* least (assigned + this) / weight: balance estimated work by
               relative speed; lowest index on ties *)
            List.fold_left
              (fun best (i, fn) ->
                match best with
                | None -> Some (i, fn)
                | Some (bi, _) ->
                    let cost j =
                      (t.devs.(j).sd_assigned +. work) /. t.devs.(j).sd_weight
                    in
                    if cost i < cost bi then Some (i, fn) else best)
              None places
            |> Option.get
      in
      let d = t.devs.(chosen) in
      d.sd_assigned <- d.sd_assigned +. grid_work ~grid ~block;
      d.sd_launches <- d.sd_launches + 1;
      Cricket.Client.set_device t.client chosen;
      Cricket.Client.launch t.client cfunc ~grid ~block ?shared_mem
        (mk_args chosen);
      Ok chosen

let synchronize t =
  Array.iteri
    (fun i d ->
      if d.sd_launches > 0 then begin
        Cricket.Client.set_device t.client i;
        Cricket.Client.device_synchronize t.client
      end)
    t.devs

let launches t =
  Array.to_list (Array.mapi (fun i d -> (i, d.sd_launches)) t.devs)
