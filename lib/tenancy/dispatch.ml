type policy = Cricket.Sched.policy

let default_quantum_ns = 5_000_000

(* One DRR ring: the active tenants of one priority class, served in
   activation order, each holding a deficit of virtual ns. *)
type ring = { order : int Queue.t }

type 'a t = {
  policy : policy;
  quantum : int;
  tenants : string array;
  class_of : int array;  (* tenant id -> index into rings *)
  queues : 'a Queue.t array;  (* per-tenant FIFO *)
  active : bool array;  (* tenant currently in its ring *)
  deficit : int array;
  rings : ring array;  (* one per priority class, most urgent first *)
  fifo : (int * 'a) Queue.t;  (* Fifo policy only *)
  mutable in_service : int;  (* tenant handed out by [next], -1 if none *)
  mutable rotations : int;
}

let create ~policy ?(quantum_ns = default_quantum_ns) ~tenants ~priorities ()
    =
  let n = Array.length tenants in
  if Array.length priorities <> n then
    invalid_arg "Dispatch.create: tenants/priorities length mismatch";
  if quantum_ns < 1 then invalid_arg "Dispatch.create: quantum_ns";
  (* Distinct priority values, ascending: smaller value = more urgent.
     Round_robin and Fifo collapse to a single class. *)
  let classes =
    match policy with
    | Cricket.Sched.Priority ->
        Array.to_list priorities |> List.sort_uniq compare |> Array.of_list
    | Cricket.Sched.Fifo | Cricket.Sched.Round_robin -> [| 0 |]
  in
  let class_of =
    Array.map
      (fun p ->
        match policy with
        | Cricket.Sched.Priority ->
            let rec idx i = if classes.(i) = p then i else idx (i + 1) in
            idx 0
        | _ -> 0)
      priorities
  in
  {
    policy;
    quantum = quantum_ns;
    tenants;
    class_of;
    queues = Array.init n (fun _ -> Queue.create ());
    active = Array.make n false;
    deficit = Array.make n 0;
    rings = Array.map (fun _ -> { order = Queue.create () }) classes;
    fifo = Queue.create ();
    in_service = -1;
    rotations = 0;
  }

let enqueue t ~tenant item =
  match t.policy with
  | Cricket.Sched.Fifo -> Queue.add (tenant, item) t.fifo
  | Cricket.Sched.Round_robin | Cricket.Sched.Priority ->
      Queue.add item t.queues.(tenant);
      if not t.active.(tenant) then begin
        t.active.(tenant) <- true;
        t.deficit.(tenant) <- t.quantum;
        Queue.add tenant t.rings.(t.class_of.(tenant)).order
      end

let next t =
  if t.in_service >= 0 then
    invalid_arg "Dispatch.next: previous item not yet charged";
  match t.policy with
  | Cricket.Sched.Fifo -> (
      match Queue.take_opt t.fifo with
      | None -> None
      | Some (tenant, item) ->
          t.in_service <- tenant;
          Some (tenant, item))
  | Cricket.Sched.Round_robin | Cricket.Sched.Priority ->
      let rec first_ring i =
        if i >= Array.length t.rings then None
        else if Queue.is_empty t.rings.(i).order then first_ring (i + 1)
        else Some t.rings.(i)
      in
      (match first_ring 0 with
      | None -> None
      | Some ring ->
          let tenant = Queue.peek ring.order in
          let item = Queue.take t.queues.(tenant) in
          t.in_service <- tenant;
          Some (tenant, item))

let charge t ~tenant ~cost_ns =
  if t.in_service <> tenant then
    invalid_arg "Dispatch.charge: tenant is not in service";
  t.in_service <- -1;
  match t.policy with
  | Cricket.Sched.Fifo -> ()
  | Cricket.Sched.Round_robin | Cricket.Sched.Priority ->
      let ring = t.rings.(t.class_of.(tenant)) in
      t.deficit.(tenant) <- t.deficit.(tenant) - cost_ns;
      if Queue.is_empty t.queues.(tenant) then begin
        (* Drained: leave the ring; deficits do not carry across idle
           periods (standard DRR — prevents banking service credit). *)
        ignore (Queue.take ring.order);
        t.active.(tenant) <- false;
        t.deficit.(tenant) <- 0
      end
      else if t.deficit.(tenant) <= 0 then begin
        ignore (Queue.take ring.order);
        Queue.add tenant ring.order;
        t.deficit.(tenant) <- t.deficit.(tenant) + t.quantum;
        t.rotations <- t.rotations + 1
      end

let rotations t = t.rotations
