module Time = Simnet.Time

type policy = Fifo | Round_robin | Priority

let policy_to_string = function
  | Fifo -> "fifo"
  | Round_robin -> "round-robin"
  | Priority -> "priority"

type job = {
  client : string;
  arrival : Time.t;
  duration : Time.t;
  priority : int;
}

type placement = { job : job; start : Time.t; finish : Time.t }

(* Pick the next job among [ready] (non-empty) under the policy.
   [last_served] maps client -> index of the round-robin turn in which the
   client was last picked, for least-recently-served selection. *)
let pick policy ~last_served ready =
  let by_arrival a b =
    match Time.compare a.arrival b.arrival with
    | 0 -> compare a.client b.client
    | c -> c
  in
  match policy with
  | Fifo -> List.hd (List.sort by_arrival ready)
  | Priority ->
      List.hd
        (List.sort
           (fun a b ->
             match compare a.priority b.priority with
             | 0 -> by_arrival a b
             | c -> c)
           ready)
  | Round_robin ->
      let last c =
        match Hashtbl.find_opt last_served c with Some i -> i | None -> -1
      in
      List.hd
        (List.sort
           (fun a b ->
             match compare (last a.client) (last b.client) with
             | 0 -> by_arrival a b
             | c -> c)
           ready)

let schedule policy jobs =
  let pending =
    ref
      (List.sort
         (fun a b ->
           match Time.compare a.arrival b.arrival with
           | 0 -> compare a.client b.client
           | c -> c)
         jobs)
  in
  let last_served : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let turn = ref 0 in
  let free_at = ref Time.zero in
  let placements = ref [] in
  while !pending <> [] do
    (* the GPU idles until the first arrival if nothing is ready *)
    let first_arrival = (List.hd !pending).arrival in
    let decision_time =
      if Time.compare !free_at first_arrival > 0 then !free_at
      else first_arrival
    in
    let ready =
      List.filter (fun j -> Time.compare j.arrival decision_time <= 0) !pending
    in
    let chosen = pick policy ~last_served ready in
    pending := List.filter (fun j -> j != chosen) !pending;
    Hashtbl.replace last_served chosen.client !turn;
    incr turn;
    let start = decision_time in
    let finish = Time.add start chosen.duration in
    free_at := finish;
    placements := { job = chosen; start; finish } :: !placements
  done;
  List.rev !placements

type client_stats = {
  jobs : int;
  busy : Time.t;
  waiting : Time.t;
  max_waiting : Time.t;
}

let per_client placements =
  let table : (string, client_stats) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let wait = Time.sub p.start p.job.arrival in
      let prev =
        match Hashtbl.find_opt table p.job.client with
        | Some s -> s
        | None ->
            { jobs = 0; busy = Time.zero; waiting = Time.zero;
              max_waiting = Time.zero }
      in
      Hashtbl.replace table p.job.client
        {
          jobs = prev.jobs + 1;
          busy = Time.add prev.busy p.job.duration;
          waiting = Time.add prev.waiting wait;
          max_waiting =
            (if Time.compare wait prev.max_waiting > 0 then wait
             else prev.max_waiting);
        })
    placements;
  Hashtbl.fold (fun c s acc -> (c, s) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let makespan placements =
  List.fold_left
    (fun acc p -> if Time.compare p.finish acc > 0 then p.finish else acc)
    Time.zero placements

let fairness placements =
  let stats = per_client placements in
  match stats with
  | [] -> 1.0
  | _ ->
      let xs = List.map (fun (_, s) -> Time.to_float_s s.busy) stats in
      let n = Float.of_int (List.length xs) in
      let sum = List.fold_left ( +. ) 0.0 xs in
      let sum_sq = List.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
      if sum_sq = 0.0 then 1.0 else sum *. sum /. (n *. sum_sq)
