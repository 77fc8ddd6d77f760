(* Order statistics and the regression rules [perf compare] applies. *)

(* Nearest-rank percentile of an ascending array: the smallest sample with
   at least [p] percent of the samples at or below it. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.nearest_rank: no samples";
  if p <= 0. || p > 100. then invalid_arg "Stats.nearest_rank: p";
  (* the epsilon absorbs float error in p·n/100 (e.g. 99.9 · 1000) *)
  let rank = int_of_float (Float.ceil ((p *. float_of_int n /. 100.) -. 1e-9)) in
  sorted.(max 1 (min n rank) - 1)

(* The highest percentile whose nearest-rank value still has [beyond]
   samples above its rank, so a tail figure never rests on fewer than
   [beyond] observations. [None] below [beyond + 1] samples. *)
let tail_percentile ?(beyond = 10) n =
  if n <= beyond then None
  else Some (100. *. float_of_int (n - beyond) /. float_of_int n)

let sorted_copy xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted_copy xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no values"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of an unsorted list of per-trial values. *)
let percentile xs p = nearest_rank (sorted_copy xs) p

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so the spread printed here is the
   spread any external check of the same values sees. *)
let quartiles xs =
  let a = sorted_copy xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* Inter-quartile distance as a share of the median; 0 for fewer than two
   values (nothing to spread) and for a zero median with no spread. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
      let q1, _, q3 = quartiles xs in
      let med = median xs in
      if q3 = q1 then 0.
      else if med = 0. then infinity
      else (q3 -. q1) /. Float.abs med

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg ("better: " ^ s)

(* Share by which [b] is worse than [a] in the metric's direction
   (negative when [b] is better). *)
let worse_share better ~a ~b =
  let d = match better with Lower -> b -. a | Higher -> a -. b in
  if d = 0. then 0.
  else if a = 0. then if d > 0. then infinity else neg_infinity
  else d /. Float.abs a

type verdict = Better | Same | Worse | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Parent runs [a], change runs [b]. A median moved by more than the bound
   is worse (or better); when either side's own spread exceeds the bound
   the comparison cannot tell, unless every run of [b] beats every run of
   [a]. *)
let verdict better ~bound ~a ~b =
  let ma = median a and mb = median b in
  let all_b_better =
    match better with
    | Lower -> List.fold_left Float.max neg_infinity b < List.fold_left Float.min infinity a
    | Higher -> List.fold_left Float.min infinity b > List.fold_left Float.max neg_infinity a
  in
  if spread a > bound || spread b > bound then
    if all_b_better then Better else Unresolved
  else
    let w = worse_share better ~a:ma ~b:mb in
    if w > bound then Worse else if -.w > bound then Better else Same

(* One metric as BENCHMARK.json declares it. *)
type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

type spec = {
  workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

let load_spec path =
  let j = Json.of_string (Json.read_file path) in
  let metrics key =
    Json.field key j |> Json.to_list
    |> List.map (fun m ->
           {
             name = Json.to_str (Json.field "name" m);
             unit_ = Json.to_str (Json.field "unit" m);
             better = better_of_string (Json.to_str (Json.field "better" m));
             bound = Option.map Json.to_num (Json.member "bound" m);
           })
  in
  {
    workloads =
      Json.field "workloads" j |> Json.to_list
      |> List.map (fun w ->
             (Json.to_str (Json.field "name" w), Json.to_str (Json.field "why" w)));
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }
