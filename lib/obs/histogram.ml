type t = {
  mutable count : int;
  mutable sum : int64;
  mutable max : int64;
  mutable min : int64;
  buckets : int array;  (* index = bit length of the recorded value *)
}

let n_buckets = 64

let create () =
  { count = 0; sum = 0L; max = 0L; min = Int64.max_int;
    buckets = Array.make n_buckets 0 }

let bucket_of v =
  let rec bits acc v =
    if Int64.equal v 0L then acc
    else bits (acc + 1) (Int64.shift_right_logical v 1)
  in
  bits 0 v

let record t v =
  let v = if Int64.compare v 0L < 0 then 0L else v in
  t.count <- t.count + 1;
  t.sum <- Int64.add t.sum v;
  if Int64.compare v t.max > 0 then t.max <- v;
  if Int64.compare v t.min < 0 then t.min <- v;
  let i = bucket_of v in
  t.buckets.(i) <- t.buckets.(i) + 1

let count t = t.count
let sum_ns t = t.sum
let max_ns t = t.max
let min_ns t = if t.count = 0 then 0L else t.min

(* Upper bound of bucket [i]: 0 for bucket 0, else 2^i - 1. *)
let bucket_upper i =
  if i = 0 then 0L
  else if i >= 63 then Int64.max_int
  else Int64.sub (Int64.shift_left 1L i) 1L

let quantile t q =
  if t.count = 0 then 0L
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
    let rec walk i cum =
      if i >= n_buckets then t.max
      else
        let cum = cum + t.buckets.(i) in
        if cum >= rank then bucket_upper i else walk (i + 1) cum
    in
    let v = walk 0 0 in
    let v = if Int64.compare v t.max > 0 then t.max else v in
    if Int64.compare v t.min < 0 then t.min else v
  end

let buckets t = Array.copy t.buckets

let pp_us ppf v = Format.fprintf ppf "%.1fus" (Int64.to_float v /. 1e3)

let pp ppf t =
  Format.fprintf ppf "p50=%a p95=%a p99=%a max=%a (n=%d)" pp_us
    (quantile t 0.5) pp_us (quantile t 0.95) pp_us (quantile t 0.99) pp_us
    t.max t.count
