type span = {
  id : int;
  sp_parent : int;
  sp_name : string;
  sp_layer : string;
  sp_start : int64;
  mutable sp_stop : int64;  (* -1 while open *)
}

type span_info = {
  id : int;
  parent : int;
  name : string;
  layer : string;
  start_ns : int64;
  stop_ns : int64;
}

let null_span =
  { id = -1; sp_parent = -1; sp_name = ""; sp_layer = ""; sp_start = 0L;
    sp_stop = 0L }

type t = {
  mutable is_enabled : bool;
  lockable : bool;  (* false only for [null]: set_enabled is a no-op *)
  mutable clock : unit -> int64;
  max_spans : int;
  mutable spans : span array;  (* doubling array of retained spans *)
  mutable n_spans : int;
  mutable next_id : int;
  mutable dropped : int;
  mutable stack : span list;  (* open spans, innermost first *)
  counters : (string, int Atomic.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  tables_lock : Mutex.t;
      (* guards the [counters]/[histograms] Hashtbl structure (find-or-
         create, iteration, reset). Counter bumps themselves are atomic
         fetch-and-adds outside the lock, so concurrent [incr] from many
         domains is safe and sums exactly. Spans and histogram *contents*
         remain owner-domain: only the domain that created a recorder may
         open spans or record observations into a given histogram. *)
}

let make ~lockable ?(clock = fun () -> 0L) ?(max_spans = 1_000_000) () =
  {
    is_enabled = false;
    lockable;
    clock;
    max_spans;
    spans = Array.make 64 null_span;
    n_spans = 0;
    next_id = 0;
    dropped = 0;
    stack = [];
    counters = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
    tables_lock = Mutex.create ();
  }

let create ?clock ?max_spans () = make ~lockable:true ?clock ?max_spans ()
let null = make ~lockable:false ()

let set_clock t clock = t.clock <- clock
let enabled t = t.is_enabled
let set_enabled t v = if t.lockable then t.is_enabled <- v

let hist t name =
  Mutex.lock t.tables_lock;
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
        let h = Histogram.create () in
        Hashtbl.add t.histograms name h;
        h
  in
  Mutex.unlock t.tables_lock;
  h

let retain t sp =
  if t.n_spans >= t.max_spans then t.dropped <- t.dropped + 1
  else begin
    if t.n_spans = Array.length t.spans then begin
      let bigger = Array.make (2 * Array.length t.spans) null_span in
      Array.blit t.spans 0 bigger 0 t.n_spans;
      t.spans <- bigger
    end;
    t.spans.(t.n_spans) <- sp;
    t.n_spans <- t.n_spans + 1
  end

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let span_begin t ?(layer = "misc") name =
  if not t.is_enabled then null_span
  else begin
    let parent = match t.stack with [] -> -1 | p :: _ -> p.id in
    let sp =
      { id = fresh_id t; sp_parent = parent; sp_name = name;
        sp_layer = layer; sp_start = t.clock (); sp_stop = -1L }
    in
    t.stack <- sp :: t.stack;
    retain t sp;
    sp
  end

let observe_layer t (sp : span) =
  Histogram.record (hist t ("span/" ^ sp.sp_layer))
    (Int64.sub sp.sp_stop sp.sp_start)

let span_end t (sp : span) =
  if sp.id >= 0 && Int64.equal sp.sp_stop (-1L) then begin
    sp.sp_stop <- t.clock ();
    t.stack <- List.filter (fun s -> s != sp) t.stack;
    observe_layer t sp
  end

let with_span t ?layer name f =
  let sp = span_begin t ?layer name in
  match f () with
  | r ->
      span_end t sp;
      r
  | exception e ->
      span_end t sp;
      raise e

let span_event ?(layer = "misc") ?(parent = null_span) t ~name ~start_ns
    ~stop_ns =
  if t.is_enabled then begin
    let sp =
      { id = fresh_id t; sp_parent = parent.id; sp_name = name;
        sp_layer = layer; sp_start = start_ns; sp_stop = stop_ns }
    in
    retain t sp;
    observe_layer t sp
  end

let counter_cell t name =
  Mutex.lock t.tables_lock;
  let cell =
    match Hashtbl.find_opt t.counters name with
    | Some c -> c
    | None ->
        let c = Atomic.make 0 in
        Hashtbl.add t.counters name c;
        c
  in
  Mutex.unlock t.tables_lock;
  cell

let incr t ?(by = 1) name =
  if t.is_enabled then
    ignore (Atomic.fetch_and_add (counter_cell t name) by)

let counter t name =
  Mutex.lock t.tables_lock;
  let cell = Hashtbl.find_opt t.counters name in
  Mutex.unlock t.tables_lock;
  match cell with Some c -> Atomic.get c | None -> 0

let counters t =
  Mutex.lock t.tables_lock;
  let snapshot =
    Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) t.counters []
  in
  Mutex.unlock t.tables_lock;
  List.sort (fun (a, _) (b, _) -> compare a b) snapshot

(* Per-tenant counter labels: one canonical rendering so producers
   (serving core, server) and consumers (reports, tests) agree on the
   key. The label char set is unrestricted — "}" simply ends the value at
   the last brace, and names never contain "{". *)
let tenant_label name ~tenant = name ^ "{tenant=" ^ tenant ^ "}"

let tenant_of_label label =
  match String.index_opt label '{' with
  | Some i
    when String.length label > i + 8
         && String.sub label i 8 = "{tenant="
         && label.[String.length label - 1] = '}' ->
      let start = i + 8 in
      Some
        ( String.sub label 0 i,
          String.sub label start (String.length label - start - 1) )
  | _ -> None

let counters_prefixed t ~prefix =
  let plen = String.length prefix in
  counters t
  |> List.filter (fun (name, _) ->
         String.length name >= plen && String.sub name 0 plen = prefix)

let observe t name v = if t.is_enabled then Histogram.record (hist t name) v

let histogram t name =
  Mutex.lock t.tables_lock;
  let h = Hashtbl.find_opt t.histograms name in
  Mutex.unlock t.tables_lock;
  h


let info (sp : span) : span_info =
  { id = sp.id; parent = sp.sp_parent; name = sp.sp_name;
    layer = sp.sp_layer; start_ns = sp.sp_start; stop_ns = sp.sp_stop }

let spans t =
  let rec closed i acc =
    if i < 0 then acc
    else
      let sp = t.spans.(i) in
      closed (i - 1) (if Int64.equal sp.sp_stop (-1L) then acc else info sp :: acc)
  in
  closed (t.n_spans - 1) []

let span_count t =
  let n = ref 0 in
  for i = 0 to t.n_spans - 1 do
    if not (Int64.equal t.spans.(i).sp_stop (-1L)) then n := !n + 1
  done;
  !n

let dropped_spans t = t.dropped

let layer_total_ns t layer =
  let total = ref 0L in
  for i = 0 to t.n_spans - 1 do
    let sp = t.spans.(i) in
    if String.equal sp.sp_layer layer && not (Int64.equal sp.sp_stop (-1L))
    then total := Int64.add !total (Int64.sub sp.sp_stop sp.sp_start)
  done;
  !total

let reset t =
  t.spans <- Array.make 64 null_span;
  t.n_spans <- 0;
  t.next_id <- 0;
  t.dropped <- 0;
  t.stack <- [];
  Mutex.lock t.tables_lock;
  Hashtbl.reset t.counters;
  Hashtbl.reset t.histograms;
  Mutex.unlock t.tables_lock
