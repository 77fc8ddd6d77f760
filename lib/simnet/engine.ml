(* The queue's priorities are plain [int] nanoseconds, so scheduling and
   popping an event allocate nothing; [Time.t] values coming in are
   checked to fit. The clock stays a boxed [Time.t], so that reading it
   ({!now}) is free: it is boxed once each time a step moves it. *)
type t = { mutable clock : Time.t; queue : (unit -> unit) Heap.t }

let create () = { clock = Time.zero; queue = Heap.create () }
let now t = t.clock
let now_ns t = Int64.to_int t.clock

let[@inline] fits (time : Time.t) = Int64.of_int (Int64.to_int time) = time
let out_of_range name = invalid_arg (name ^ ": time outside the int range")

let[@inline] to_ns name time =
  if not (fits time) then out_of_range name;
  Int64.to_int time

let advance t d =
  if Time.compare d Time.zero < 0 then invalid_arg "Engine.advance: negative";
  let clock = Int64.add t.clock d in
  if not (fits clock) then out_of_range "Engine.advance";
  t.clock <- clock

let advance_ns t d =
  if d < 0 then invalid_arg "Engine.advance_ns: negative";
  let clock = now_ns t + d in
  if clock < d then out_of_range "Engine.advance_ns";
  t.clock <- Int64.of_int clock

let advance_to t instant =
  if Time.compare instant t.clock > 0 then begin
    if not (fits instant) then out_of_range "Engine.advance_to";
    t.clock <- instant
  end

let schedule_at_ns t due fn = Heap.push t.queue ~priority:due fn
let schedule_at t due fn = schedule_at_ns t (to_ns "Engine.schedule_at" due) fn

let schedule_after t delay fn =
  schedule_at_ns t
    (to_ns "Engine.schedule_after" (Int64.add t.clock delay))
    fn

let pending t = Heap.length t.queue

let step t =
  if Heap.is_empty t.queue then false
  else begin
    let due = Heap.min_priority t.queue in
    if due > now_ns t then t.clock <- Int64.of_int due;
    (Heap.pop_min t.queue) ();
    true
  end

let run t = while step t do () done

let run_until t deadline =
  let last = to_ns "Engine.run_until" deadline in
  while (not (Heap.is_empty t.queue)) && Heap.min_priority t.queue <= last do
    ignore (step t)
  done;
  advance_to t deadline
