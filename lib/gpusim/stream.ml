module Time = Simnet.Time

type op =
  | Kernel_launch of string
  | Memcpy_h2d of int
  | Memcpy_d2h of int
  | Memset of int
  | Wait_event of int

type command = { seq : int; op : op; start : Time.t; finish : Time.t }

type t = {
  id : int;
  queue : command Queue.t;  (* oldest first; retired at sync points *)
  mutable completion : Time.t;
}

let create ~id = { id; queue = Queue.create (); completion = Time.zero }
let id t = t.id
let completion t = t.completion
let pending t = Queue.length t.queue
let pending_commands t = List.of_seq (Queue.to_seq t.queue)
let max_t a b = if Time.compare a b > 0 then a else b

let rec retire t ~now =
  if
    (not (Queue.is_empty t.queue))
    && Time.compare (Queue.peek t.queue).finish now <= 0
  then begin
    ignore (Queue.take t.queue);
    retire t ~now
  end

(* Commands that have finished by [now] leave the queue as new ones join
   it, so a stream that is never synchronised stays as deep as the work
   still in flight. *)
let enqueue t ~now ~seq ~op ~cost =
  retire t ~now;
  let start = max_t t.completion now in
  let finish = Time.add start cost in
  Queue.add { seq; op; start; finish } t.queue;
  t.completion <- finish;
  finish

let wait_event t ~seq ~event ~time =
  (* An unrecorded event is a no-op, as in CUDA: the wait captures nothing.
     A recorded one becomes a zero-duration command that floors the
     stream's completion time, so every later command starts after it. *)
  match time with
  | None -> ()
  | Some time ->
      let start = max_t t.completion time in
      Queue.add { seq; op = Wait_event event; start; finish = start } t.queue;
      t.completion <- start

