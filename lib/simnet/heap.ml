(* Three parallel arrays instead of an array of entry records: priorities
   and sequence numbers sit unboxed in int arrays, values in a third. A
   push or pop allocates nothing (the arrays double when full), and sifting
   moves entries into a hole instead of swapping them, so each level of
   the tree costs one write per array rather than two. *)

type 'a t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable vals : 'a array;  (* slots [0, size) are live *)
  mutable size : int;
  mutable next_seq : int;
}

(* What every slot past [size] holds, so that a popped value is not kept
   reachable by the queue. An immediate: the GC never follows it, and an
   array made with it is never a flat float array. *)
let empty () = Obj.magic 0

let create () = { prio = [||]; seq = [||]; vals = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

let grow t =
  let capacity = max 16 (2 * Array.length t.prio) in
  let prio = Array.make capacity 0 and seq = Array.make capacity 0 in
  let vals = Array.make capacity (empty ()) in
  Array.blit t.prio 0 prio 0 t.size;
  Array.blit t.seq 0 seq 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.prio <- prio;
  t.seq <- seq;
  t.vals <- vals

let push t ~priority value =
  if t.size = Array.length t.prio then grow t;
  let s = t.next_seq in
  t.next_seq <- s + 1;
  (* sift up: the newcomer has the largest sequence number, so it passes
     a parent only on a strictly smaller priority *)
  let i = ref t.size in
  t.size <- t.size + 1;
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    priority < t.prio.(parent)
  do
    let parent = (!i - 1) / 2 in
    t.prio.(!i) <- t.prio.(parent);
    t.seq.(!i) <- t.seq.(parent);
    t.vals.(!i) <- t.vals.(parent);
    i := parent
  done;
  t.prio.(!i) <- priority;
  t.seq.(!i) <- s;
  t.vals.(!i) <- value

let min_priority t =
  if t.size = 0 then invalid_arg "Heap.min_priority: empty";
  t.prio.(0)

(* [before t i p s]: does slot [i] order before key [(p, s)]? *)
let before t i p s = t.prio.(i) < p || (t.prio.(i) = p && t.seq.(i) < s)

let pop_min t =
  if t.size = 0 then invalid_arg "Heap.pop_min: empty";
  let top = t.vals.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    (* sift the last entry down from the root's hole *)
    let p = t.prio.(last) and s = t.seq.(last) and v = t.vals.(last) in
    let i = ref 0 and moving = ref true in
    while !moving do
      let left = (2 * !i) + 1 in
      if left >= last then moving := false
      else begin
        let right = left + 1 in
        let child =
          if right < last && before t right t.prio.(left) t.seq.(left) then
            right
          else left
        in
        if before t child p s then begin
          t.prio.(!i) <- t.prio.(child);
          t.seq.(!i) <- t.seq.(child);
          t.vals.(!i) <- t.vals.(child);
          i := child
        end
        else moving := false
      end
    done;
    t.prio.(!i) <- p;
    t.seq.(!i) <- s;
    t.vals.(!i) <- v
  end;
  t.vals.(last) <- empty ();
  top
