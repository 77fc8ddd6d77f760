(* A FIFO ring of [capacity] slots over flat arrays, indexed by a chained
   hash whose links are slot numbers in an int array. A slot holds one key
   (ident, xid, prog, vers, proc) and its reply. The ring's slots are the
   [size] slots just behind the write position [oldest], so a store into a
   full ring evicts in insertion order, from the back. The byte bound
   counts large replies only and drops them, oldest first, from anywhere
   but the newest slot: such a slot is unlinked and emptied but keeps its
   place in the ring (its [bucket] is -1) until the back reaches it, so
   every small entry lives for [capacity] stores. Nothing here allocates after [create]:
   keys are compared field by field, never boxed into a tuple, and the
   only heap values the arrays point at are the ident and reply strings
   the caller already owns. *)

type t = {
  capacity : int;
  max_bytes : int;
  mask : int;  (* bucket count - 1; a power of two >= capacity *)
  heads : int array;  (* bucket -> newest slot of its chain, or -1 *)
  next : int array;  (* slot -> next (older) slot of its chain, or -1 *)
  bucket : int array;
      (* slot -> its bucket, for unlinking on eviction; -1 once dropped *)
  idents : string array;
  xids : int array;
  progs : int array;
  verss : int array;
  procs : int array;
  replies : string array;  (* "" for a one-way call: no reply *)
  mutable oldest : int;  (* next slot to fill; the oldest once full *)
  mutable size : int;
  mutable bytes : int;  (* reply bytes of the live large slots *)
  mutable hits : int;
  lock : Mutex.t;
      (* guards everything above — servers are shared across domains by
         the sharded harnesses *)
}

let default_max_bytes = 128 lsl 20
let large_reply = Xdr.Encode.zero_copy_threshold
let is_large reply = String.length reply >= large_reply
let large_bytes reply = if is_large reply then String.length reply else 0

let create ~capacity ~max_bytes =
  if capacity < 1 || max_bytes < 0 then invalid_arg "Dup_cache.create";
  let buckets = ref 1 in
  while !buckets < capacity do
    buckets := 2 * !buckets
  done;
  {
    capacity;
    max_bytes;
    mask = !buckets - 1;
    heads = Array.make !buckets (-1);
    next = Array.make capacity (-1);
    bucket = Array.make capacity 0;
    idents = Array.make capacity "";
    xids = Array.make capacity 0;
    progs = Array.make capacity 0;
    verss = Array.make capacity 0;
    procs = Array.make capacity 0;
    replies = Array.make capacity "";
    oldest = 0;
    size = 0;
    bytes = 0;
    hits = 0;
    lock = Mutex.create ();
  }

(* xids arrive in sequence, so the mix must spread neighbouring values
   over the buckets; the ident hash is the string's own. *)
let bucket_of c ident ~xid ~prog ~vers ~proc =
  let h = Hashtbl.hash ident in
  let h = (h * 0x9e3779b1) + xid in
  let h = (h * 31) + prog in
  let h = (h * 31) + vers in
  let h = (h * 31) + proc in
  (h lxor (h lsr 16)) land c.mask

let rec find c s ident ~xid ~prog ~vers ~proc =
  if s < 0 then -1
  else if
    c.xids.(s) = xid
    && c.procs.(s) = proc
    && c.progs.(s) = prog
    && c.verss.(s) = vers
    && String.equal c.idents.(s) ident
  then s
  else find c c.next.(s) ident ~xid ~prog ~vers ~proc

let lookup c ~ident ~xid ~prog ~vers ~proc =
  Mutex.lock c.lock;
  let b = bucket_of c ident ~xid ~prog ~vers ~proc in
  let s = find c c.heads.(b) ident ~xid ~prog ~vers ~proc in
  let hit =
    if s < 0 then None
    else begin
      c.hits <- c.hits + 1;
      Some c.replies.(s)
    end
  in
  Mutex.unlock c.lock;
  hit

(* The oldest slot of the ring. *)
let back c =
  let s = c.oldest - c.size in
  if s < 0 then s + c.capacity else s

let succ c s = if s + 1 = c.capacity then 0 else s + 1

(* Take live slot [s] out of its chain and out of the byte count. Every
   live slot is linked, so the walk always finds it. *)
let unlink c s =
  let b = c.bucket.(s) in
  let cur = c.heads.(b) in
  if cur = s then c.heads.(b) <- c.next.(s)
  else begin
    let prev = ref cur in
    while c.next.(!prev) <> s do
      prev := c.next.(!prev)
    done;
    c.next.(!prev) <- c.next.(s)
  end;
  c.bucket.(s) <- -1;
  c.bytes <- c.bytes - large_bytes c.replies.(s)

let clear c s =
  c.idents.(s) <- "";
  c.replies.(s) <- ""

(* Retire the oldest slot, unlinking it unless it was dropped already. *)
let evict c =
  let s = back c in
  if c.bucket.(s) >= 0 then unlink c s;
  c.size <- c.size - 1;
  s

(* Drop large replies, oldest first, from slot [s] on while they hold
   more than the bound. While they hold more than the newest's [keep]
   bytes, an older one is live, so the walk meets it before the newest.
   Only a large store takes the bytes over the bound, so a walk (at most
   the ring's length) runs after a large store, or after the next store
   when the large reply alone was over the bound. *)
let rec shed c s ~keep =
  if c.bytes > c.max_bytes && c.bytes > keep then begin
    if is_large c.replies.(s) then begin
      unlink c s;
      clear c s
    end;
    shed c (succ c s) ~keep
  end

let store c ~ident ~xid ~prog ~vers ~proc reply =
  Mutex.lock c.lock;
  (* a full ring's oldest slot is the one about to be filled *)
  if c.size = c.capacity then ignore (evict c);
  let s = c.oldest in
  let b = bucket_of c ident ~xid ~prog ~vers ~proc in
  c.bucket.(s) <- b;
  c.idents.(s) <- ident;
  c.xids.(s) <- xid;
  c.progs.(s) <- prog;
  c.verss.(s) <- vers;
  c.procs.(s) <- proc;
  c.replies.(s) <- reply;
  c.next.(s) <- c.heads.(b);
  c.heads.(b) <- s;
  c.oldest <- succ c s;
  c.size <- c.size + 1;
  c.bytes <- c.bytes + large_bytes reply;
  (* the newest entry stays, however large: its retransmission is the
     likeliest *)
  shed c (back c) ~keep:(large_bytes reply);
  Mutex.unlock c.lock

let hits c =
  Mutex.lock c.lock;
  let n = c.hits in
  Mutex.unlock c.lock;
  n

let bytes c =
  Mutex.lock c.lock;
  let n = c.bytes in
  Mutex.unlock c.lock;
  n

let entries c =
  Mutex.lock c.lock;
  let rec collect acc i s =
    if i = c.size then List.rev acc
    else
      let acc =
        if c.bucket.(s) < 0 then acc
        else
          ( (c.idents.(s), c.xids.(s), c.progs.(s), c.verss.(s), c.procs.(s)),
            c.replies.(s) )
          :: acc
      in
      collect acc (i + 1) (succ c s)
  in
  let l = collect [] 0 (back c) in
  Mutex.unlock c.lock;
  l
