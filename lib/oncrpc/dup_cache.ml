(* A fixed FIFO ring of [capacity] slots over flat arrays, indexed by a
   chained hash whose links are slot numbers in an int array. A slot holds
   one key (ident, xid, prog, vers, proc) and its reply; the ring's write
   position is always the oldest slot, so filling it evicts in insertion
   order. Nothing here allocates after [create]: keys are compared field by
   field, never boxed into a tuple, and the only heap values the arrays
   point at are the ident and reply strings the caller already owns. *)

type t = {
  capacity : int;
  mask : int;  (* bucket count - 1; a power of two >= capacity *)
  heads : int array;  (* bucket -> newest slot of its chain, or -1 *)
  next : int array;  (* slot -> next (older) slot of its chain, or -1 *)
  bucket : int array;  (* slot -> its bucket, for unlinking on eviction *)
  idents : string array;
  xids : int array;
  progs : int array;
  verss : int array;
  procs : int array;
  replies : string array;  (* "" for a one-way call: no reply *)
  mutable oldest : int;  (* next slot to fill; the oldest once full *)
  mutable size : int;
  mutable hits : int;
  lock : Mutex.t;
      (* guards everything above — servers are shared across domains by
         the sharded harnesses *)
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Dup_cache.create";
  let buckets = ref 1 in
  while !buckets < capacity do
    buckets := 2 * !buckets
  done;
  {
    capacity;
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

(* Unlink slot [s] from its chain. Every filled slot is linked, so the walk
   always finds it. *)
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
  end

let store c ~ident ~xid ~prog ~vers ~proc reply =
  Mutex.lock c.lock;
  let s = c.oldest in
  if c.size = c.capacity then unlink c s else c.size <- c.size + 1;
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
  c.oldest <- (if s + 1 = c.capacity then 0 else s + 1);
  Mutex.unlock c.lock

let hits c =
  Mutex.lock c.lock;
  let n = c.hits in
  Mutex.unlock c.lock;
  n

let entries c =
  Mutex.lock c.lock;
  let first = if c.size = c.capacity then c.oldest else 0 in
  let l =
    List.init c.size (fun i ->
        let s = (first + i) mod c.capacity in
        ( (c.idents.(s), c.xids.(s), c.progs.(s), c.verss.(s), c.procs.(s)),
          c.replies.(s) ))
  in
  Mutex.unlock c.lock;
  l
