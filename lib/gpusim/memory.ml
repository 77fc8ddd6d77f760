type error =
  | Out_of_memory of { requested : int; free : int }
  | Invalid_pointer of int
  | Double_free of int
  | Out_of_bounds of { ptr : int; offset : int; len : int; alloc_size : int }
  | Out_of_range of { addr : int; len : int }

exception Error of error

let error_to_string = function
  | Out_of_memory { requested; free } ->
      Printf.sprintf "out of device memory: requested %d, free %d" requested free
  | Invalid_pointer p -> Printf.sprintf "invalid device pointer 0x%x" p
  | Double_free p -> Printf.sprintf "double free of device pointer 0x%x" p
  | Out_of_bounds { ptr; offset; len; alloc_size } ->
      Printf.sprintf
        "out-of-bounds access: allocation 0x%x (size %d), offset %d, len %d"
        ptr alloc_size offset len
  | Out_of_range { addr; len } ->
      Printf.sprintf "kernel access outside device memory: address %d, len %d"
        addr len

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Gpusim.Memory.Error: " ^ error_to_string e)
    | _ -> None)

let fail e = raise (Error e)
let base_address = 0x1000
let alignment = 256
let page_size = 4096

module Imap = Map.Make (Int)
module BA1 = Bigarray.Array1

(* The arena lives in a Bigarray, not Bytes: Bigarray data is malloc'd
   outside the OCaml heap, so concurrent access from several domains
   (each gpusim instance is owned by one shard, but snapshot/migration
   tooling may read across) never races the GC's moving of heap blocks,
   and large arenas add no marking pressure. *)
type arena = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) BA1.t

let arena_create len : arena =
  let a = BA1.create Bigarray.char Bigarray.c_layout len in
  BA1.fill a '\000';  (* Bigarray.Array1.create does not zero-fill *)
  a

let arena_len (a : arena) = BA1.dim a

(* Bytes/String <-> Bigarray have no stdlib blit, so these loops move one
   native-endian 8-byte word per iteration (the compiler's unboxed 64-bit
   load/store primitives; native order on both sides keeps every byte in
   place) and finish the 0-7 byte tail bytewise. Callers bound-check first,
   so the unchecked accessors are fine. *)
external arena_get64 : arena -> int -> int64 = "%caml_bigstring_get64u"
external arena_set64 : arena -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bytes_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external bytes_set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let blit_bytes_to_arena src srcoff (dst : arena) dstoff len =
  let words = len land lnot 7 in
  let i = ref 0 in
  while !i < words do
    arena_set64 dst (dstoff + !i) (bytes_get64 src (srcoff + !i));
    i := !i + 8
  done;
  for i = words to len - 1 do
    BA1.unsafe_set dst (dstoff + i) (Bytes.unsafe_get src (srcoff + i))
  done

(* read-only use of the string's bytes *)
let blit_string_to_arena src = blit_bytes_to_arena (Bytes.unsafe_of_string src)

let blit_arena_to_bytes (src : arena) srcoff dst dstoff len =
  let words = len land lnot 7 in
  let i = ref 0 in
  while !i < words do
    bytes_set64 dst (dstoff + !i) (arena_get64 src (srcoff + !i));
    i := !i + 8
  done;
  for i = words to len - 1 do
    Bytes.unsafe_set dst (dstoff + i) (BA1.unsafe_get src (srcoff + i))
  done

let arena_sub_bytes src off len =
  let b = Bytes.create len in
  blit_arena_to_bytes src off b 0 len;
  b

let arena_sub_string src off len =
  Bytes.unsafe_to_string (arena_sub_bytes src off len)

type t = {
  capacity : int;
  mutable backing : arena;
  mutable allocations : int Imap.t;  (* base -> size *)
  mutable free_list : (int * int) list;  (* (base, size), sorted by base *)
  mutable used : int;
  mutable tracking : bool;
  mutable dirty : Bytes.t;  (* one byte per page; empty until tracking *)
  mutable scratch : Float.Array.t;
      (* the GEMM loops' f64 mirror of their operands, grown to the
         high-water mark; owned by the arena, not a module global, because
         each domain runs its own gpusim *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Memory.create: capacity";
  {
    capacity;
    backing = arena_create 4096;
    allocations = Imap.empty;
    free_list = [ (base_address, capacity) ];
    used = 0;
    tracking = false;
    dirty = Bytes.empty;
    scratch = Float.Array.create 0;
  }

let page_count t = (base_address + t.capacity + page_size - 1) / page_size

let set_tracking t on =
  if on then begin
    if Bytes.length t.dirty = 0 then t.dirty <- Bytes.make (page_count t) '\000';
    t.tracking <- true
  end
  else t.tracking <- false

let tracking t = t.tracking

let clear_dirty t =
  if Bytes.length t.dirty > 0 then
    Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000'

let dirty_page_count t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t.dirty;
  !n

(* Mark the pages covering [addr, addr+len) dirty. The backing store grows
   by doubling and can end past device memory, so a mark of the whole
   backing (reset) is clamped to the tracked range; the bytes past it are
   outside any allocation and never checkpointed anyway. *)
let mark t addr len =
  if t.tracking && len > 0 then begin
    let npages = Bytes.length t.dirty in
    let first = addr / page_size in
    let last = min ((addr + len - 1) / page_size) (npages - 1) in
    for p = first to last do
      if p >= 0 && p < npages then Bytes.unsafe_set t.dirty p '\001'
    done
  end

let used_bytes t = t.used
let free_bytes t = t.capacity - t.used
let total_bytes t = t.capacity
let live_allocations t = Imap.cardinal t.allocations

let round_up n = (n + alignment - 1) / alignment * alignment

let alloc t n =
  if n <= 0 then invalid_arg "Memory.alloc: size must be positive";
  let size = round_up n in
  let rec take acc = function
    | [] -> fail (Out_of_memory { requested = n; free = free_bytes t })
    | (base, avail) :: rest when avail >= size ->
        let remaining =
          if avail = size then rest else (base + size, avail - size) :: rest
        in
        t.free_list <- List.rev_append acc remaining;
        t.allocations <- Imap.add base size t.allocations;
        t.used <- t.used + size;
        base
    | range :: rest -> take (range :: acc) rest
  in
  take [] t.free_list

(* Insert a range into the sorted free list, coalescing neighbours. *)
let release t base size =
  let rec insert = function
    | [] -> [ (base, size) ]
    | (b, s) :: rest when base + size = b -> (base, size + s) :: rest
    | (b, s) :: rest when b + s = base -> insert_merge b (s + size) rest
    | (b, s) :: rest when base < b -> (base, size) :: (b, s) :: rest
    | range :: rest -> range :: insert rest
  and insert_merge b s = function
    | (b2, s2) :: rest when b + s = b2 -> (b, s + s2) :: rest
    | rest -> (b, s) :: rest
  in
  t.free_list <- insert t.free_list

let free t ptr =
  match Imap.find_opt ptr t.allocations with
  | Some size ->
      t.allocations <- Imap.remove ptr t.allocations;
      t.used <- t.used - size;
      release t ptr size
  | None ->
      (* Distinguish never-allocated from already-freed: a pointer inside
         the managed range that is not a live base is a double free if it
         was plausibly a base (aligned), otherwise invalid. *)
      if ptr >= base_address && ptr < base_address + t.capacity
         && ptr mod alignment = 0
      then fail (Double_free ptr)
      else fail (Invalid_pointer ptr)

let is_allocated t ptr = Imap.mem ptr t.allocations

let allocation_size t ptr =
  match Imap.find_opt ptr t.allocations with
  | Some s -> s
  | None -> fail (Invalid_pointer ptr)

let find_allocation t addr =
  match Imap.find_last_opt (fun base -> base <= addr) t.allocations with
  | Some (base, size) when addr < base + size -> Some (base, size)
  | _ -> None

let ensure_backing t upto =
  if upto > arena_len t.backing then begin
    let capacity = ref (max 4096 (arena_len t.backing)) in
    while !capacity < upto do
      capacity := !capacity * 2
    done;
    let grown = arena_create !capacity in
    let old_len = arena_len t.backing in
    BA1.blit t.backing (BA1.sub grown 0 old_len);
    t.backing <- grown
  end

let check_range t ptr len =
  match find_allocation t ptr with
  | None -> fail (Invalid_pointer ptr)
  | Some (base, size) ->
      if ptr + len > base + size then
        fail (Out_of_bounds { ptr = base; offset = ptr - base; len;
                              alloc_size = size })

let write_string t ptr src off len =
  if off < 0 || len < 0 || off > String.length src - len then
    invalid_arg "Memory.write_string";
  if len > 0 then begin
    check_range t ptr len;
    ensure_backing t (ptr + len);
    blit_string_to_arena src off t.backing ptr len;
    mark t ptr len
  end

let write t ptr data =
  write_string t ptr (Bytes.unsafe_to_string data) 0 (Bytes.length data)

let readable t ptr len =
  if len <> 0 then begin
    check_range t ptr len;
    ensure_backing t (ptr + len)
  end

let read_into t ptr len dst off =
  if off < 0 || len < 0 || off > Bytes.length dst - len then
    invalid_arg "Memory.read_into";
  readable t ptr len;
  blit_arena_to_bytes t.backing ptr dst off len

let read t ptr len =
  if len = 0 then Bytes.empty
  else begin
    readable t ptr len;
    arena_sub_bytes t.backing ptr len
  end

let copy t ~src ~dst ~len =
  if len > 0 then begin
    check_range t src len;
    check_range t dst len;
    ensure_backing t (max (src + len) (dst + len));
    (* Array1.blit is memmove: overlapping device-to-device copies keep
       the same semantics the Bytes arena had. *)
    BA1.blit (BA1.sub t.backing src len) (BA1.sub t.backing dst len);
    mark t dst len
  end

let memset t ptr byte len =
  if len > 0 then begin
    check_range t ptr len;
    ensure_backing t (ptr + len);
    BA1.fill (BA1.sub t.backing ptr len) (Char.chr (byte land 0xff));
    mark t ptr len
  end

(* --- kernel access --- *)

(* Kernel pointers come straight from client launch arguments, and the
   element accessors below do not bound-check, so every range a kernel
   touches is admitted first: once per operand, before the first store.
   Lengths are compared against the end of device memory rather than
   added to the address, so no sum can overflow. *)
let span t addr len =
  if len > 0 then begin
    if addr < 0 || addr > base_address + t.capacity - len then
      fail (Out_of_range { addr; len });
    ensure_backing t (addr + len)
  end

let span_w t addr len =
  span t addr len;
  mark t addr len

(* Products of client-supplied dimensions are checked by division against
   the element count of device memory; a range that does not fit gets
   [max_int], which [span] rejects. *)
let extent t ~runs ~ld n =
  let limit = (base_address + t.capacity) / 4 in
  if runs <= 0 || n <= 0 then 0
  else if n > limit || ld < 0 || (ld > 0 && runs - 1 > (limit - n) / ld) then
    max_int
  else 4 * (((runs - 1) * ld) + n)

(* Unchecked 32-bit loads and stores, little-endian as device memory is.
   They are [@inline] and the hot kernel loops live in this file: the dev
   build compiles modules with -opaque, so a call from another module
   cannot be inlined and would box its int32 and float. *)
external arena_get32 : arena -> int -> int32 = "%caml_bigstring_get32u"
external arena_set32 : arena -> int -> int32 -> unit = "%caml_bigstring_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"
external big_endian : unit -> bool = "%big_endian"

let[@inline] load_i32 b addr =
  let v = arena_get32 b addr in
  if big_endian () then bswap32 v else v

let[@inline] store_i32 b addr v =
  arena_set32 b addr (if big_endian () then bswap32 v else v)

let[@inline] load_f32 b addr = Int32.float_of_bits (load_i32 b addr)
let[@inline] store_f32 b addr v = store_i32 b addr (Int32.bits_of_float v)

(* Scalar accessors: each is a span of one element. *)

let get_u8 t addr =
  span t addr 1;
  Char.code (BA1.unsafe_get t.backing addr)

let set_u8 t addr v =
  span_w t addr 1;
  BA1.unsafe_set t.backing addr (Char.unsafe_chr (v land 0xff))

let get_i32 t addr =
  span t addr 4;
  load_i32 t.backing addr

let set_i32 t addr v =
  span_w t addr 4;
  store_i32 t.backing addr v

let get_f32 t addr =
  span t addr 4;
  load_f32 t.backing addr

let set_f32 t addr v =
  span_w t addr 4;
  store_f32 t.backing addr v

(* The kernel loops below read [t.backing] only after their last span:
   a span can grow, and so replace, the backing store. Element order and
   arithmetic are those of a per-element loop — products summed in f64,
   rounded to f32 once at the store — and the result is as if operands
   were read in place, so an output aliasing an input sees the stores
   already made. *)

(* Whether the byte ranges [\[x, x + xlen)] and [\[y, y + ylen)] share a
   byte. Both have passed [span], so the sums cannot overflow. *)
let overlaps x xlen y ylen = xlen > 0 && ylen > 0 && x < y + ylen && y < x + xlen

(* At least [n] floats of the arena's scratch. It is asked for only after
   every span has passed, and [n] is bounded by operands already in
   device memory. *)
let scratch t n =
  if Float.Array.length t.scratch < n then t.scratch <- Float.Array.create n;
  t.scratch

external fget : Float.Array.t -> int -> float = "%floatarray_unsafe_get"
external fset : Float.Array.t -> int -> float -> unit = "%floatarray_unsafe_set"

(* The GEMM loops widen each f32 once into an f64 mirror ([Int32]'s
   float/bits conversions are C calls, and a call per multiply-add spills
   every register), then compute four output elements per pass. Each of
   the four accumulators starts at 0.0 and adds its products in the
   per-element loop's order, so every sum, and its rounding at the store,
   is the per-element loop's. The mirror would miss stores to an operand,
   so when the output overlaps an input the per-element loop runs over
   the arena instead. *)

let matrix_mul_in_place m ~c ~a ~b ~ha ~wa ~wb =
  for i = 0 to ha - 1 do
    for j = 0 to wb - 1 do
      let acc = ref 0.0 in
      for k = 0 to wa - 1 do
        acc :=
          !acc
          +. load_f32 m (a + (4 * ((i * wa) + k)))
             *. load_f32 m (b + (4 * ((k * wb) + j)))
      done;
      store_f32 m (c + (4 * ((i * wb) + j))) !acc
    done
  done

(* B is mirrored transposed, [bt.(j * wa + k)], followed by one row of A
   at [row]. *)
let matrix_mul_mirrored t ~c ~a ~b ~ha ~wa ~wb =
  let wa = max wa 0 in
  let row = wa * wb in
  let s = scratch t (row + wa) in
  let m = t.backing in
  for k = 0 to wa - 1 do
    for j = 0 to wb - 1 do
      fset s ((j * wa) + k) (load_f32 m (b + (4 * ((k * wb) + j))))
    done
  done;
  for i = 0 to ha - 1 do
    for k = 0 to wa - 1 do
      fset s (row + k) (load_f32 m (a + (4 * ((i * wa) + k))))
    done;
    let ci = c + (4 * i * wb) in
    let j = ref 0 in
    while !j + 4 <= wb do
      let b0 = !j * wa in
      let b1 = b0 + wa in
      let b2 = b1 + wa in
      let b3 = b2 + wa in
      let acc0 = ref 0.0 and acc1 = ref 0.0 in
      let acc2 = ref 0.0 and acc3 = ref 0.0 in
      for k = 0 to wa - 1 do
        let x = fget s (row + k) in
        acc0 := !acc0 +. (x *. fget s (b0 + k));
        acc1 := !acc1 +. (x *. fget s (b1 + k));
        acc2 := !acc2 +. (x *. fget s (b2 + k));
        acc3 := !acc3 +. (x *. fget s (b3 + k))
      done;
      let cj = ci + (4 * !j) in
      store_f32 m cj !acc0;
      store_f32 m (cj + 4) !acc1;
      store_f32 m (cj + 8) !acc2;
      store_f32 m (cj + 12) !acc3;
      j := !j + 4
    done;
    for j = !j to wb - 1 do
      let bj = j * wa in
      let acc = ref 0.0 in
      for k = 0 to wa - 1 do
        acc := !acc +. (fget s (row + k) *. fget s (bj + k))
      done;
      store_f32 m (ci + (4 * j)) !acc
    done
  done

let matrix_mul t ~c ~a ~b ~ha ~wa ~wb =
  if ha > 0 && wb > 0 then begin
    let a_len = extent t ~runs:ha ~ld:wa wa in
    let b_len = extent t ~runs:wa ~ld:wb wb in
    let c_len = extent t ~runs:ha ~ld:wb wb in
    span t a a_len;
    span t b b_len;
    span_w t c c_len;
    if overlaps c c_len a a_len || overlaps c c_len b b_len then
      matrix_mul_in_place t.backing ~c ~a ~b ~ha ~wa ~wb
    else matrix_mul_mirrored t ~c ~a ~b ~ha ~wa ~wb
  end

(* [(alpha * acc) + (beta * C)] stored at [ci], C read just before the
   store: C's columns may overlap each other when [ldc < m]. *)
let[@inline] sgemm_store mem ci ~alpha ~beta acc =
  let prior = if beta = 0.0 then 0.0 else load_f32 mem ci in
  store_f32 mem ci ((alpha *. acc) +. (beta *. prior))

let sgemm_in_place mem ~m ~n ~k ~alpha ~a ~lda ~b ~ldb ~beta ~c ~ldc =
  for j = 0 to n - 1 do
    for i = 0 to m - 1 do
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc :=
          !acc
          +. load_f32 mem (a + (4 * ((l * lda) + i)))
             *. load_f32 mem (b + (4 * ((j * ldb) + l)))
      done;
      sgemm_store mem (c + (4 * ((j * ldc) + i))) ~alpha ~beta !acc
    done
  done

(* A is mirrored transposed, [at.(i * k + l)], followed by one column of
   B at [col]. Columns of C are stored in order, rows in order within a
   column, as the per-element loop does. *)
let sgemm_mirrored t ~m ~n ~k ~alpha ~a ~lda ~b ~ldb ~beta ~c ~ldc =
  let k = max k 0 in
  let col = m * k in
  let s = scratch t (col + k) in
  let mem = t.backing in
  for l = 0 to k - 1 do
    for i = 0 to m - 1 do
      fset s ((i * k) + l) (load_f32 mem (a + (4 * ((l * lda) + i))))
    done
  done;
  for j = 0 to n - 1 do
    for l = 0 to k - 1 do
      fset s (col + l) (load_f32 mem (b + (4 * ((j * ldb) + l))))
    done;
    let cj = c + (4 * j * ldc) in
    let i = ref 0 in
    while !i + 4 <= m do
      let a0 = !i * k in
      let a1 = a0 + k in
      let a2 = a1 + k in
      let a3 = a2 + k in
      let acc0 = ref 0.0 and acc1 = ref 0.0 in
      let acc2 = ref 0.0 and acc3 = ref 0.0 in
      (* A's elements are bound before the products: ocamlopt would
         otherwise make a load the second operand, and of two NaNs a
         product keeps its first operand's payload *)
      for l = 0 to k - 1 do
        let y = fget s (col + l) in
        let x0 = fget s (a0 + l) and x1 = fget s (a1 + l) in
        let x2 = fget s (a2 + l) and x3 = fget s (a3 + l) in
        acc0 := !acc0 +. (x0 *. y);
        acc1 := !acc1 +. (x1 *. y);
        acc2 := !acc2 +. (x2 *. y);
        acc3 := !acc3 +. (x3 *. y)
      done;
      let ci = cj + (4 * !i) in
      sgemm_store mem ci ~alpha ~beta !acc0;
      sgemm_store mem (ci + 4) ~alpha ~beta !acc1;
      sgemm_store mem (ci + 8) ~alpha ~beta !acc2;
      sgemm_store mem (ci + 12) ~alpha ~beta !acc3;
      i := !i + 4
    done;
    for i = !i to m - 1 do
      let ai = i * k in
      let acc = ref 0.0 in
      for l = 0 to k - 1 do
        acc := !acc +. (fget s (ai + l) *. fget s (col + l))
      done;
      sgemm_store mem (cj + (4 * i)) ~alpha ~beta !acc
    done
  done

let sgemm t ~m ~n ~k ~alpha ~a ~lda ~b ~ldb ~beta ~c ~ldc =
  if m > 0 && n > 0 then begin
    let a_len = extent t ~runs:k ~ld:lda m in
    let b_len = extent t ~runs:n ~ld:ldb k in
    let c_len = extent t ~runs:n ~ld:ldc m in
    span t a a_len;
    span t b b_len;
    span t c c_len;
    (* only the m stored rows of each column are dirty, not the gap up
       to the next column *)
    if t.tracking then
      for j = 0 to n - 1 do
        mark t (c + (4 * j * ldc)) (4 * m)
      done;
    (* the mirror's m·k floats fit in A's extent only when A's columns do
       not overlap each other *)
    if overlaps c c_len a a_len || overlaps c c_len b b_len || lda < m then
      sgemm_in_place t.backing ~m ~n ~k ~alpha ~a ~lda ~b ~ldb ~beta ~c ~ldc
    else sgemm_mirrored t ~m ~n ~k ~alpha ~a ~lda ~b ~ldb ~beta ~c ~ldc
  end

let histogram256 t ~bins ~data ~count =
  span t data count;
  span_w t bins 1024;
  let m = t.backing in
  for b = 0 to 255 do
    store_i32 m (bins + (4 * b)) 0l
  done;
  for i = 0 to count - 1 do
    let slot = bins + (4 * Char.code (BA1.unsafe_get m (data + i))) in
    store_i32 m slot (Int32.add (load_i32 m slot) 1l)
  done

let merge_histogram256 t ~out ~partials ~n =
  span t partials (extent t ~runs:n ~ld:256 256);
  span_w t out 1024;
  let m = t.backing in
  for b = 0 to 255 do
    let acc = ref 0l in
    for p = 0 to n - 1 do
      acc := Int32.add !acc (load_i32 m (partials + (4 * ((p * 256) + b))))
    done;
    store_i32 m (out + (4 * b)) !acc
  done

let reset t =
  t.allocations <- Imap.empty;
  t.free_list <- [ (base_address, t.capacity) ];
  t.used <- 0;
  BA1.fill t.backing '\000';
  (* Every page changed (to zero); a delta baseline taken before the
     reset must resend them. *)
  mark t 0 (arena_len t.backing)

(* Checkpoint format: capacity, allocation table, and each live
   allocation's contents. *)
type snapshot_data = {
  snap_capacity : int;
  snap_allocs : (int * int) list;
  snap_free : (int * int) list;
  snap_contents : (int * string) list;
}

let snapshot t =
  let contents =
    Imap.fold
      (fun base size acc ->
        ensure_backing t (base + size);
        (base, arena_sub_string t.backing base size) :: acc)
      t.allocations []
  in
  Marshal.to_string
    {
      snap_capacity = t.capacity;
      snap_allocs = Imap.bindings t.allocations;
      snap_free = t.free_list;
      snap_contents = contents;
    }
    []

let restore s =
  let d : snapshot_data = Marshal.from_string s 0 in
  let t = create ~capacity:d.snap_capacity in
  t.allocations <-
    List.fold_left (fun m (b, sz) -> Imap.add b sz m) Imap.empty d.snap_allocs;
  t.free_list <- d.snap_free;
  t.used <- List.fold_left (fun acc (_, sz) -> acc + sz) 0 d.snap_allocs;
  List.iter
    (fun (base, data) ->
      ensure_backing t (base + String.length data);
      blit_string_to_arena data 0 t.backing base (String.length data))
    d.snap_contents;
  t

(* Delta format: allocator tables wholesale (they are tiny next to
   contents) plus the raw bytes of each dirty page. Page contents all
   come from one coherent arena state, so whole-page blits on apply
   cannot tear an allocation. Taking a delta clears the dirty set —
   the delta is the baseline for the next round. *)
type delta_data = {
  dl_capacity : int;
  dl_allocs : (int * int) list;
  dl_free : (int * int) list;
  dl_pages : (int * string) list;  (* page index -> contents *)
}

let delta t =
  if not t.tracking then invalid_arg "Memory.delta: tracking disabled";
  let backing_len = arena_len t.backing in
  let pages = ref [] in
  for p = Bytes.length t.dirty - 1 downto 0 do
    if Bytes.get t.dirty p <> '\000' then begin
      let start = p * page_size in
      if start < backing_len then
        let len = min page_size (backing_len - start) in
        pages := (p, arena_sub_string t.backing start len) :: !pages
    end
  done;
  clear_dirty t;
  Marshal.to_string
    {
      dl_capacity = t.capacity;
      dl_allocs = Imap.bindings t.allocations;
      dl_free = t.free_list;
      dl_pages = !pages;
    }
    []

let apply_delta t s =
  match (Marshal.from_string s 0 : delta_data) with
  | exception _ -> Stdlib.Error "unreadable memory delta"
  | d ->
      if d.dl_capacity <> t.capacity then
        Stdlib.Error
          (Printf.sprintf "delta capacity %d does not match arena capacity %d"
             d.dl_capacity t.capacity)
      else begin
        t.allocations <-
          List.fold_left
            (fun m (b, sz) -> Imap.add b sz m)
            Imap.empty d.dl_allocs;
        t.free_list <- d.dl_free;
        t.used <- List.fold_left (fun acc (_, sz) -> acc + sz) 0 d.dl_allocs;
        List.iter
          (fun (p, data) ->
            let start = p * page_size in
            let len = String.length data in
            ensure_backing t (start + len);
            blit_string_to_arena data 0 t.backing start len;
            mark t start len)
          d.dl_pages;
        Ok ()
      end
