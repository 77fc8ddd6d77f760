(** Simulated GPU device memory: allocator plus typed access.

    Device pointers are plain integers in a private address space starting
    at a non-zero base. The allocator is a first-fit free list with 256-byte
    alignment (CUDA's allocation granularity guarantee) and full
    bookkeeping, so invalid frees and double frees are detected — the
    behaviour Cricket's client-side allocation wrapping relies on.

    Bulk [read]/[write]/[copy]/[memset] are bounds-checked against the
    owning allocation. Kernel access ({!span}, the scalar accessors and
    the kernel loops) is only checked against device memory as a whole,
    mirroring how real GPU kernels can address anywhere in it. *)

type t

type error =
  | Out_of_memory of { requested : int; free : int }
  | Invalid_pointer of int
  | Double_free of int
  | Out_of_bounds of { ptr : int; offset : int; len : int; alloc_size : int }
  | Out_of_range of { addr : int; len : int }
      (** A kernel access outside device memory. *)

exception Error of error

val error_to_string : error -> string

val create : capacity:int -> t
(** [capacity] bounds the sum of live allocations; the backing store grows
    lazily as addresses are touched. *)

val alloc : t -> int -> int
(** Allocate [n] bytes ([n > 0]); returns the device pointer. *)

val free : t -> int -> unit
val is_allocated : t -> int -> bool
val allocation_size : t -> int -> int
(** Size of the allocation starting exactly at this pointer. *)

val find_allocation : t -> int -> (int * int) option
(** [(base, size)] of the allocation containing an address, if any. *)

val used_bytes : t -> int
val free_bytes : t -> int
val total_bytes : t -> int
val live_allocations : t -> int

(** {1 Bulk transfer (bounds-checked against the allocation)} *)

val write : t -> int -> bytes -> unit

val write_string : t -> int -> string -> int -> int -> unit
(** [write_string t ptr src off len] is {!write} of the [len] bytes of
    [src] from [off], blitted straight from [src]: the same range check,
    the same dirty marks. Raises [Invalid_argument] if [off] and [len] do
    not name a range of [src]. *)

val read : t -> int -> int -> bytes

val readable : t -> int -> int -> unit
(** [readable t ptr len] raises the {!Error} that [read t ptr len] would,
    and does nothing else that can be observed: a [read_into] of the same
    range after it cannot fail. *)

val read_into : t -> int -> int -> bytes -> int -> unit
(** [read_into t ptr len dst off] is {!read} into [dst] at [off] instead of
    a fresh buffer. Raises [Invalid_argument] if [off] and [len] do not
    name a range of [dst]. *)

val copy : t -> src:int -> dst:int -> len:int -> unit
val memset : t -> int -> int -> int -> unit
(** [memset t ptr byte len]. *)

(** {1 Kernel access (checked against device memory)}

    Device memory is the address range [\[0, 0x1000 + capacity)] (the
    allocator hands out pointers from 0x1000 up); kernel pointers come
    from launch arguments and may point anywhere in it,
    inside an allocation or not. A kernel admits each operand's range
    with {!span} before its first store, so a launch with a bad pointer
    raises {!Error} without changing memory. Multi-byte values are
    little-endian. *)

val span : t -> int -> int -> unit
(** [span t addr len] admits an access to [\[addr, addr + len)]: raises
    [Error (Out_of_range _)] unless [addr >= 0] and the range ends inside
    device memory, and grows the backing store over it. Does nothing when
    [len <= 0]. It marks no page dirty; the stores do. *)

val extent : t -> runs:int -> ld:int -> int -> int
(** [extent t ~runs ~ld n] is the byte length of [runs] runs of [n] 32-bit
    elements whose starts lie [ld] elements apart: a column-major matrix
    of [runs] columns, [n] rows and leading dimension [ld], or a strided
    vector ([n = 1], [ld] the stride). It is [0] when [runs] or [n] is not
    positive, and longer than device memory (so {!span} rejects it) when
    it does not fit. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_i32 : t -> int -> int32
val set_i32 : t -> int -> int32 -> unit
val get_f32 : t -> int -> float
val set_f32 : t -> int -> float -> unit
(** Each scalar accessor is a {!span} of one element; a store marks its
    page dirty. *)

(** {2 Kernel loops}

    The built-in kernels whose inner loops dominate execution. Each admits
    its operands, marks the pages it stores to, and runs over the arena
    with unboxed 32-bit loads and stores; an empty loop touches nothing.
    Results are as if operands were read in place, element by element:
    an output aliasing an input sees the stores already made. Float
    products are summed in f64, in the per-element order, and rounded to
    f32 once, at the store.

    The GEMM loops ({!matrix_mul}, {!sgemm}) widen each f32 operand once
    into an f64 mirror owned by the arena: the strided operand whole and
    transposed (B for matrixMul, A for sgemm), the other one row or
    column at a time. The mirror grows to the largest such operand seen,
    only after every span has passed, and is not part of {!snapshot} or
    {!delta}. When the output's bytes overlap an input's, or sgemm's A
    has overlapping columns ([lda < m]), they run the per-element loop
    over the arena instead; the results are the same bits either way. *)

val matrix_mul : t -> c:int -> a:int -> b:int -> ha:int -> wa:int -> wb:int -> unit
(** Row-major [C(ha×wb) = A(ha×wa) · B(wa×wb)]. *)

val sgemm :
  t -> m:int -> n:int -> k:int -> alpha:float -> a:int -> lda:int -> b:int ->
  ldb:int -> beta:float -> c:int -> ldc:int -> unit
(** Column-major [C(m×n) = alpha · A(m×k) · B(k×n) + beta · C]; [C] is
    not read when [beta = 0]. Marks each column's [m] rows, not the gap to
    the next column. *)

val histogram256 : t -> bins:int -> data:int -> count:int -> unit
(** Zero 256 u32 [bins], then count each of [count] bytes at [data]. *)

val merge_histogram256 : t -> out:int -> partials:int -> n:int -> unit
(** [out\[b\]] = the sum of [n] consecutive 256-bin histograms at
    [partials], wrapping modulo 2{^32}. *)

val reset : t -> unit
(** Free everything (cudaDeviceReset). *)

val snapshot : t -> string
(** Serialize allocator state + live memory contents (for checkpoint).
    Leaves the dirty-page set untouched, so a recovery checkpoint taken
    between migration rounds cannot silently rebase the delta stream. *)

val restore : string -> t
(** Rebuild from {!snapshot} output. The restored arena has dirty-page
    tracking disabled. *)

(** {1 Dirty-page tracking and incremental deltas}

    With tracking enabled every mutator marks the 4 KiB pages it touches.
    [delta] serializes the allocator tables plus only the dirty pages and
    clears the dirty set, so a stream of deltas applied on top of a full
    {!snapshot} reconstructs the arena with transfer cost bounded by the
    write rate, not the arena size. *)

val page_size : int
val set_tracking : t -> bool -> unit
val tracking : t -> bool
val clear_dirty : t -> unit
val dirty_page_count : t -> int

val delta : t -> string
(** Serialize allocator tables + dirty pages, then clear the dirty set.
    Raises [Invalid_argument] if tracking is disabled. *)

val apply_delta : t -> string -> (unit, string) result
(** Apply a {!delta} blob on top of this arena (typically restored from
    the matching base snapshot). Fails if capacities differ. *)
