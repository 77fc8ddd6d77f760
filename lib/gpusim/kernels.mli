(** Kernel registry: named device functions with real implementations and
    analytic cost models.

    Plays the role of the GPU instruction stream: a cubin's "code" section
    names one of these kernels, the simulator executes the implementation
    against device {!Memory} (so applications produce genuinely correct
    results), and the cost model yields the virtual execution time from the
    device profile, grid geometry and arguments.

    The built-in set covers the CUDA-sample proxy applications of the
    paper's evaluation (matrixMul, histogram) plus generic utility kernels
    used by tests and examples. *)

(** A launch-parameter value, as unpacked from the packed parameter buffer
    according to the kernel's metadata. *)
type arg = I32 of int32 | I64 of int64 | F32 of float | F64 of float | Ptr of int

(** Parameter type descriptors — the cubin metadata Cricket extracts so it
    can (de)serialize launch parameters. *)
type param = P_i32 | P_i64 | P_f32 | P_f64 | P_ptr

val param_size : param -> int
(** Bytes occupied in the packed, naturally-aligned parameter buffer. *)

type dim3 = { x : int; y : int; z : int }

type launch = {
  grid : dim3;
  block : dim3;
  shared_mem : int;
  args : arg array;
}

type t = {
  name : string;
  params : param list;
  execute : Memory.t -> launch -> unit;
  cost : Device.t -> launch -> float;  (** execution time in ns *)
}

exception Bad_args of string
(** Raised by [execute] when args don't match [params]. The built-in
    kernels raise {!Memory.Error} for an operand range outside device
    memory, before any store. *)

val register : t -> unit
(** Add to the global registry (replaces an existing kernel of the same
    name). *)

val find : string -> t option
(** {1 Built-in kernels (registered at module init)} *)

val matrix_mul_name : string
(** ["matrixMulCUDA"]: C(hA×wB) = A(hA×wA) × B(wA×wB), f32 row-major.
    Params: [Ptr c; Ptr a; Ptr b; I32 wA; I32 wB]; grid.y*block.y = hA,
    grid.x*block.x = wB. *)

val histogram256_name : string
(** ["histogram256Kernel"]: byte histogram into 256 u32 bins.
    Params: [Ptr bins; Ptr data; I32 byte_count]. *)

val merge_histogram256_name : string
(** ["mergeHistogram256Kernel"]: sum [n] partial 256-bin histograms.
    Params: [Ptr out; Ptr partials; I32 n]. *)

val vector_add_name : string
(** ["vectorAdd"]: c = a + b over f32. Params: [Ptr a; Ptr b; Ptr c; I32 n]. *)

val saxpy_name : string
(** ["saxpy"]: y = a*x + y. Params: [F32 a; Ptr x; Ptr y; I32 n]. *)

val reduce_sum_name : string
(** ["reduceSum"]: out[0] = Σ in[i] (f32). Params: [Ptr in; Ptr out; I32 n]. *)

val transpose_name : string
(** ["transpose"]: out(cols×rows) = inᵀ. Params: [Ptr out; Ptr in; I32 rows;
    I32 cols]. *)

val fill_name : string
(** ["fillKernel"]: x[i] = v. Params: [Ptr x; F32 v; I32 n]. *)

val nbody_name : string
(** ["nbodyKernel"]: one softened all-pairs gravity step. Bodies are
    (x,y,z,mass) float4s, velocities (vx,vy,vz,_) float4s.
    Params: [Ptr pos; Ptr vel; F32 dt; I32 n]. *)
