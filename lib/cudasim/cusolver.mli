(** cuSOLVER dense subset: LU factorization and solve, the workload of the
    cuSolverDn_LinearSolver proxy application.

    Matrices are column-major single precision, pivot indices are 1-based
    (LAPACK convention) stored as i32 in device memory — matching
    [cusolverDnSgetrf]/[cusolverDnSgetrs].

    Timing: small-matrix dense factorizations on a GPU are panel- and
    latency-bound, far from peak FLOPs; the cost model applies a dedicated
    solver efficiency (0.14 % of FP32 peak) calibrated so that a
    900×900 SGETRF takes ~18 ms on the A100 profile, which puts the
    Fig. 5b proxy app in the paper's kernel-dominated regime. *)

val create : Context.t -> int64
val destroy : Context.t -> int64 -> Error.t

val sgetrf_buffer_size :
  Context.t -> handle:int64 -> m:int -> n:int -> a:int64 -> lda:int ->
  (int, Error.t) result
(** Workspace float count needed by {!sgetrf}. *)

val sgetrf :
  Context.t -> handle:int64 -> m:int -> n:int -> a:int64 -> lda:int ->
  workspace:int64 -> ipiv:int64 -> (int, Error.t) result
(** In-place LU with partial pivoting; returns LAPACK [info] (0 = success,
    [k > 0] = zero pivot at step [k]). *)

val sgetrs :
  Context.t -> handle:int64 -> n:int -> nrhs:int -> a:int64 -> lda:int ->
  ipiv:int64 -> b:int64 -> ldb:int -> (int, Error.t) result
(** Solve A·X = B using a prior {!sgetrf}; B is overwritten with X. *)
