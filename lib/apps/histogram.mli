(** Port of the CUDA-samples histogram proxy application (Fig. 5c).

    Computes the 256-bin histogram of a pseudo-randomly initialized byte
    array. Each iteration launches the two-kernel pipeline of the sample
    (per-block partial histograms, then a merge). Initialization cost is
    charged at the configuration's RNG speed — the mechanism behind the
    paper's 37.6 % C-vs-Rust gap on this app. *)

type params = {
  data_bytes : int;
  iterations : int;
}

val default : params
(** 64 MiB, 300 iterations. *)

val paper : params
(** 64 MiB, 40 000 iterations (≈ 80 033 API calls, as reported). *)

val run : ?verify:bool -> params -> Unikernel.Runner.env -> unit

val reference_histogram : bytes -> int array
(** The host-side check: how often each of the 256 byte values occurs. *)
