(** GPU device profiles.

    Static hardware descriptions used for CUDA device properties and for
    the kernel timing model. The catalog mirrors the evaluation testbed's
    GPU node: one A100, two T4s, one P40 (the paper's measurements use the
    A100). Throughput numbers are datasheet values derated by an efficiency
    factor representing what well-tuned sample kernels sustain (tiled
    SGEMM reaches roughly half of peak on these parts). *)

type t = {
  name : string;
  multi_processor_count : int;
  clock_rate_khz : int;
  total_global_mem : int64;  (** bytes *)
  memory_bandwidth : float;  (** bytes/s *)
  pcie_bandwidth : float;  (** bytes/s, host<->device staging *)
  fp32_tflops : float;
  fp64_tflops : float;
  efficiency : float;  (** fraction of peak sustained by small kernels *)
  compute_major : int;
  compute_minor : int;
  launch_overhead_ns : int;  (** device-side cost to start one grid *)
}

val a100 : t
val t4 : t
val p40 : t

val gpu_node : t list
(** The evaluation machine's GPUs in device-index order:
    [A100; T4; T4; P40]. *)

val effective_flops : t -> [ `F32 | `F64 ] -> float
(** Sustained FLOP/s after derating. *)
