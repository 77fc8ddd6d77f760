type t = {
  name : string;
  multi_processor_count : int;
  clock_rate_khz : int;
  total_global_mem : int64;
  memory_bandwidth : float;
  pcie_bandwidth : float;
  fp32_tflops : float;
  fp64_tflops : float;
  efficiency : float;
  compute_major : int;
  compute_minor : int;
  launch_overhead_ns : int;
}

let gib n = Int64.mul (Int64.of_int n) (Int64.shift_left 1L 30)

let a100 =
  {
    name = "NVIDIA A100-PCIE-40GB";
    multi_processor_count = 108;
    clock_rate_khz = 1_410_000;
    total_global_mem = gib 40;
    memory_bandwidth = 1.555e12;
    pcie_bandwidth = 2.2e10;
    fp32_tflops = 19.5;
    fp64_tflops = 9.7;
    efficiency = 0.45;
    compute_major = 8;
    compute_minor = 0;
    launch_overhead_ns = 2_200;
  }

let t4 =
  {
    name = "NVIDIA Tesla T4";
    multi_processor_count = 40;
    clock_rate_khz = 1_590_000;
    total_global_mem = gib 16;
    memory_bandwidth = 3.2e11;
    pcie_bandwidth = 1.2e10;
    fp32_tflops = 8.1;
    fp64_tflops = 0.25;
    efficiency = 0.40;
    compute_major = 7;
    compute_minor = 5;
    launch_overhead_ns = 2_600;
  }

let p40 =
  {
    name = "NVIDIA Tesla P40";
    multi_processor_count = 30;
    clock_rate_khz = 1_531_000;
    total_global_mem = gib 24;
    memory_bandwidth = 3.46e11;
    pcie_bandwidth = 1.2e10;
    fp32_tflops = 11.8;
    fp64_tflops = 0.37;
    efficiency = 0.35;
    compute_major = 6;
    compute_minor = 1;
    launch_overhead_ns = 3_000;
  }

let gpu_node = [ a100; t4; t4; p40 ]

let effective_flops t precision =
  let peak =
    match precision with `F32 -> t.fp32_tflops | `F64 -> t.fp64_tflops
  in
  peak *. 1e12 *. t.efficiency
