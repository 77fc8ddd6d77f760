let f32_bytes a =
  let b = Bytes.create (4 * Array.length a) in
  Array.iteri
    (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.bits_of_float v))
    a;
  b

let f32_array b =
  if Bytes.length b mod 4 <> 0 then invalid_arg "Workload.f32_array";
  Array.init (Bytes.length b / 4) (fun i ->
      Int32.float_of_bits (Bytes.get_int32_le b (4 * i)))

let fill_constant n v = Array.make n v

(* One xorshift step per byte, the low byte of each state kept; a plain
   loop, so the state stays in a register. *)
let xorshift_bytes ~seed n =
  let b = Bytes.create n in
  let state = ref (if seed = 0 then 0x9e3779b9 else seed land 0x3fffffff) in
  for i = 0 to n - 1 do
    let x = !state in
    let x = x lxor (x lsl 13) land 0x3fffffff in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) land 0x3fffffff in
    state := x;
    Bytes.unsafe_set b i (Char.unsafe_chr (x land 0xff))
  done;
  b

let standard_module_names =
  [
    Gpusim.Kernels.matrix_mul_name;
    Gpusim.Kernels.histogram256_name;
    Gpusim.Kernels.merge_histogram256_name;
    Gpusim.Kernels.vector_add_name;
    Gpusim.Kernels.saxpy_name;
    Gpusim.Kernels.reduce_sum_name;
    Gpusim.Kernels.transpose_name;
    Gpusim.Kernels.fill_name;
  ]

let load_standard_module client =
  let image = Cubin.Image.of_registry standard_module_names in
  Cricket.Client.module_load client (Cubin.Image.build ~compress:true image)

let get_kernel client ~modul name =
  Cricket.Client.get_function client ~modul ~name

let approx_equal ?(tolerance = 1e-4) a b =
  let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
  Float.abs (a -. b) <= tolerance *. scale
