type arg = I32 of int32 | I64 of int64 | F32 of float | F64 of float | Ptr of int

type param = P_i32 | P_i64 | P_f32 | P_f64 | P_ptr

let param_size = function
  | P_i32 | P_f32 -> 4
  | P_i64 | P_f64 | P_ptr -> 8

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
  cost : Device.t -> launch -> float;
}

exception Bad_args of string

let () =
  Printexc.register_printer (function
    | Bad_args msg -> Some ("Gpusim.Kernels.Bad_args: " ^ msg)
    | _ -> None)

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let register k = Hashtbl.replace registry k.name k
let find name = Hashtbl.find_opt registry name

(* --- argument helpers --- *)

let bad fmt = Format.kasprintf (fun m -> raise (Bad_args m)) fmt

let ptr_arg name args i =
  match args.(i) with
  | Ptr p -> p
  | _ -> bad "%s: arg %d must be a pointer" name i

let i32_arg name args i =
  match args.(i) with
  | I32 v -> Int32.to_int v
  | _ -> bad "%s: arg %d must be an i32" name i

let f32_arg name args i =
  match args.(i) with
  | F32 v -> v
  | _ -> bad "%s: arg %d must be an f32" name i

let check_arity name params args =
  if Array.length args <> List.length params then
    bad "%s: expected %d args, got %d" name (List.length params)
      (Array.length args)

(* --- timing helpers --- *)

let grid_blocks l = l.grid.x * l.grid.y * l.grid.z

(* Roofline-style estimate: whichever of compute and DRAM traffic takes
   longer, plus a per-wave scheduling cost once every SM has a block.
   Streaming kernels sustain ~85 % of datasheet bandwidth. *)
let roofline (d : Device.t) l ~flops ~bytes ~precision =
  let compute_ns = flops /. Device.effective_flops d precision *. 1e9 in
  let memory_ns = bytes /. (d.Device.memory_bandwidth *. 0.85) *. 1e9 in
  let waves =
    Float.of_int (grid_blocks l) /. Float.of_int d.Device.multi_processor_count
  in
  Float.max compute_ns memory_ns +. (Float.max 1.0 waves *. 500.0)

(* --- built-in kernels --- *)

let matrix_mul_name = "matrixMulCUDA"

let matrix_mul =
  let params = [ P_ptr; P_ptr; P_ptr; P_i32; P_i32 ] in
  let execute mem l =
    check_arity matrix_mul_name params l.args;
    let c = ptr_arg matrix_mul_name l.args 0 in
    let a = ptr_arg matrix_mul_name l.args 1 in
    let b = ptr_arg matrix_mul_name l.args 2 in
    let wa = i32_arg matrix_mul_name l.args 3 in
    let wb = i32_arg matrix_mul_name l.args 4 in
    (* row-major SGEMM: C[i,j] = Σk A[i,k] * B[k,j], summed in f64 and
       rounded to f32 once at the store *)
    Memory.matrix_mul mem ~c ~a ~b ~ha:(l.grid.y * l.block.y) ~wa ~wb
  in
  let cost d l =
    let wa = i32_arg matrix_mul_name l.args 3 in
    let wb = i32_arg matrix_mul_name l.args 4 in
    let ha = l.grid.y * l.block.y in
    let flops = 2.0 *. Float.of_int ha *. Float.of_int wa *. Float.of_int wb in
    let bytes = 4.0 *. Float.of_int ((ha * wa) + (wa * wb) + (ha * wb)) in
    roofline d l ~flops ~bytes ~precision:`F32
  in
  { name = matrix_mul_name; params; execute; cost }

let histogram256_name = "histogram256Kernel"

let histogram256 =
  let params = [ P_ptr; P_ptr; P_i32 ] in
  let execute mem l =
    check_arity histogram256_name params l.args;
    let bins = ptr_arg histogram256_name l.args 0 in
    let data = ptr_arg histogram256_name l.args 1 in
    let count = i32_arg histogram256_name l.args 2 in
    Memory.histogram256 mem ~bins ~data ~count
  in
  let cost d l =
    let count = Float.of_int (i32_arg histogram256_name l.args 2) in
    (* DRAM traffic is the byte stream; atomics stay in shared memory/L2 *)
    roofline d l ~flops:(2.0 *. count) ~bytes:count ~precision:`F32
  in
  { name = histogram256_name; params; execute; cost }

let merge_histogram256_name = "mergeHistogram256Kernel"

let merge_histogram256 =
  let params = [ P_ptr; P_ptr; P_i32 ] in
  let execute mem l =
    check_arity merge_histogram256_name params l.args;
    let out = ptr_arg merge_histogram256_name l.args 0 in
    let partials = ptr_arg merge_histogram256_name l.args 1 in
    let n = i32_arg merge_histogram256_name l.args 2 in
    Memory.merge_histogram256 mem ~out ~partials ~n
  in
  let cost d l =
    let n = Float.of_int (i32_arg merge_histogram256_name l.args 2) in
    roofline d l ~flops:(256.0 *. n) ~bytes:(4.0 *. 256.0 *. (n +. 1.0))
      ~precision:`F32
  in
  { name = merge_histogram256_name; params; execute; cost }

let vector_add_name = "vectorAdd"

let vector_add =
  let params = [ P_ptr; P_ptr; P_ptr; P_i32 ] in
  let execute mem l =
    check_arity vector_add_name params l.args;
    let a = ptr_arg vector_add_name l.args 0 in
    let b = ptr_arg vector_add_name l.args 1 in
    let c = ptr_arg vector_add_name l.args 2 in
    let n = i32_arg vector_add_name l.args 3 in
    Memory.span mem a (4 * n);
    Memory.span mem b (4 * n);
    Memory.span mem c (4 * n);
    for i = 0 to n - 1 do
      Memory.set_f32 mem
        (c + (4 * i))
        (Memory.get_f32 mem (a + (4 * i)) +. Memory.get_f32 mem (b + (4 * i)))
    done
  in
  let cost d l =
    let n = Float.of_int (i32_arg vector_add_name l.args 3) in
    roofline d l ~flops:n ~bytes:(12.0 *. n) ~precision:`F32
  in
  { name = vector_add_name; params; execute; cost }

let saxpy_name = "saxpy"

let saxpy =
  let params = [ P_f32; P_ptr; P_ptr; P_i32 ] in
  let execute mem l =
    check_arity saxpy_name params l.args;
    let a = f32_arg saxpy_name l.args 0 in
    let x = ptr_arg saxpy_name l.args 1 in
    let y = ptr_arg saxpy_name l.args 2 in
    let n = i32_arg saxpy_name l.args 3 in
    Memory.span mem x (4 * n);
    Memory.span mem y (4 * n);
    for i = 0 to n - 1 do
      Memory.set_f32 mem
        (y + (4 * i))
        ((a *. Memory.get_f32 mem (x + (4 * i)))
        +. Memory.get_f32 mem (y + (4 * i)))
    done
  in
  let cost d l =
    let n = Float.of_int (i32_arg saxpy_name l.args 3) in
    roofline d l ~flops:(2.0 *. n) ~bytes:(12.0 *. n) ~precision:`F32
  in
  { name = saxpy_name; params; execute; cost }

let reduce_sum_name = "reduceSum"

let reduce_sum =
  let params = [ P_ptr; P_ptr; P_i32 ] in
  let execute mem l =
    check_arity reduce_sum_name params l.args;
    let input = ptr_arg reduce_sum_name l.args 0 in
    let out = ptr_arg reduce_sum_name l.args 1 in
    let n = i32_arg reduce_sum_name l.args 2 in
    Memory.span mem input (4 * n);
    Memory.span mem out 4;
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. Memory.get_f32 mem (input + (4 * i))
    done;
    Memory.set_f32 mem out !acc
  in
  let cost d l =
    let n = Float.of_int (i32_arg reduce_sum_name l.args 2) in
    roofline d l ~flops:n ~bytes:(4.0 *. n) ~precision:`F32
  in
  { name = reduce_sum_name; params; execute; cost }

let transpose_name = "transpose"

let transpose =
  let params = [ P_ptr; P_ptr; P_i32; P_i32 ] in
  let execute mem l =
    check_arity transpose_name params l.args;
    let out = ptr_arg transpose_name l.args 0 in
    let input = ptr_arg transpose_name l.args 1 in
    let rows = i32_arg transpose_name l.args 2 in
    let cols = i32_arg transpose_name l.args 3 in
    let len = Memory.extent mem ~runs:rows ~ld:cols cols in
    Memory.span mem input len;
    Memory.span mem out len;
    for i = 0 to rows - 1 do
      for j = 0 to cols - 1 do
        Memory.set_f32 mem
          (out + (4 * ((j * rows) + i)))
          (Memory.get_f32 mem (input + (4 * ((i * cols) + j))))
      done
    done
  in
  let cost d l =
    let rows = Float.of_int (i32_arg transpose_name l.args 2) in
    let cols = Float.of_int (i32_arg transpose_name l.args 3) in
    roofline d l ~flops:0.0 ~bytes:(8.0 *. rows *. cols) ~precision:`F32
  in
  { name = transpose_name; params; execute; cost }

let fill_name = "fillKernel"

let fill =
  let params = [ P_ptr; P_f32; P_i32 ] in
  let execute mem l =
    check_arity fill_name params l.args;
    let x = ptr_arg fill_name l.args 0 in
    let v = f32_arg fill_name l.args 1 in
    let n = i32_arg fill_name l.args 2 in
    Memory.span mem x (4 * n);
    for i = 0 to n - 1 do
      Memory.set_f32 mem (x + (4 * i)) v
    done
  in
  let cost d l =
    let n = Float.of_int (i32_arg fill_name l.args 2) in
    roofline d l ~flops:0.0 ~bytes:(4.0 *. n) ~precision:`F32
  in
  { name = fill_name; params; execute; cost }

let nbody_name = "nbodyKernel"

let nbody =
  (* all-pairs gravity step over bodies stored as 4 floats (x, y, z, mass)
     with velocities as 4 floats (vx, vy, vz, pad); softened to avoid
     singularities, velocity-then-position Euler update *)
  let params = [ P_ptr; P_ptr; P_f32; P_i32 ] in
  let softening2 = 1e-4 in
  let execute mem l =
    check_arity nbody_name params l.args;
    let pos = ptr_arg nbody_name l.args 0 in
    let vel = ptr_arg nbody_name l.args 1 in
    let dt = f32_arg nbody_name l.args 2 in
    let n = i32_arg nbody_name l.args 3 in
    Memory.span mem pos (16 * n);
    (* the last velocity's pad word is never touched *)
    Memory.span mem vel ((16 * n) - 4);
    let px = Array.init n (fun i -> Memory.get_f32 mem (pos + (16 * i))) in
    let py = Array.init n (fun i -> Memory.get_f32 mem (pos + (16 * i) + 4)) in
    let pz = Array.init n (fun i -> Memory.get_f32 mem (pos + (16 * i) + 8)) in
    let m = Array.init n (fun i -> Memory.get_f32 mem (pos + (16 * i) + 12)) in
    for i = 0 to n - 1 do
      let ax = ref 0.0 and ay = ref 0.0 and az = ref 0.0 in
      for j = 0 to n - 1 do
        if j <> i then begin
          let dx = px.(j) -. px.(i)
          and dy = py.(j) -. py.(i)
          and dz = pz.(j) -. pz.(i) in
          let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. softening2 in
          let inv_r3 = 1.0 /. (r2 *. Float.sqrt r2) in
          ax := !ax +. (m.(j) *. dx *. inv_r3);
          ay := !ay +. (m.(j) *. dy *. inv_r3);
          az := !az +. (m.(j) *. dz *. inv_r3)
        end
      done;
      let vbase = vel + (16 * i) in
      Memory.set_f32 mem vbase (Memory.get_f32 mem vbase +. (!ax *. dt));
      Memory.set_f32 mem (vbase + 4)
        (Memory.get_f32 mem (vbase + 4) +. (!ay *. dt));
      Memory.set_f32 mem (vbase + 8)
        (Memory.get_f32 mem (vbase + 8) +. (!az *. dt))
    done;
    for i = 0 to n - 1 do
      let pbase = pos + (16 * i) and vbase = vel + (16 * i) in
      Memory.set_f32 mem pbase
        (Memory.get_f32 mem pbase +. (Memory.get_f32 mem vbase *. dt));
      Memory.set_f32 mem (pbase + 4)
        (Memory.get_f32 mem (pbase + 4)
        +. (Memory.get_f32 mem (vbase + 4) *. dt));
      Memory.set_f32 mem (pbase + 8)
        (Memory.get_f32 mem (pbase + 8)
        +. (Memory.get_f32 mem (vbase + 8) *. dt))
    done
  in
  let cost d l =
    let n = Float.of_int (i32_arg nbody_name l.args 3) in
    (* ~20 flops per pair interaction; positions fit in shared memory *)
    roofline d l ~flops:(20.0 *. n *. n) ~bytes:(32.0 *. n) ~precision:`F32
  in
  { name = nbody_name; params; execute; cost }

let () =
  List.iter register
    [
      matrix_mul; histogram256; merge_histogram256; vector_add; saxpy;
      reduce_sum; transpose; fill; nbody;
    ]
