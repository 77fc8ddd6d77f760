(* Tests for the CUDA API layer: device management, memory semantics and
   error codes, streams/events, module loading, launches, cuBLAS/cuSOLVER
   numerics, virtual-time charging, and checkpoint/restore. *)

module Time = Simnet.Time

let check = Alcotest.check

let make_ctx ?devices () =
  let engine = Simnet.Engine.create () in
  let ctx =
    Cudasim.Context.create ?devices ~memory_capacity:(1 lsl 26)
      (Cudasim.Context.engine_clock engine)
  in
  (engine, ctx)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected CUDA error: %s" (Cudasim.Error.to_string e)

let success = function
  | Cudasim.Error.Success -> ()
  | e -> Alcotest.failf "unexpected CUDA error: %s" (Cudasim.Error.to_string e)

(* --- device management --- *)

let test_device_management () =
  let _, ctx = make_ctx () in
  check Alcotest.int "count" 4 (Cudasim.Api.get_device_count ctx);
  check Alcotest.int "initial" 0 (Cudasim.Api.get_device ctx);
  success (Cudasim.Api.set_device ctx 3);
  check Alcotest.int "switched" 3 (Cudasim.Api.get_device ctx);
  (match Cudasim.Api.set_device ctx 4 with
  | Cudasim.Error.Invalid_device -> ()
  | e -> Alcotest.failf "expected Invalid_device, got %s" (Cudasim.Error.to_string e));
  let p = ok (Cudasim.Api.get_device_properties ctx 0) in
  check Alcotest.string "a100 name" "NVIDIA A100-PCIE-40GB"
    p.Cudasim.Api.name;
  check Alcotest.int "sms" 108 p.Cudasim.Api.multi_processor_count;
  match Cudasim.Api.get_device_properties ctx 9 with
  | Error Cudasim.Error.Invalid_device -> ()
  | _ -> Alcotest.fail "expected Invalid_device"

(* Out-of-range device selection — negative or past the catalog — is a
   typed [Invalid_device] at both the API and context layer, never an
   exception, and never moves the current-device cursor. *)
let test_device_selection_bounds () =
  let _, ctx = make_ctx () in
  success (Cudasim.Api.set_device ctx 1);
  List.iter
    (fun bad ->
      (match Cudasim.Api.set_device ctx bad with
      | Cudasim.Error.Invalid_device -> ()
      | e ->
          Alcotest.failf "Api.set_device %d: expected Invalid_device, got %s"
            bad (Cudasim.Error.to_string e));
      (match Cudasim.Context.set_current ctx bad with
      | Error Cudasim.Error.Invalid_device -> ()
      | Ok () -> Alcotest.failf "Context.set_current %d accepted" bad
      | Error e ->
          Alcotest.failf "Context.set_current %d: expected Invalid_device, got %s"
            bad (Cudasim.Error.to_string e));
      check Alcotest.bool
        (Printf.sprintf "gpu_at %d is None" bad)
        true
        (Cudasim.Context.gpu_at ctx bad = None);
      check Alcotest.int "cursor unmoved" 1 (Cudasim.Api.get_device ctx))
    [ -1; min_int; 4; 99 ]

let test_error_code_mapping () =
  List.iter
    (fun e ->
      check Alcotest.bool "roundtrip" true
        (Cudasim.Error.of_code (Cudasim.Error.code e) = e))
    [
      Cudasim.Error.Success; Cudasim.Error.Invalid_value;
      Cudasim.Error.Memory_allocation; Cudasim.Error.Invalid_device;
      Cudasim.Error.Invalid_handle; Cudasim.Error.Not_found;
      Cudasim.Error.Not_ready; Cudasim.Error.Launch_failure;
      Cudasim.Error.Unknown;
    ];
  check Alcotest.int "success is 0" 0 (Cudasim.Error.code Cudasim.Error.Success);
  check Alcotest.int "launch failure is 719" 719
    (Cudasim.Error.code Cudasim.Error.Launch_failure)

(* --- memory --- *)

let test_memory_api () =
  let _, ctx = make_ctx () in
  let p = ok (Cudasim.Api.malloc ctx 4096L) in
  check Alcotest.bool "nonzero ptr" true (p <> 0L);
  let data = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
  success (Cudasim.Api.memcpy_h2d ctx ~dst:p data);
  let back = ok (Cudasim.Api.memcpy_d2h ctx ~src:p ~len:4096L) in
  check Alcotest.bool "roundtrip" true (Bytes.equal data back);
  success (Cudasim.Api.memset ctx ~ptr:p ~value:0 ~len:4096L);
  let zero = ok (Cudasim.Api.memcpy_d2h ctx ~src:p ~len:16L) in
  check Alcotest.bool "memset" true (Bytes.equal zero (Bytes.make 16 '\000'));
  let q = ok (Cudasim.Api.malloc ctx 4096L) in
  success (Cudasim.Api.memcpy_h2d ctx ~dst:q data);
  success (Cudasim.Api.memcpy_d2d ctx ~dst:p ~src:q ~len:4096L);
  check Alcotest.bool "d2d" true
    (Bytes.equal data (ok (Cudasim.Api.memcpy_d2h ctx ~src:p ~len:4096L)));
  success (Cudasim.Api.free ctx p);
  (match Cudasim.Api.free ctx p with
  | Cudasim.Error.Invalid_value -> ()
  | e -> Alcotest.failf "double free: %s" (Cudasim.Error.to_string e));
  (match Cudasim.Api.malloc ctx (-1L) with
  | Error Cudasim.Error.Invalid_value -> ()
  | _ -> Alcotest.fail "negative malloc");
  match Cudasim.Api.malloc ctx (Int64.of_int (1 lsl 30)) with
  | Error Cudasim.Error.Memory_allocation -> ()
  | _ -> Alcotest.fail "expected OOM"

let test_mem_get_info () =
  let _, ctx = make_ctx () in
  let free0, total = Cudasim.Api.mem_get_info ctx in
  let _ = ok (Cudasim.Api.malloc ctx 65536L) in
  let free1, total' = Cudasim.Api.mem_get_info ctx in
  check Alcotest.int64 "total stable" total total';
  check Alcotest.bool "free decreased" true (Int64.compare free1 free0 < 0)

(* --- time charging --- *)

let test_time_charging () =
  let engine, ctx = make_ctx () in
  let t0 = Simnet.Engine.now engine in
  ignore (Cudasim.Api.get_device_count ctx);
  let t1 = Simnet.Engine.now engine in
  check Alcotest.bool "api call costs time" true (Time.compare t1 t0 > 0);
  (* bigger memcpys cost more virtual time *)
  let p = ok (Cudasim.Api.malloc ctx (Int64.of_int (8 lsl 20))) in
  let cost n =
    let before = Simnet.Engine.now engine in
    success (Cudasim.Api.memcpy_h2d ctx ~dst:p (Bytes.create n));
    Time.sub (Simnet.Engine.now engine) before
  in
  let small = cost 4096 in
  let large = cost (8 lsl 20) in
  check Alcotest.bool "pcie time scales" true
    (Time.compare large small > 0);
  (* 8 MiB at 22 GB/s is ~380 us *)
  check Alcotest.bool "plausible transfer time" true
    (Time.to_float_us large > 200.0 && Time.to_float_us large < 2_000.0)

(* --- streams and events --- *)

let test_stream_event_api () =
  let _, ctx = make_ctx () in
  let s = Cudasim.Api.stream_create ctx in
  success (Cudasim.Api.stream_synchronize ctx s);
  success (Cudasim.Api.stream_destroy ctx s);
  (match Cudasim.Api.stream_destroy ctx s with
  | Cudasim.Error.Invalid_handle -> ()
  | e -> Alcotest.failf "stale stream: %s" (Cudasim.Error.to_string e));
  let e1 = Cudasim.Api.event_create ctx in
  let e2 = Cudasim.Api.event_create ctx in
  success (Cudasim.Api.event_record ctx ~event:e1 ~stream:0L);
  success (Cudasim.Api.event_record ctx ~event:e2 ~stream:0L);
  success (Cudasim.Api.event_synchronize ctx e2);
  let ms = ok (Cudasim.Api.event_elapsed_ms ctx ~start:e1 ~stop:e2) in
  check Alcotest.bool "elapsed >= 0" true (ms >= 0.0);
  success (Cudasim.Api.event_destroy ctx e1);
  match Cudasim.Api.event_elapsed_ms ctx ~start:e1 ~stop:e2 with
  | Error Cudasim.Error.Invalid_handle -> ()
  | _ -> Alcotest.fail "destroyed event"

(* --- module API --- *)

let std_image () =
  Cubin.Image.of_registry
    [ Gpusim.Kernels.vector_add_name; Gpusim.Kernels.fill_name ]

let test_module_load_launch () =
  let _, ctx = make_ctx () in
  let image = std_image () in
  let modul = ok (Cudasim.Api.module_load_data ctx (Cubin.Image.build image)) in
  let f =
    ok (Cudasim.Api.module_get_function ctx ~modul
          ~name:Gpusim.Kernels.fill_name)
  in
  (match Cudasim.Api.module_get_function ctx ~modul ~name:"missing" with
  | Error Cudasim.Error.Not_found -> ()
  | _ -> Alcotest.fail "missing kernel");
  let n = 256 in
  let p = ok (Cudasim.Api.malloc ctx (Int64.of_int (4 * n))) in
  let info = Option.get (Cubin.Image.find_kernel image Gpusim.Kernels.fill_name) in
  let params =
    match
      Cubin.Image.pack_args info
        [| Gpusim.Kernels.Ptr (Int64.to_int p); Gpusim.Kernels.F32 2.5;
           Gpusim.Kernels.I32 (Int32.of_int n) |]
    with
    | Ok b -> b
    | Error e -> Alcotest.fail e
  in
  success
    (Cudasim.Api.launch_kernel ctx
       {
         Cudasim.Api.function_handle = f;
         grid = { Gpusim.Kernels.x = 1; y = 1; z = 1 };
         block = { Gpusim.Kernels.x = 256; y = 1; z = 1 };
         shared_mem_bytes = 0;
         stream = 0L;
       }
       ~params);
  success (Cudasim.Api.device_synchronize ctx);
  let back = ok (Cudasim.Api.memcpy_d2h ctx ~src:p ~len:16L) in
  check (Alcotest.float 0.0) "kernel wrote" 2.5
    (Int32.float_of_bits (Bytes.get_int32_le back 0));
  (* bad params length -> invalid value *)
  (match
     Cudasim.Api.launch_kernel ctx
       {
         Cudasim.Api.function_handle = f;
         grid = { Gpusim.Kernels.x = 1; y = 1; z = 1 };
         block = { Gpusim.Kernels.x = 1; y = 1; z = 1 };
         shared_mem_bytes = 0;
         stream = 0L;
       }
       ~params:(Bytes.create 2)
   with
  | Cudasim.Error.Invalid_value -> ()
  | e -> Alcotest.failf "bad params: %s" (Cudasim.Error.to_string e));
  success (Cudasim.Api.module_unload ctx modul);
  match Cudasim.Api.module_get_function ctx ~modul ~name:Gpusim.Kernels.fill_name with
  | Error Cudasim.Error.Invalid_handle -> ()
  | _ -> Alcotest.fail "unloaded module"

let test_module_load_compressed_and_fatbin () =
  let _, ctx = make_ctx () in
  let image = std_image () in
  (* compressed standalone cubin *)
  let m1 = ok (Cudasim.Api.module_load_data ctx (Cubin.Image.build ~compress:true image)) in
  check Alcotest.bool "compressed loads" true (m1 <> 0L);
  (* fatbin: picks the sm_80 image on the A100 *)
  let old_arch = Cubin.Image.build { image with Cubin.Image.arch = (6, 1) } in
  let new_arch = Cubin.Image.build { image with Cubin.Image.arch = (8, 0) } in
  let fat =
    Cubin.Fatbin.build
      { Cubin.Fatbin.images = [ ((6, 1), old_arch); ((8, 0), new_arch) ] }
  in
  let m2 = ok (Cudasim.Api.module_load_data ctx fat) in
  check Alcotest.bool "fatbin loads" true (m2 <> 0L);
  (* garbage data *)
  (match Cudasim.Api.module_load_data ctx "not a module" with
  | Error Cudasim.Error.Invalid_value -> ()
  | _ -> Alcotest.fail "garbage module");
  (* fatbin with no compatible arch: P40 is 6.1, give only 8.0 *)
  success (Cudasim.Api.set_device ctx 3);
  let fat80 =
    Cubin.Fatbin.build { Cubin.Fatbin.images = [ ((8, 0), new_arch) ] }
  in
  match Cudasim.Api.module_load_data ctx fat80 with
  | Error Cudasim.Error.Invalid_value -> ()
  | _ -> Alcotest.fail "incompatible fatbin"

let test_module_globals () =
  let _, ctx = make_ctx () in
  let image =
    { (std_image ()) with
      Cubin.Image.globals =
        [ { Cubin.Image.name = "g_x"; size = 8;
            init = Some (Bytes.of_string "\x01\x02\x03\x04\x05\x06\x07\x08") } ] }
  in
  let modul = ok (Cudasim.Api.module_load_data ctx (Cubin.Image.build image)) in
  let ptr, size = ok (Cudasim.Api.module_get_global ctx ~modul ~name:"g_x") in
  check Alcotest.int64 "size" 8L size;
  let v = ok (Cudasim.Api.memcpy_d2h ctx ~src:ptr ~len:8L) in
  check Alcotest.string "init data" "\x01\x02\x03\x04\x05\x06\x07\x08"
    (Bytes.to_string v);
  (* idempotent: same pointer on second lookup *)
  let ptr2, _ = ok (Cudasim.Api.module_get_global ctx ~modul ~name:"g_x") in
  check Alcotest.int64 "stable ptr" ptr ptr2;
  match Cudasim.Api.module_get_global ctx ~modul ~name:"nope" with
  | Error Cudasim.Error.Not_found -> ()
  | _ -> Alcotest.fail "missing global"

(* --- cuBLAS --- *)

let upload_f32 ctx ptr a =
  let b = Bytes.create (4 * Array.length a) in
  Array.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.bits_of_float v)) a;
  success (Cudasim.Api.memcpy_h2d ctx ~dst:ptr b)

let download_f32 ctx ptr n =
  let b = ok (Cudasim.Api.memcpy_d2h ctx ~src:ptr ~len:(Int64.of_int (4 * n))) in
  Array.init n (fun i -> Int32.float_of_bits (Bytes.get_int32_le b (4 * i)))

let test_cublas_sgemm () =
  let _, ctx = make_ctx () in
  let h = Cudasim.Cublas.create ctx in
  (* column-major 2x2: A = [1 3; 2 4] (stored 1 2 3 4), B = I *)
  let a = ok (Cudasim.Api.malloc ctx 16L) in
  let b = ok (Cudasim.Api.malloc ctx 16L) in
  let c = ok (Cudasim.Api.malloc ctx 16L) in
  upload_f32 ctx a [| 1.; 2.; 3.; 4. |];
  upload_f32 ctx b [| 1.; 0.; 0.; 1. |];
  upload_f32 ctx c [| 100.; 100.; 100.; 100. |];
  success
    (Cudasim.Cublas.sgemm ctx
       { Cudasim.Cublas.handle = h; m = 2; n = 2; k = 2; alpha = 2.0; a;
         lda = 2; b; ldb = 2; beta = 0.5; c; ldc = 2 });
  success (Cudasim.Api.device_synchronize ctx);
  let r = download_f32 ctx c 4 in
  (* 2*A*I + 0.5*C0 = [52 54; 56 58] col-major *)
  check Alcotest.bool "sgemm" true
    (r = [| 52.; 54.; 56.; 58. |]);
  (* invalid handle *)
  (match
     Cudasim.Cublas.sgemm ctx
       { Cudasim.Cublas.handle = 999L; m = 1; n = 1; k = 1; alpha = 1.0; a;
         lda = 1; b; ldb = 1; beta = 0.0; c; ldc = 1 }
   with
  | Cudasim.Error.Invalid_handle -> ()
  | e -> Alcotest.failf "handle: %s" (Cudasim.Error.to_string e));
  success (Cudasim.Cublas.destroy ctx h);
  match Cudasim.Cublas.destroy ctx h with
  | Cudasim.Error.Invalid_handle -> ()
  | _ -> Alcotest.fail "double destroy"

let test_cublas_l1_l2 () =
  let _, ctx = make_ctx () in
  let h = Cudasim.Cublas.create ctx in
  let n = 8 in
  let x = ok (Cudasim.Api.malloc ctx 32L) in
  let y = ok (Cudasim.Api.malloc ctx 32L) in
  upload_f32 ctx x (Array.make n 3.0);
  upload_f32 ctx y (Array.init n (fun i -> Float.of_int i));
  (* sdot = 3 * (0+..+7) = 84 *)
  check (Alcotest.float 1e-4) "sdot" 84.0
    (ok (Cudasim.Cublas.sdot ctx ~handle:h ~n ~x ~incx:1 ~y ~incy:1));
  check (Alcotest.float 1e-4) "snrm2" (3.0 *. Float.sqrt 8.0)
    (ok (Cudasim.Cublas.snrm2 ctx ~handle:h ~n ~x ~incx:1));
  success (Cudasim.Cublas.sscal ctx ~handle:h ~n ~alpha:(-2.0) ~x ~incx:1);
  check (Alcotest.float 1e-4) "sdot after scal" (-168.0)
    (ok (Cudasim.Cublas.sdot ctx ~handle:h ~n ~x ~incx:1 ~y ~incy:1));
  (* sgemv with a 2x2 matrix and strided vectors *)
  let a = ok (Cudasim.Api.malloc ctx 16L) in
  upload_f32 ctx a [| 1.; 2.; 3.; 4. |] (* col-major [[1 3];[2 4]] *);
  let vx = ok (Cudasim.Api.malloc ctx 16L) in
  let vy = ok (Cudasim.Api.malloc ctx 16L) in
  upload_f32 ctx vx [| 1.; 0.; 1.; 0. |] (* incx = 2: picks 1., 1. *);
  upload_f32 ctx vy [| 0.; 0.; 0.; 0. |];
  success
    (Cudasim.Cublas.sgemv ctx
       { Cudasim.Cublas.gv_handle = h; gv_m = 2; gv_n = 2; gv_alpha = 1.0;
         gv_a = a; gv_lda = 2; gv_x = vx; gv_incx = 2; gv_beta = 0.0;
         gv_y = vy; gv_incy = 2 });
  let r = download_f32 ctx vy 4 in
  check (Alcotest.float 1e-5) "gemv[0]" 4.0 r.(0) (* 1+3 *);
  check (Alcotest.float 1e-5) "gemv[1] untouched (stride)" 0.0 r.(1);
  check (Alcotest.float 1e-5) "gemv[2]" 6.0 r.(2) (* 2+4 *);
  (* errors *)
  (match Cudasim.Cublas.sdot ctx ~handle:999L ~n ~x ~incx:1 ~y ~incy:1 with
  | Error Cudasim.Error.Invalid_handle -> ()
  | _ -> Alcotest.fail "bad handle");
  match Cudasim.Cublas.sdot ctx ~handle:h ~n ~x ~incx:0 ~y ~incy:1 with
  | Error Cudasim.Error.Invalid_value -> ()
  | _ -> Alcotest.fail "incx=0"

(* --- cuSOLVER --- *)

let test_cusolver_lu_solve () =
  let _, ctx = make_ctx () in
  let h = Cudasim.Cusolver.create ctx in
  let n = 16 in
  (* build a well-conditioned column-major system with known solution *)
  let a = Array.make (n * n) 0.0 in
  let state = ref 7 in
  for j = 0 to n - 1 do
    for i = 0 to n - 1 do
      state := (!state * 1103515245 + 12345) land 0x3fffffff;
      a.((j * n) + i) <- (Float.of_int (!state land 0xff) /. 256.0) -. 0.5
    done
  done;
  for i = 0 to n - 1 do
    a.((i * n) + i) <- a.((i * n) + i) +. 8.0
  done;
  let x_true = Array.init n (fun i -> Float.of_int (i + 1)) in
  let b = Array.make n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      b.(i) <- b.(i) +. (a.((j * n) + i) *. x_true.(j))
    done
  done;
  let d_a = ok (Cudasim.Api.malloc ctx (Int64.of_int (4 * n * n))) in
  let d_b = ok (Cudasim.Api.malloc ctx (Int64.of_int (4 * n))) in
  upload_f32 ctx d_a a;
  upload_f32 ctx d_b b;
  let lwork =
    ok (Cudasim.Cusolver.sgetrf_buffer_size ctx ~handle:h ~m:n ~n ~a:d_a ~lda:n)
  in
  check Alcotest.bool "lwork > 0" true (lwork > 0);
  let d_work = ok (Cudasim.Api.malloc ctx (Int64.of_int (4 * lwork))) in
  let d_ipiv = ok (Cudasim.Api.malloc ctx (Int64.of_int (4 * n))) in
  let info =
    ok (Cudasim.Cusolver.sgetrf ctx ~handle:h ~m:n ~n ~a:d_a ~lda:n
          ~workspace:d_work ~ipiv:d_ipiv)
  in
  check Alcotest.int "getrf info" 0 info;
  let info =
    ok (Cudasim.Cusolver.sgetrs ctx ~handle:h ~n ~nrhs:1 ~a:d_a ~lda:n
          ~ipiv:d_ipiv ~b:d_b ~ldb:n)
  in
  check Alcotest.int "getrs info" 0 info;
  success (Cudasim.Api.device_synchronize ctx);
  let x = download_f32 ctx d_b n in
  Array.iteri
    (fun i v ->
      if Float.abs (v -. x_true.(i)) > 1e-2 then
        Alcotest.failf "x[%d] = %f, expected %f" i v x_true.(i))
    x

let test_cusolver_singular () =
  let _, ctx = make_ctx () in
  let h = Cudasim.Cusolver.create ctx in
  let n = 4 in
  let d_a = ok (Cudasim.Api.malloc ctx (Int64.of_int (4 * n * n))) in
  upload_f32 ctx d_a (Array.make (n * n) 0.0);
  let d_work = ok (Cudasim.Api.malloc ctx 64L) in
  let d_ipiv = ok (Cudasim.Api.malloc ctx 16L) in
  let info =
    ok (Cudasim.Cusolver.sgetrf ctx ~handle:h ~m:n ~n ~a:d_a ~lda:n
          ~workspace:d_work ~ipiv:d_ipiv)
  in
  check Alcotest.int "singular detected at step 1" 1 info

let test_cusolver_invalid_args () =
  let _, ctx = make_ctx () in
  let h = Cudasim.Cusolver.create ctx in
  (match Cudasim.Cusolver.sgetrf_buffer_size ctx ~handle:h ~m:0 ~n:4 ~a:0L ~lda:4 with
  | Error Cudasim.Error.Invalid_value -> ()
  | _ -> Alcotest.fail "m=0");
  match Cudasim.Cusolver.sgetrs ctx ~handle:999L ~n:4 ~nrhs:1 ~a:0L ~lda:4 ~ipiv:0L ~b:0L ~ldb:4 with
  | Error Cudasim.Error.Invalid_handle -> ()
  | _ -> Alcotest.fail "bad handle"

(* --- functional switch --- *)

let test_functional_switch () =
  let engine, ctx = make_ctx () in
  Cudasim.Context.set_functional ctx false;
  let image = std_image () in
  let modul = ok (Cudasim.Api.module_load_data ctx (Cubin.Image.build image)) in
  let f = ok (Cudasim.Api.module_get_function ctx ~modul ~name:Gpusim.Kernels.fill_name) in
  let p = ok (Cudasim.Api.malloc ctx 1024L) in
  let info = Option.get (Cubin.Image.find_kernel image Gpusim.Kernels.fill_name) in
  let params =
    Result.get_ok
      (Cubin.Image.pack_args info
         [| Gpusim.Kernels.Ptr (Int64.to_int p); Gpusim.Kernels.F32 9.0;
            Gpusim.Kernels.I32 256l |])
  in
  let t0 = Simnet.Engine.now engine in
  success
    (Cudasim.Api.launch_kernel ctx
       { Cudasim.Api.function_handle = f;
         grid = { Gpusim.Kernels.x = 1; y = 1; z = 1 };
         block = { Gpusim.Kernels.x = 256; y = 1; z = 1 };
         shared_mem_bytes = 0; stream = 0L }
       ~params);
  success (Cudasim.Api.device_synchronize ctx);
  check Alcotest.bool "time still charged" true
    (Time.compare (Simnet.Engine.now engine) t0 > 0);
  let back = ok (Cudasim.Api.memcpy_d2h ctx ~src:p ~len:4L) in
  check Alcotest.int32 "memory untouched" 0l (Bytes.get_int32_le back 0)

(* --- checkpoint / restore --- *)

let test_checkpoint_restore () =
  let _, ctx = make_ctx () in
  let image = std_image () in
  let modul = ok (Cudasim.Api.module_load_data ctx (Cubin.Image.build image)) in
  let f = ok (Cudasim.Api.module_get_function ctx ~modul ~name:Gpusim.Kernels.fill_name) in
  let p = ok (Cudasim.Api.malloc ctx 1024L) in
  success (Cudasim.Api.memcpy_h2d ctx ~dst:p (Bytes.make 1024 '\x7e'));
  let h = Cudasim.Cublas.create ctx in
  let snapshot = Cudasim.Context.checkpoint ctx in
  (* mutate everything *)
  success (Cudasim.Api.memset ctx ~ptr:p ~value:0 ~len:1024L);
  success (Cudasim.Api.free ctx p);
  success (Cudasim.Cublas.destroy ctx h);
  success (Cudasim.Api.module_unload ctx modul);
  (* restore *)
  (match Cudasim.Context.restore ctx snapshot with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let back = ok (Cudasim.Api.memcpy_d2h ctx ~src:p ~len:1024L) in
  check Alcotest.bool "memory restored" true
    (Bytes.equal back (Bytes.make 1024 '\x7e'));
  (* module and function handles still valid; kernel still launches *)
  let info = Option.get (Cubin.Image.find_kernel image Gpusim.Kernels.fill_name) in
  let params =
    Result.get_ok
      (Cubin.Image.pack_args info
         [| Gpusim.Kernels.Ptr (Int64.to_int p); Gpusim.Kernels.F32 1.0;
            Gpusim.Kernels.I32 16l |])
  in
  success
    (Cudasim.Api.launch_kernel ctx
       { Cudasim.Api.function_handle = f;
         grid = { Gpusim.Kernels.x = 1; y = 1; z = 1 };
         block = { Gpusim.Kernels.x = 16; y = 1; z = 1 };
         shared_mem_bytes = 0; stream = 0L }
       ~params);
  (* cublas handle restored *)
  success (Cudasim.Cublas.destroy ctx h);
  match Cudasim.Context.restore ctx "garbage" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "garbage checkpoint accepted"

(* A functional sgemm allocates a handful of words for the call and the
   launch, none per element: 128x128 costs what 64x64 does. *)
let test_cublas_sgemm_allocation () =
  let _, ctx = make_ctx () in
  let h = Cudasim.Cublas.create ctx in
  let words n =
    let bytes = Int64.of_int (4 * n * n) in
    let a = ok (Cudasim.Api.malloc ctx bytes) and b = ok (Cudasim.Api.malloc ctx bytes) in
    let c = ok (Cudasim.Api.malloc ctx bytes) in
    let args =
      { Cudasim.Cublas.handle = h; m = n; n; k = n; alpha = 1.0; a; lda = n; b;
        ldb = n; beta = 0.5; c; ldc = n }
    in
    success (Cudasim.Cublas.sgemm ctx args);
    let w0 = Gc.minor_words () in
    success (Cudasim.Cublas.sgemm ctx args);
    let w = Gc.minor_words () -. w0 in
    List.iter (fun p -> success (Cudasim.Api.free ctx p)) [ a; b; c ];
    w
  in
  let small = words 64 in
  let large = words 128 in
  check Alcotest.bool
    (Printf.sprintf "sgemm 64x64 %.0f words, 128x128 %.0f words" small large)
    true
    (small <= 200. && large = small)

(* Library routines running on the device admit their operands first: an
   operand outside device memory is Invalid_value, and the call changes
   nothing, even when another operand was valid and already computed. *)
let test_library_operands_outside_memory () =
  let _, ctx = make_ctx () in
  let blas = Cudasim.Cublas.create ctx and solver = Cudasim.Cusolver.create ctx in
  let n = 4 in
  let x = ok (Cudasim.Api.malloc ctx 64L) and a = ok (Cudasim.Api.malloc ctx 64L) in
  upload_f32 ctx x (Array.init 16 Float.of_int);
  upload_f32 ctx a (Array.init 16 (fun i -> if i mod 5 = 0 then 2.0 else 0.5));
  let contents () = (download_f32 ctx x 16, download_f32 ctx a 16) in
  let before = contents () in
  let invalid what = function
    | Error Cudasim.Error.Invalid_value -> ()
    | _ -> Alcotest.failf "%s: accepted" what
  in
  let status = function Cudasim.Error.Success -> Ok () | e -> Error e in
  List.iter
    (fun (what, bad) ->
      invalid ("sdot " ^ what)
        (Cudasim.Cublas.sdot ctx ~handle:blas ~n ~x ~incx:1 ~y:bad ~incy:1
        |> Result.map ignore);
      invalid ("sscal " ^ what)
        (status (Cudasim.Cublas.sscal ctx ~handle:blas ~n ~alpha:2.0 ~x:bad ~incx:1));
      invalid ("sgemm " ^ what)
        (status
           (Cudasim.Cublas.sgemm ctx
              { Cudasim.Cublas.handle = blas; m = n; n; k = n; alpha = 1.0; a;
                lda = n; b = x; ldb = n; beta = 0.0; c = bad; ldc = n }));
      (* A is factored before the pivots are stored: a bad ipiv must not
         leave A half-written *)
      invalid ("sgetrf " ^ what)
        (Cudasim.Cusolver.sgetrf ctx ~handle:solver ~m:n ~n ~a ~lda:n
           ~workspace:x ~ipiv:bad
        |> Result.map ignore))
    [ ("before memory", -4096L); ("past memory", Int64.shift_left 1L 40) ];
  (* these routines address element i at x + 4·i·incx, so a negative
     stride walks down from x: admitted from x's fourth element, rejected
     from address 0 *)
  check (Alcotest.float 1e-4) "negative stride" 14.0
    (ok (Cudasim.Cublas.snrm2 ctx ~handle:blas ~n:4 ~x:(Int64.add x 12L) ~incx:(-1))
     ** 2.0);
  invalid "snrm2 below memory"
    (Cudasim.Cublas.snrm2 ctx ~handle:blas ~n:4 ~x:0L ~incx:(-1)
    |> Result.map ignore);
  check Alcotest.bool "nothing changed" true (before = contents ())

let suite =
  [
    Alcotest.test_case "device management" `Quick test_device_management;
    Alcotest.test_case "device selection bounds" `Quick
      test_device_selection_bounds;
    Alcotest.test_case "error code mapping" `Quick test_error_code_mapping;
    Alcotest.test_case "memory API" `Quick test_memory_api;
    Alcotest.test_case "mem_get_info" `Quick test_mem_get_info;
    Alcotest.test_case "virtual-time charging" `Quick test_time_charging;
    Alcotest.test_case "streams and events" `Quick test_stream_event_api;
    Alcotest.test_case "module load + launch" `Quick test_module_load_launch;
    Alcotest.test_case "compressed cubin + fatbin" `Quick
      test_module_load_compressed_and_fatbin;
    Alcotest.test_case "module globals" `Quick test_module_globals;
    Alcotest.test_case "cuBLAS sgemm" `Quick test_cublas_sgemm;
    Alcotest.test_case "cuBLAS L1/L2" `Quick test_cublas_l1_l2;
    Alcotest.test_case "cuSOLVER LU solve" `Quick test_cusolver_lu_solve;
    Alcotest.test_case "cuSOLVER singular matrix" `Quick test_cusolver_singular;
    Alcotest.test_case "cuSOLVER invalid args" `Quick test_cusolver_invalid_args;
    Alcotest.test_case "functional switch" `Quick test_functional_switch;
    Alcotest.test_case "checkpoint/restore" `Quick test_checkpoint_restore;
    Alcotest.test_case "cuBLAS sgemm allocation is size-independent" `Quick
      test_cublas_sgemm_allocation;
    Alcotest.test_case "library operands outside memory" `Quick
      test_library_operands_outside_memory;
  ]
