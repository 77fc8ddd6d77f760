(* Tests for the proxy applications and their shared helpers: workload
   utilities, app verification (positive and negative), bandwidth and
   micro-benchmark result plumbing. *)

module Time = Simnet.Time

let check = Alcotest.check

(* --- workload helpers --- *)

let test_f32_roundtrip () =
  (* values exactly representable in binary32 *)
  let a = [| 0.0; 1.5; -2.25; 65536.0; -0.0078125 |] in
  check Alcotest.bool "roundtrip" true (Apps.Workload.f32_array (Apps.Workload.f32_bytes a) = a)

let test_xorshift_deterministic () =
  let a = Apps.Workload.xorshift_bytes ~seed:42 1000 in
  let b = Apps.Workload.xorshift_bytes ~seed:42 1000 in
  let c = Apps.Workload.xorshift_bytes ~seed:43 1000 in
  check Alcotest.bool "same seed, same stream" true (Bytes.equal a b);
  check Alcotest.bool "different seed differs" false (Bytes.equal a c);
  (* rough uniformity: all byte values occur in a large sample *)
  let big = Apps.Workload.xorshift_bytes ~seed:7 (1 lsl 16) in
  let seen = Array.make 256 false in
  Bytes.iter (fun ch -> seen.(Char.code ch) <- true) big;
  check Alcotest.bool "covers byte range" true (Array.for_all Fun.id seen)

(* The generator and the reference histogram as they were first written,
   one closure call per byte: the loops must reproduce them exactly. *)
let closure_xorshift_bytes ~seed n =
  let state = ref (if seed = 0 then 0x9e3779b9 else seed land 0x3fffffff) in
  let next () =
    let x = !state in
    let x = x lxor (x lsl 13) land 0x3fffffff in
    let x = x lxor (x lsr 17) in
    let x = x lxor (x lsl 5) land 0x3fffffff in
    state := x;
    x
  in
  Bytes.init n (fun _ -> Char.chr (next () land 0xff))

let closure_histogram data =
  let counts = Array.make 256 0 in
  Bytes.iter (fun c -> counts.(Char.code c) <- counts.(Char.code c) + 1) data;
  counts

let test_loops_match_closures () =
  List.iter
    (fun seed ->
      let lengths = List.init 4100 Fun.id @ [ 1 lsl 20 ] in
      List.iter
        (fun n ->
          let got = Apps.Workload.xorshift_bytes ~seed n in
          let want = closure_xorshift_bytes ~seed n in
          if not (Bytes.equal got want) then
            Alcotest.failf "xorshift_bytes ~seed:%d %d differs" seed n;
          if Apps.Histogram.reference_histogram got <> closure_histogram want
          then Alcotest.failf "reference_histogram (seed %d, %d bytes)" seed n)
        lengths)
    [ 0; 1; 42; max_int ]

let test_approx_equal () =
  check Alcotest.bool "close" true (Apps.Workload.approx_equal 1.0 1.00005);
  check Alcotest.bool "far" false (Apps.Workload.approx_equal 1.0 1.1);
  check Alcotest.bool "relative" true
    (Apps.Workload.approx_equal 1e6 (1e6 +. 50.0))

(* --- app verification catches wrong numerics --- *)

let test_matrix_mul_detects_corruption () =
  (* running non-functionally (kernels don't execute) must fail verify *)
  match
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Matrix_mul.run ~verify:true
         { Apps.Matrix_mul.ha = 32; wa = 32; wb = 32; iterations = 1 })
  with
  | _ -> Alcotest.fail "verification should have failed"
  | exception Failure _ -> ()

let test_histogram_detects_corruption () =
  match
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Histogram.run ~verify:true
         { Apps.Histogram.data_bytes = 4096; iterations = 1 })
  with
  | _ -> Alcotest.fail "verification should have failed"
  | exception Failure _ -> ()

let test_linear_solver_detects_corruption () =
  match
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Linear_solver.run ~verify:true
         { Apps.Linear_solver.n = 32; iterations = 1 })
  with
  | _ -> Alcotest.fail "verification should have failed"
  | exception Failure _ -> ()

let test_bandwidth_verify_roundtrip () =
  ignore
    (Unikernel.Runner.run ~functional:true Unikernel.Config.rust_native
       (fun env ->
         let h2d, d2h = Apps.Bandwidth.run env in
         check Alcotest.bool "h2d positive" true (h2d.Apps.Bandwidth.mib_per_s > 0.0);
         check Alcotest.bool "d2h positive" true (d2h.Apps.Bandwidth.mib_per_s > 0.0)))

(* --- workload profiles --- *)

let test_matrix_mul_dims_validation () =
  match
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Matrix_mul.run ~verify:false
         { Apps.Matrix_mul.ha = 33; wa = 32; wb = 32; iterations = 1 })
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_bandwidth_chunking () =
  ignore
    (Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
       (fun env ->
         let r =
           Apps.Bandwidth.measure ~total_bytes:(10 lsl 20)
             ~chunk_bytes:(4 lsl 20) Apps.Bandwidth.Host_to_device env
         in
         (* rounds up to whole chunks *)
         check Alcotest.int "bytes" (12 lsl 20) r.Apps.Bandwidth.bytes;
         check Alcotest.bool "time positive" true
           (Time.compare r.Apps.Bandwidth.elapsed Time.zero > 0)))

let test_micro_results () =
  ignore
    (Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
       (fun env ->
         let r = Apps.Micro.run ~calls:100 Apps.Micro.Malloc_free env in
         check Alcotest.int "calls" 100 r.Apps.Micro.calls;
         check Alcotest.bool "per-call derived" true
           (Float.abs
              (r.Apps.Micro.ns_per_call
              -. (Int64.to_float r.Apps.Micro.elapsed /. 100.0))
           < 1.0);
         (* malloc/free pair costs more than a plain query *)
         let q = Apps.Micro.run ~calls:100 Apps.Micro.Get_device_count env in
         check Alcotest.bool "pair costs more" true
           (r.Apps.Micro.ns_per_call > q.Apps.Micro.ns_per_call)))

let test_micro_launch_leaves_no_garbage () =
  ignore
    (Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
       (fun env ->
         let server = env.Unikernel.Runner.server in
         let mem =
           Gpusim.Gpu.memory
             (Cudasim.Context.gpu (Cricket.Server.context server))
         in
         let before = Gpusim.Memory.live_allocations mem in
         ignore (Apps.Micro.run ~calls:50 Apps.Micro.Kernel_launch env);
         check Alcotest.int "allocations released" before
           (Gpusim.Memory.live_allocations mem)))

(* --- determinism: identical runs give identical virtual times --- *)

let test_determinism () =
  let run () =
    (Unikernel.Runner.run ~functional:false Unikernel.Config.hermit
       (Apps.Matrix_mul.run ~verify:false
          { Apps.Matrix_mul.default with Apps.Matrix_mul.iterations = 200 }))
      .Unikernel.Runner.elapsed
  in
  check Alcotest.int64 "bit-identical virtual time" (run ()) (run ())

let suite =
  [
    Alcotest.test_case "f32 bytes roundtrip" `Quick test_f32_roundtrip;
    Alcotest.test_case "xorshift determinism" `Quick
      test_xorshift_deterministic;
    Alcotest.test_case "xorshift and histogram loops match closures" `Quick
      test_loops_match_closures;
    Alcotest.test_case "approx_equal" `Quick test_approx_equal;
    Alcotest.test_case "matrixMul catches corruption" `Quick
      test_matrix_mul_detects_corruption;
    Alcotest.test_case "histogram catches corruption" `Quick
      test_histogram_detects_corruption;
    Alcotest.test_case "solver catches corruption" `Quick
      test_linear_solver_detects_corruption;
    Alcotest.test_case "bandwidth verify roundtrip" `Quick
      test_bandwidth_verify_roundtrip;
    Alcotest.test_case "matrixMul dims validation" `Quick
      test_matrix_mul_dims_validation;
    Alcotest.test_case "bandwidth chunking" `Quick test_bandwidth_chunking;
    Alcotest.test_case "micro results" `Quick test_micro_results;
    Alcotest.test_case "micro launch cleanup" `Quick
      test_micro_launch_leaves_no_garbage;
    Alcotest.test_case "virtual-time determinism" `Quick test_determinism;
  ]
