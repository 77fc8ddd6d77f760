(* Tests for the GPU simulator: device catalog, the device-memory
   allocator (incl. error detection), kernel implementations (numerics),
   the timing model, streams and events. *)

module Time = Simnet.Time
module M = Gpusim.Memory
module K = Gpusim.Kernels

let check = Alcotest.check

(* --- devices --- *)

let test_device_catalog () =
  check Alcotest.int "gpu node devices" 4 (List.length Gpusim.Device.gpu_node);
  let a100 = Gpusim.Device.a100 in
  check Alcotest.int "a100 sms" 108 a100.Gpusim.Device.multi_processor_count;
  check Alcotest.int "a100 cc" 8 a100.Gpusim.Device.compute_major;
  check Alcotest.bool "flops derated" true
    (Gpusim.Device.effective_flops a100 `F32 < 19.5e12);
  check Alcotest.bool "fp64 slower" true
    (Gpusim.Device.effective_flops a100 `F64
    < Gpusim.Device.effective_flops a100 `F32)

(* GPU capacity honours the catalog when the host-friendly 2 GiB clamp is
   lifted: under one identical allocation stream a 16 GiB T4 runs out of
   memory strictly before a 40 GiB A100 — the ordering a fleet scheduler
   (which creates its GPUs with [~capacity_clamp:max_int]) depends on.
   The backing store grows lazily, so the capacities are never touched. *)
let test_capacity_clamp_ordering () =
  check Alcotest.int "default clamp is 2 GiB" (2 * 1024 * 1024 * 1024)
    Gpusim.Gpu.default_capacity_clamp;
  let clamped = Gpusim.Gpu.create Gpusim.Device.t4 in
  check Alcotest.int "clamped T4 arena" Gpusim.Gpu.default_capacity_clamp
    (M.total_bytes (Gpusim.Gpu.memory clamped));
  let t4 = Gpusim.Gpu.create ~capacity_clamp:max_int Gpusim.Device.t4 in
  let a100 = Gpusim.Gpu.create ~capacity_clamp:max_int Gpusim.Device.a100 in
  check Alcotest.int "unclamped T4 arena"
    (Int64.to_int Gpusim.Device.t4.Gpusim.Device.total_global_mem)
    (M.total_bytes (Gpusim.Gpu.memory t4));
  let chunk = 4 * 1024 * 1024 * 1024 in
  let allocs_before_oom gpu =
    let m = Gpusim.Gpu.memory gpu in
    let n = ref 0 in
    (try
       while !n < 32 do
         ignore (M.alloc m chunk);
         incr n
       done
     with M.Error (M.Out_of_memory _) -> ());
    !n
  in
  let t4_allocs = allocs_before_oom t4 in
  let a100_allocs = allocs_before_oom a100 in
  check Alcotest.int "T4 fits 4 chunks of 4 GiB" 4 t4_allocs;
  check Alcotest.int "A100 fits 10 chunks of 4 GiB" 10 a100_allocs;
  check Alcotest.bool "T4 OOMs before the A100" true (t4_allocs < a100_allocs)

(* --- memory allocator --- *)

let test_alloc_free () =
  let m = M.create ~capacity:(1 lsl 20) in
  let p1 = M.alloc m 1000 in
  let p2 = M.alloc m 2000 in
  check Alcotest.bool "distinct" true (p1 <> p2);
  check Alcotest.bool "aligned" true (p1 mod 256 = 0 && p2 mod 256 = 0);
  check Alcotest.int "live" 2 (M.live_allocations m);
  (* sizes rounded to alignment *)
  check Alcotest.int "size1" 1024 (M.allocation_size m p1);
  M.free m p1;
  M.free m p2;
  check Alcotest.int "none live" 0 (M.live_allocations m);
  check Alcotest.int "all free" (1 lsl 20) (M.free_bytes m)

let test_alloc_reuse_after_free () =
  let m = M.create ~capacity:4096 in
  let p1 = M.alloc m 4096 in
  M.free m p1;
  let p2 = M.alloc m 4096 in
  check Alcotest.int "coalesced reuse" p1 p2

let test_oom () =
  let m = M.create ~capacity:4096 in
  let _ = M.alloc m 2048 in
  match M.alloc m 4096 with
  | _ -> Alcotest.fail "expected OOM"
  | exception M.Error (M.Out_of_memory { requested = 4096; _ }) -> ()
  | exception M.Error e -> Alcotest.failf "wrong error: %s" (M.error_to_string e)

let test_fragmentation_then_coalesce () =
  let m = M.create ~capacity:(10 * 256) in
  let ps = List.init 10 (fun _ -> M.alloc m 256) in
  (* free every other block: no 512-byte hole exists *)
  List.iteri (fun i p -> if i mod 2 = 0 then M.free m p) ps;
  (match M.alloc m 512 with
  | _ -> Alcotest.fail "expected fragmentation OOM"
  | exception M.Error (M.Out_of_memory _) -> ());
  (* free the rest: coalescing must produce one big range *)
  List.iteri (fun i p -> if i mod 2 = 1 then M.free m p) ps;
  let p = M.alloc m (10 * 256) in
  check Alcotest.bool "full-range alloc" true (p > 0)

let test_double_free_and_invalid () =
  let m = M.create ~capacity:4096 in
  let p = M.alloc m 100 in
  M.free m p;
  (match M.free m p with
  | _ -> Alcotest.fail "expected Double_free"
  | exception M.Error (M.Double_free _) -> ());
  match M.free m 12345678 with
  | _ -> Alcotest.fail "expected Invalid_pointer"
  | exception M.Error (M.Invalid_pointer _) -> ()

let test_bounds_checking () =
  let m = M.create ~capacity:(1 lsl 16) in
  let p = M.alloc m 256 in
  M.write m p (Bytes.make 256 'x');
  (match M.write m p (Bytes.make 257 'x') with
  | _ -> Alcotest.fail "expected Out_of_bounds"
  | exception M.Error (M.Out_of_bounds _) -> ());
  (* interior pointers are fine while in bounds *)
  M.write m (p + 200) (Bytes.make 56 'y');
  (match M.read m (p + 200) 57 with
  | _ -> Alcotest.fail "expected Out_of_bounds on read"
  | exception M.Error (M.Out_of_bounds _) -> ());
  match M.write m 99 (Bytes.make 1 'z') with
  | _ -> Alcotest.fail "expected Invalid_pointer"
  | exception M.Error (M.Invalid_pointer _) -> ()

let test_data_roundtrip () =
  let m = M.create ~capacity:(1 lsl 20) in
  let p = M.alloc m 4096 in
  let data = Bytes.init 4096 (fun i -> Char.chr ((i * 13) land 0xff)) in
  M.write m p data;
  check Alcotest.bool "roundtrip" true (Bytes.equal data (M.read m p 4096));
  M.memset m p 0xab 100;
  check Alcotest.int "memset" 0xab (M.get_u8 m p);
  check Alcotest.int "memset end" 0xab (M.get_u8 m (p + 99));
  check Alcotest.bool "beyond memset" true (M.get_u8 m (p + 100) <> 0xab)

let test_device_copy () =
  let m = M.create ~capacity:(1 lsl 20) in
  let src = M.alloc m 1024 in
  let dst = M.alloc m 1024 in
  let data = Bytes.init 1024 (fun i -> Char.chr (i land 0xff)) in
  M.write m src data;
  M.copy m ~src ~dst ~len:1024;
  check Alcotest.bool "d2d copy" true (Bytes.equal data (M.read m dst 1024))

let test_scalar_accessors () =
  let m = M.create ~capacity:4096 in
  let p = M.alloc m 64 in
  M.set_f32 m p 3.25;
  check (Alcotest.float 0.0) "f32" 3.25 (M.get_f32 m p);
  M.set_u8 m (p + 8) 0x1ab;
  check Alcotest.int "u8 keeps the low byte" 0xab (M.get_u8 m (p + 8));
  M.set_i32 m (p + 16) (-42l);
  check Alcotest.int32 "i32" (-42l) (M.get_i32 m (p + 16));
  (* little-endian in memory, whatever the host's byte order *)
  M.set_i32 m (p + 20) 0x01020304l;
  check Alcotest.string "i32 bytes" "\004\003\002\001"
    (Bytes.to_string (M.read m (p + 20) 4))

let test_snapshot_restore () =
  let m = M.create ~capacity:(1 lsl 16) in
  let p1 = M.alloc m 512 in
  let p2 = M.alloc m 1024 in
  M.write m p1 (Bytes.make 512 'a');
  M.write m p2 (Bytes.make 1024 'b');
  M.free m p1;
  let snap = M.snapshot m in
  let m' = M.restore snap in
  check Alcotest.int "live" 1 (M.live_allocations m');
  check Alcotest.bool "contents" true
    (Bytes.equal (Bytes.make 1024 'b') (M.read m' p2 1024));
  (* allocator state survives: p1's range is reusable *)
  let p3 = M.alloc m' 512 in
  check Alcotest.bool "free range restored" true (p3 = p1 || p3 <> p2)

let prop_alloc_free_invariant =
  QCheck.Test.make ~count:100 ~name:"allocator conserves bytes"
    QCheck.(list (int_range 1 5000))
    (fun sizes ->
      let m = M.create ~capacity:(1 lsl 22) in
      let ptrs =
        List.filter_map
          (fun n -> match M.alloc m n with p -> Some p | exception M.Error _ -> None)
          sizes
      in
      let used_mid = M.used_bytes m in
      List.iter (M.free m) ptrs;
      used_mid >= 0 && M.used_bytes m = 0
      && M.free_bytes m = M.total_bytes m)

(* --- word-wise arena blits vs the bytewise reference --- *)

(* A one-byte-per-iteration copy loop: the reference the word-wise arena
   blits are checked against, applied to a [Bytes] model of the
   allocation. *)
let bytewise_blit src srcoff dst dstoff len =
  for i = 0 to len - 1 do
    Bytes.unsafe_set dst (dstoff + i) (Bytes.unsafe_get src (srcoff + i))
  done

(* Every start offset 0-15 (all alignments mod 8) and length 0-100 (every
   tail length) over random background and data: [write] and [read], which
   move 8-byte words, must agree with the bytewise model, both over the
   written range and over the whole allocation (nothing written outside
   it); the scalar [get_u8] reads it back independently of the word loops,
   and a snapshot/restore round trip covers the string-side blits. *)
let prop_wordwise_blits =
  QCheck.Test.make ~count:10 ~name:"word-wise write/read == bytewise reference"
    QCheck.(
      pair (string_of_size (Gen.return 128)) (string_of_size (Gen.return 100)))
    (fun (background, data) ->
      let m = M.create ~capacity:4096 in
      let p = M.alloc m 128 in
      let data = Bytes.of_string data in
      let ok = ref true in
      for off = 0 to 15 do
        for len = 0 to 100 do
          String.iteri (fun i c -> M.set_u8 m (p + i) (Char.code c)) background;
          let model = Bytes.of_string background in
          let src = Bytes.sub data 0 len in
          M.write m (p + off) src;
          bytewise_blit src 0 model off len;
          let written = Bytes.sub model off len in
          if not (Bytes.equal (M.read m (p + off) len) written) then
            ok := false;
          if not (Bytes.equal (M.read m p 128) model) then ok := false;
          Bytes.iteri
            (fun i c -> if M.get_u8 m (p + i) <> Char.code c then ok := false)
            model
        done;
        let restored = M.restore (M.snapshot m) in
        if not (Bytes.equal (M.read restored p 128) (M.read m p 128)) then
          ok := false
      done;
      !ok)

(* --- kernels --- *)

let with_mem f =
  let m = M.create ~capacity:(1 lsl 22) in
  f m

let launch_of ?(grid = { K.x = 1; y = 1; z = 1 })
    ?(block = { K.x = 1; y = 1; z = 1 }) args =
  { K.grid; block; shared_mem = 0; args }

let write_f32s m p vals =
  Array.iteri (fun i v -> M.set_f32 m (p + (4 * i)) v) vals

let read_f32s m p n = Array.init n (fun i -> M.get_f32 m (p + (4 * i)))

let test_kernel_vector_add () =
  with_mem (fun m ->
      let n = 100 in
      let a = M.alloc m (4 * n) and b = M.alloc m (4 * n) and c = M.alloc m (4 * n) in
      write_f32s m a (Array.init n Float.of_int);
      write_f32s m b (Array.init n (fun i -> Float.of_int (2 * i)));
      let k = Option.get (K.find K.vector_add_name) in
      k.K.execute m
        (launch_of [| K.Ptr a; K.Ptr b; K.Ptr c; K.I32 (Int32.of_int n) |]);
      Array.iteri
        (fun i v -> check (Alcotest.float 1e-6) "sum" (Float.of_int (3 * i)) v)
        (read_f32s m c n))

let test_kernel_matrix_mul () =
  with_mem (fun m ->
      (* 2x3 * 3x2 with known values, grid/block encode hA *)
      let a = M.alloc m (4 * 6) and b = M.alloc m (4 * 6) and c = M.alloc m (4 * 4) in
      write_f32s m a [| 1.; 2.; 3.; 4.; 5.; 6. |];
      write_f32s m b [| 7.; 8.; 9.; 10.; 11.; 12. |];
      let k = Option.get (K.find K.matrix_mul_name) in
      k.K.execute m
        (launch_of
           ~grid:{ K.x = 1; y = 2; z = 1 }
           ~block:{ K.x = 2; y = 1; z = 1 }
           [| K.Ptr c; K.Ptr a; K.Ptr b; K.I32 3l; K.I32 2l |]);
      let expected = [| 58.; 64.; 139.; 154. |] in
      Array.iteri
        (fun i v -> check (Alcotest.float 1e-5) "C" expected.(i) v)
        (read_f32s m c 4))

let test_kernel_histogram () =
  with_mem (fun m ->
      let n = 10_000 in
      let data = M.alloc m n and bins = M.alloc m (4 * 256) in
      let host = Bytes.init n (fun i -> Char.chr ((i * 7) land 0xff)) in
      M.write m data host;
      let k = Option.get (K.find K.histogram256_name) in
      k.K.execute m
        (launch_of [| K.Ptr bins; K.Ptr data; K.I32 (Int32.of_int n) |]);
      let expected = Array.make 256 0 in
      Bytes.iter (fun ch -> expected.(Char.code ch) <- expected.(Char.code ch) + 1) host;
      let total = ref 0 in
      for i = 0 to 255 do
        let v = Int32.to_int (M.get_i32 m (bins + (4 * i))) in
        check Alcotest.int (Printf.sprintf "bin %d" i) expected.(i) v;
        total := !total + v
      done;
      check Alcotest.int "total" n !total)

let test_kernel_reduce_and_saxpy () =
  with_mem (fun m ->
      let n = 1000 in
      let x = M.alloc m (4 * n) and y = M.alloc m (4 * n) and out = M.alloc m 4 in
      write_f32s m x (Array.make n 2.0);
      write_f32s m y (Array.init n Float.of_int);
      let saxpy = Option.get (K.find K.saxpy_name) in
      saxpy.K.execute m
        (launch_of [| K.F32 10.0; K.Ptr x; K.Ptr y; K.I32 (Int32.of_int n) |]);
      (* y[i] = 10*2 + i *)
      check (Alcotest.float 1e-6) "saxpy" 25.0 (M.get_f32 m (y + (4 * 5)));
      let reduce = Option.get (K.find K.reduce_sum_name) in
      reduce.K.execute m
        (launch_of [| K.Ptr y; K.Ptr out; K.I32 (Int32.of_int n) |]);
      let expected = Float.of_int (n * 20) +. Float.of_int (n * (n - 1) / 2) in
      check (Alcotest.float 0.5) "reduce" expected (M.get_f32 m out))

let test_kernel_transpose () =
  with_mem (fun m ->
      let input = M.alloc m (4 * 6) and out = M.alloc m (4 * 6) in
      write_f32s m input [| 1.; 2.; 3.; 4.; 5.; 6. |] (* 2x3 row-major *);
      let k = Option.get (K.find K.transpose_name) in
      k.K.execute m (launch_of [| K.Ptr out; K.Ptr input; K.I32 2l; K.I32 3l |]);
      let expected = [| 1.; 4.; 2.; 5.; 3.; 6. |] in
      Array.iteri
        (fun i v -> check (Alcotest.float 1e-6) "t" expected.(i) v)
        (read_f32s m out 6))

let test_kernel_nbody () =
  with_mem (fun m ->
      (* two equal masses on the x axis attract each other symmetrically *)
      let pos = M.alloc m 32 and vel = M.alloc m 32 in
      write_f32s m pos [| -1.0; 0.; 0.; 1.0; 1.0; 0.; 0.; 1.0 |];
      write_f32s m vel [| 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0. |];
      let k = Option.get (K.find K.nbody_name) in
      k.K.execute m
        (launch_of [| K.Ptr pos; K.Ptr vel; K.F32 0.01; K.I32 2l |]);
      let vx0 = M.get_f32 m vel and vx1 = M.get_f32 m (vel + 16) in
      check Alcotest.bool "bodies attract" true (vx0 > 0.0 && vx1 < 0.0);
      check (Alcotest.float 1e-6) "momentum conserved" 0.0 (vx0 +. vx1);
      (* y/z components untouched for colinear bodies *)
      check (Alcotest.float 0.0) "vy zero" 0.0 (M.get_f32 m (vel + 4)))

let test_kernel_bad_args () =
  with_mem (fun m ->
      let k = Option.get (K.find K.vector_add_name) in
      (match k.K.execute m (launch_of [| K.I32 1l |]) with
      | _ -> Alcotest.fail "expected Bad_args (arity)"
      | exception K.Bad_args _ -> ());
      match
        k.K.execute m
          (launch_of [| K.F32 1.0; K.F32 1.0; K.F32 1.0; K.I32 0l |])
      with
      | _ -> Alcotest.fail "expected Bad_args (type)"
      | exception K.Bad_args _ -> ())

let test_kernel_cost_scaling () =
  let d = Gpusim.Device.a100 in
  let k = Option.get (K.find K.matrix_mul_name) in
  let cost n =
    k.K.cost d
      (launch_of
         ~grid:{ K.x = n / 32; y = n / 32; z = 1 }
         ~block:{ K.x = 32; y = 32; z = 1 }
         [| K.Ptr 0; K.Ptr 0; K.Ptr 0; K.I32 (Int32.of_int n);
            K.I32 (Int32.of_int n) |])
  in
  (* O(n^3): doubling n should scale cost ~8x (within wave-overhead noise) *)
  let r = cost 512 /. cost 256 in
  check Alcotest.bool "cubic scaling" true (r > 6.0 && r < 10.0);
  (* slower device costs more *)
  let t4_cost = k.K.cost Gpusim.Device.t4 (launch_of ~grid:{ K.x = 8; y = 8; z = 1 } ~block:{ K.x = 32; y = 32; z = 1 } [| K.Ptr 0; K.Ptr 0; K.Ptr 0; K.I32 256l; K.I32 256l |]) in
  check Alcotest.bool "t4 slower" true (t4_cost > cost 256)

(* --- streams / events / gpu --- *)

let test_gpu_streams_and_sync () =
  let gpu = Gpusim.Gpu.create ~memory_capacity:(1 lsl 20) Gpusim.Device.a100 in
  let k = Option.get (K.find K.fill_name) in
  let m = Gpusim.Gpu.memory gpu in
  let p = M.alloc m 4096 in
  let launch = launch_of [| K.Ptr p; K.F32 1.0; K.I32 1024l |] in
  let now = Time.zero in
  let c1 = Gpusim.Gpu.launch gpu ~now k launch in
  check Alcotest.bool "async completion in future" true
    (Time.compare c1 now > 0);
  (* a second launch on the same stream queues after the first *)
  let c2 = Gpusim.Gpu.launch gpu ~now k launch in
  check Alcotest.bool "serialized" true (Time.compare c2 c1 > 0);
  (* a different stream runs concurrently: completes before c2 *)
  let s = Gpusim.Gpu.stream_create gpu in
  let c3 = Gpusim.Gpu.launch gpu ~now ~stream:s k launch in
  check Alcotest.bool "concurrent streams" true (Time.compare c3 c2 < 0);
  let sync = Gpusim.Gpu.synchronize gpu ~now in
  check Alcotest.int64 "sync = max completion" c2 sync;
  (* execution had real effect *)
  check (Alcotest.float 0.0) "fill applied" 1.0 (M.get_f32 m p)

let test_gpu_events () =
  let gpu = Gpusim.Gpu.create ~memory_capacity:(1 lsl 20) Gpusim.Device.a100 in
  let k = Option.get (K.find K.fill_name) in
  let m = Gpusim.Gpu.memory gpu in
  let p = M.alloc m 4096 in
  let e1 = Gpusim.Gpu.event_create gpu in
  let e2 = Gpusim.Gpu.event_create gpu in
  Gpusim.Gpu.event_record gpu ~now:Time.zero ~event:e1 ~stream:0;
  let _ =
    Gpusim.Gpu.launch gpu ~now:Time.zero k
      (launch_of [| K.Ptr p; K.F32 2.0; K.I32 1024l |])
  in
  Gpusim.Gpu.event_record gpu ~now:Time.zero ~event:e2 ~stream:0;
  let ms = Gpusim.Gpu.event_elapsed_ms gpu ~start:e1 ~stop:e2 in
  check Alcotest.bool "elapsed positive" true (ms > 0.0);
  Gpusim.Gpu.event_destroy gpu e1;
  match Gpusim.Gpu.event_elapsed_ms gpu ~start:e1 ~stop:e2 with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ()

let test_gpu_reset () =
  let gpu = Gpusim.Gpu.create ~memory_capacity:(1 lsl 20) Gpusim.Device.a100 in
  let m = Gpusim.Gpu.memory gpu in
  let _ = M.alloc m 1024 in
  let s = Gpusim.Gpu.stream_create gpu in
  Gpusim.Gpu.reset gpu;
  check Alcotest.int "memory cleared" 0
    (M.live_allocations (Gpusim.Gpu.memory gpu));
  check Alcotest.bool "stream gone" false (Gpusim.Gpu.stream_valid gpu s);
  check Alcotest.bool "default stream stays" true
    (Gpusim.Gpu.stream_valid gpu Gpusim.Gpu.default_stream)

(* --- arena kernel loops vs the per-element reference --- *)

(* The per-element kernel bodies that the arena loops in [Memory] replaced:
   one checked scalar access per element, each store marking its own page.
   The loops must match them bit for bit, dirty page for dirty page. *)
module Ref = struct
  let matrix_mul mem ~c ~a ~b ~ha ~wa ~wb =
    for i = 0 to ha - 1 do
      for j = 0 to wb - 1 do
        let acc = ref 0.0 in
        for k = 0 to wa - 1 do
          acc :=
            !acc
            +. M.get_f32 mem (a + (4 * ((i * wa) + k)))
               *. M.get_f32 mem (b + (4 * ((k * wb) + j)))
        done;
        M.set_f32 mem (c + (4 * ((i * wb) + j))) !acc
      done
    done

  let f32 mem base ld i j = M.get_f32 mem (base + (4 * ((j * ld) + i)))

  let set_f32 mem base ld i j v =
    M.set_f32 mem (base + (4 * ((j * ld) + i))) v

  let sgemm mem ~m ~n ~k ~alpha ~a ~lda ~b ~ldb ~beta ~c ~ldc =
    for j = 0 to n - 1 do
      for i = 0 to m - 1 do
        let acc = ref 0.0 in
        for l = 0 to k - 1 do
          acc := !acc +. (f32 mem a lda i l *. f32 mem b ldb l j)
        done;
        let prior = if beta = 0.0 then 0.0 else f32 mem c ldc i j in
        set_f32 mem c ldc i j ((alpha *. !acc) +. (beta *. prior))
      done
    done

  let histogram256 mem ~bins ~data ~count =
    for b = 0 to 255 do
      M.set_i32 mem (bins + (4 * b)) 0l
    done;
    for i = 0 to count - 1 do
      let v = M.get_u8 mem (data + i) in
      let slot = bins + (4 * v) in
      M.set_i32 mem slot (Int32.add (M.get_i32 mem slot) 1l)
    done

  let merge_histogram256 mem ~out ~partials ~n =
    for b = 0 to 255 do
      let acc = ref 0l in
      for p = 0 to n - 1 do
        acc := Int32.add !acc (M.get_i32 mem (partials + (4 * ((p * 256) + b))))
      done;
      M.set_i32 mem (out + (4 * b)) !acc
    done
end

(* Floats of three magnitudes, 2^-27, 1 and 2^27 times ±1..3: products
   span 2^108, so partial sums cancel and absorb terms, and a summation in
   another order rounds to another result often enough to be caught. *)
let wide_f32 rng =
  let v =
    Float.of_int (1 + Random.State.int rng 3)
    *. Float.ldexp 1.0 (27 * (Random.State.int rng 3 - 1))
  in
  Int32.bits_of_float (if Random.State.bool rng then v else -.v)

(* Run [loop] and [reference] on two arenas holding the same allocations,
   filled with 32-bit words drawn by [word] from [seed], with dirty
   tracking switched on after set-up. They agree when every allocation's
   bytes, the dirty page count and the delta checkpoint are equal. [sizes]
   are in bytes; a zero size still gets a (one-element) allocation. *)
let same_as_reference ?(word = wide_f32) ~seed sizes ~loop ~reference =
  let arena () =
    let m = M.create ~capacity:(1 lsl 20) in
    let rng = Random.State.make [| seed |] in
    let ptrs = List.map (fun size -> M.alloc m (max 4 size)) sizes in
    List.iter
      (fun p ->
        let n = M.allocation_size m p in
        let b = Bytes.create n in
        for i = 0 to (n / 4) - 1 do
          Bytes.set_int32_le b (4 * i) (word rng)
        done;
        M.write m p b)
      ptrs;
    M.set_tracking m true;
    (m, ptrs)
  in
  let m1, ptrs = arena () and m2, _ = arena () in
  loop m1 ptrs;
  reference m2 ptrs;
  List.for_all
    (fun p ->
      let n = M.allocation_size m1 p in
      Bytes.equal (M.read m1 p n) (M.read m2 p n))
    ptrs
  && M.dirty_page_count m1 = M.dirty_page_count m2
  && String.equal (M.delta m1) (M.delta m2)

(* The values where IEEE arithmetic has corner cases, each as often as a
   [wide_f32] value: NaNs with payloads (quiet and signalling, either
   sign), ±0, ±inf, subnormals and ±max-finite. Two NaNs meeting in a
   product or a sum keep the payload of one of them, so the operand order
   of every product and sum must also be the per-element loop's. *)
let special_f32 rng =
  let sign = if Random.State.bool rng then 0x8000_0000l else 0l in
  let payload bits = Int32.logand (Random.State.bits32 rng) bits in
  let magnitude =
    match Random.State.int rng 12 with
    | 0 | 1 -> Int32.logor 0x7fc0_0000l (payload 0x3f_ffffl)  (* quiet NaN *)
    | 2 -> Int32.logor 0x7f80_0001l (payload 0x3f_ffffl)  (* signalling *)
    | 3 -> 0l
    | 4 -> 0x7f80_0000l
    | 5 -> Int32.logor 1l (payload 0x7f_ffffl)  (* subnormal *)
    | 6 -> 0x7f7f_ffffl
    | _ -> Int32.logand (wide_f32 rng) 0x7fff_ffffl
  in
  Int32.logor sign magnitude

(* Where C lies relative to A and B. The loops mirror their operands in
   f64 unless C's written bytes overlap an operand's read bytes; then
   they must behave as if reading in place, seeing the stores already
   made. [On_a o]/[On_b o] start C [o] elements into that operand's
   allocation, which is sized to hold C too. *)
type placement = Apart | On_a of int | On_b of int

let placement =
  QCheck.(
    frequency
      [ (2, always Apart); (1, map (fun o -> On_a o) (int_bound 5));
        (1, map (fun o -> On_b o) (int_bound 5)) ])

(* The allocation sizes of A, B and C, in bytes, for C placed by [place],
   and C's address given the three allocations. *)
let placed_sizes place ~a_size ~b_size ~c_size =
  match place with
  | Apart -> [ a_size; b_size; c_size ]
  | On_a o -> [ max a_size ((4 * o) + c_size); b_size; 0 ]
  | On_b o -> [ a_size; max b_size ((4 * o) + c_size); 0 ]

let placed_c place a b c =
  match place with
  | Apart -> c
  | On_a o -> a + (4 * o)
  | On_b o -> b + (4 * o)

(* Dimensions up to 40 run full four-element blocks and 1-3 element tails
   over sums of more than four products; negative inner dimensions store
   zeros. *)
let dim = QCheck.int_bound 40
let inner_dim = QCheck.int_range (-2) 40

let prop_matrix_mul_reference =
  QCheck.Test.make ~count:200 ~name:"matrixMul loop == per-element reference"
    QCheck.(quad dim inner_dim dim (triple placement bool int))
    (fun (ha, wa, wb, (place, specials, seed)) ->
      let run f m = function
        | [ a; b; c ] -> f m ~c:(placed_c place a b c) ~a ~b ~ha ~wa ~wb
        | _ -> assert false
      in
      same_as_reference
        ~word:(if specials then special_f32 else wide_f32)
        ~seed
        (placed_sizes place ~a_size:(4 * ha * max wa 0)
           ~b_size:(4 * max wa 0 * wb) ~c_size:(4 * ha * wb))
        ~loop:(run M.matrix_mul) ~reference:(run Ref.matrix_mul))

let prop_sgemm_reference =
  QCheck.Test.make ~count:200 ~name:"sgemm loop == per-element reference"
    QCheck.(
      quad
        (triple dim dim inner_dim)
        (triple (int_range (-2) 2) (int_bound 2)
           (oneof [ int_range (-3) 3; int_range 1020 2100 ]))
        (pair bool
           (frequency [ (4, map Option.some placement); (1, always None) ]))
        (pair bool int))
    (fun ((m, n, k), (pad_a, pad_b, gap_c), (beta_zero, place), (specials, seed))
       ->
      (* [place = None] puts C in the gap between A's columns: with
         [ldc = lda] and at least [m] rows of padding, C shares no element
         with A but lies inside A's byte range. Otherwise a negative pad
         overlaps A's columns. *)
      let lda =
        if place = None then (2 * max 1 m) + abs pad_a
        else max 1 (max 1 m + pad_a)
      in
      let ldb = max 1 k + pad_b in
      (* a gap over 1024 floats puts C's columns on different pages, and
         over 2048 leaves whole pages between them unwritten; a negative
         one overlaps C's columns, so a store changes a later column's
         prior value *)
      let ldc = if place = None then lda else max 1 (max 1 m + gap_c) in
      let extent runs ld rows =
        if runs <= 0 || rows <= 0 then 0 else 4 * (((runs - 1) * ld) + rows)
      in
      (* the gap starts at A's row m *)
      let place = Option.value place ~default:(On_a m) in
      let sizes =
        placed_sizes place ~a_size:(extent k lda m) ~b_size:(extent n ldb k)
          ~c_size:(extent n ldc m)
      in
      let alpha = 1.5 and beta = if beta_zero then 0.0 else -0.75 in
      let run f mem = function
        | [ a; b; c ] ->
            f mem ~m ~n ~k ~alpha ~a ~lda ~b ~ldb ~beta
              ~c:(placed_c place a b c) ~ldc
        | _ -> assert false
      in
      same_as_reference
        ~word:(if specials then special_f32 else wide_f32)
        ~seed sizes ~loop:(run M.sgemm) ~reference:(run Ref.sgemm))

let prop_histogram_reference =
  QCheck.Test.make ~count:100 ~name:"histogram256 loop == per-element reference"
    QCheck.(triple (int_bound 5000) (int_bound 7) int)
    (fun (count, offset, seed) ->
      let run f m = function
        | [ bins; data ] -> f m ~bins ~data:(data + offset) ~count
        | _ -> assert false
      in
      same_as_reference ~word:Random.State.bits32 ~seed [ 1024; count + offset ]
        ~loop:(run M.histogram256) ~reference:(run Ref.histogram256))

let prop_merge_reference =
  QCheck.Test.make ~count:100
    ~name:"mergeHistogram256 loop == per-element reference"
    QCheck.(triple (int_bound 4) bool int)
    (fun (n, out_is_partials, seed) ->
      let run f m = function
        | [ out; partials ] ->
            f m ~out:(if out_is_partials then partials else out) ~partials ~n
        | _ -> assert false
      in
      same_as_reference ~word:Random.State.bits32 ~seed [ 1024; 1024 * max 1 n ]
        ~loop:(run M.merge_histogram256)
        ~reference:(run Ref.merge_histogram256))

(* --- kernel launches: pointer checks and allocation --- *)

(* Kernel pointers arrive unchecked from launch arguments. A range that
   leaves device memory — before its start, past its end, or straddling
   the end — fails with a typed error before any store. *)
let test_kernel_rejects_ranges_outside_memory () =
  let m = M.create ~capacity:8192 in
  let a = M.alloc m 4096 and c = M.alloc m 4096 in
  M.write m a (Bytes.make 4096 '\001');
  M.write m c (Bytes.make 4096 '\002');
  let before = M.snapshot m in
  let vadd = Option.get (K.find K.vector_add_name) in
  List.iter
    (fun (what, c) ->
      match
        vadd.K.execute m
          (launch_of [| K.Ptr a; K.Ptr a; K.Ptr c; K.I32 1024l |])
      with
      | () -> Alcotest.failf "%s: launch accepted" what
      | exception M.Error (M.Out_of_range _) -> ())
    [ ("before memory", -4096); ("far past memory", 1 lsl 40);
      ("straddling the end", c + 8) ];
  check Alcotest.bool "no byte changed" true (String.equal before (M.snapshot m));
  (match M.get_u8 m (-1) with
  | _ -> Alcotest.fail "get_u8 (-1) accepted"
  | exception M.Error (M.Out_of_range _) -> ());
  (* the last byte of device memory is still addressable *)
  check Alcotest.int "last byte" 2 (M.get_u8 m (c + 4095))

(* A functional launch of each hot built-in kernel allocates a handful of
   words for the launch itself (cost model, stream entry) and none per
   element, so the count does not grow with the operands. *)
let test_kernel_launch_allocation () =
  let gpu = Gpusim.Gpu.create ~memory_capacity:(1 lsl 22) Gpusim.Device.a100 in
  let m = Gpusim.Gpu.memory gpu in
  let words name ~grid ~block args =
    let k = Option.get (K.find name) in
    let l = launch_of ~grid ~block args in
    ignore (Gpusim.Gpu.launch gpu ~now:Time.zero k l);
    let w0 = Gc.minor_words () in
    ignore (Gpusim.Gpu.launch gpu ~now:Time.zero k l);
    Gc.minor_words () -. w0
  in
  let matmul n =
    let a = M.alloc m (4 * n * n) and b = M.alloc m (4 * n * n) in
    let c = M.alloc m (4 * n * n) in
    let w =
      words K.matrix_mul_name
        ~grid:{ K.x = n / 32; y = n / 32; z = 1 }
        ~block:{ K.x = 32; y = 32; z = 1 }
        [| K.Ptr c; K.Ptr a; K.Ptr b; K.I32 (Int32.of_int n);
           K.I32 (Int32.of_int n) |]
    in
    List.iter (M.free m) [ a; b; c ];
    w
  in
  let histogram count =
    let data = M.alloc m count and bins = M.alloc m 1024 in
    let w =
      words K.histogram256_name
        ~grid:{ K.x = 240; y = 1; z = 1 }
        ~block:{ K.x = 192; y = 1; z = 1 }
        [| K.Ptr bins; K.Ptr data; K.I32 (Int32.of_int count) |]
    in
    List.iter (M.free m) [ data; bins ];
    w
  in
  List.iter
    (fun (what, small, large) ->
      check Alcotest.bool
        (Printf.sprintf "%s: %.0f then %.0f words" what small large)
        true
        (small <= 200. && large = small))
    [ ("matrixMul 64x64 / 128x128", matmul 64, matmul 128);
      ("histogram256 64 KiB / 1 MiB", histogram 65536, histogram (1 lsl 20)) ]

(* Each arena owns its GEMM mirror, so two domains running GEMMs on two
   arenas at once compute what each computes alone. Each round feeds the
   last sgemm result back into the next matrixMul, so a mirror shared
   between the domains would corrupt every later round. *)
let test_gemm_domains () =
  let n = 64 and rounds = 8 in
  let arena seed =
    let m = M.create ~capacity:(1 lsl 20) in
    let rng = Random.State.make [| seed |] in
    let matrix () =
      let p = M.alloc m (4 * n * n) in
      let b = Bytes.create (4 * n * n) in
      for i = 0 to (n * n) - 1 do
        let v = Float.of_int (Random.State.int rng 17 - 8) /. 8.0 in
        Bytes.set_int32_le b (4 * i) (Int32.bits_of_float v)
      done;
      M.write m p b;
      p
    in
    let a = matrix () in
    let b = matrix () in
    let c = matrix () in
    let d = matrix () in
    (m, a, b, c, d)
  in
  let run (m, a, b, c, d) =
    List.init rounds (fun _ ->
        M.matrix_mul m ~c:d ~a ~b:c ~ha:n ~wa:n ~wb:n;
        M.sgemm m ~m:n ~n ~k:n ~alpha:(1.0 /. 512.0) ~a:b ~lda:n ~b:d ~ldb:n
          ~beta:0.5 ~c ~ldc:n;
        M.read m c (4 * n * n))
  in
  let alone = List.map (fun seed -> run (arena seed)) [ 1; 2 ] in
  let started = Atomic.make 0 in
  let together =
    List.map
      (fun seed ->
        let arena = arena seed in
        Domain.spawn (fun () ->
            Atomic.incr started;
            while Atomic.get started < 2 do
              Domain.cpu_relax ()
            done;
            run arena))
      [ 1; 2 ]
    |> List.map Domain.join
  in
  List.iteri
    (fun d (alone, together) ->
      List.iteri
        (fun r (x, y) ->
          check Alcotest.bool
            (Printf.sprintf "domain %d round %d" d r)
            true (Bytes.equal x y))
        (List.combine alone together))
    (List.combine alone together)

(* The GEMM mirror grows to the high-water mark and no further: after a
   128x128 matrixMul and sgemm the heap reachable from the arena (its
   bytes live in a Bigarray, off the heap) is one f64 per element of the
   widest mirrored operand, plus one row or column, plus the allocator's
   few words; a smaller launch after them allocates no new mirror. *)
let test_gemm_scratch_bound () =
  let m = M.create ~capacity:(1 lsl 20) in
  let n = 128 in
  let a = M.alloc m (4 * n * n) and b = M.alloc m (4 * n * n) in
  let c = M.alloc m (4 * n * n) in
  let words () = Obj.reachable_words (Obj.repr m) in
  let fixed = words () in
  M.matrix_mul m ~c ~a ~b ~ha:n ~wa:n ~wb:n;
  M.sgemm m ~m:n ~n ~k:n ~alpha:1.0 ~a ~lda:n ~b ~ldb:n ~beta:1.0 ~c ~ldc:n;
  let grown = words () in
  check Alcotest.bool
    (Printf.sprintf "%d words before, %d after" fixed grown)
    true
    (fixed <= 256 && grown <= (n * n) + n + 1 + 256);
  M.matrix_mul m ~c ~a ~b ~ha:16 ~wa:16 ~wb:16;
  M.sgemm m ~m:16 ~n:16 ~k:16 ~alpha:1.0 ~a ~lda:16 ~b ~ldb:16 ~beta:1.0 ~c
    ~ldc:16;
  check Alcotest.int "after 16x16" grown (words ())

let suite =
  [
    Alcotest.test_case "device catalog" `Quick test_device_catalog;
    Alcotest.test_case "capacity clamp ordering" `Quick
      test_capacity_clamp_ordering;
    Alcotest.test_case "alloc/free" `Quick test_alloc_free;
    Alcotest.test_case "reuse after free" `Quick test_alloc_reuse_after_free;
    Alcotest.test_case "out of memory" `Quick test_oom;
    Alcotest.test_case "fragmentation and coalescing" `Quick
      test_fragmentation_then_coalesce;
    Alcotest.test_case "double free / invalid" `Quick
      test_double_free_and_invalid;
    Alcotest.test_case "bounds checking" `Quick test_bounds_checking;
    Alcotest.test_case "data roundtrip" `Quick test_data_roundtrip;
    Alcotest.test_case "device-to-device copy" `Quick test_device_copy;
    Alcotest.test_case "scalar accessors" `Quick test_scalar_accessors;
    Alcotest.test_case "snapshot/restore" `Quick test_snapshot_restore;
    Alcotest.test_case "vectorAdd numerics" `Quick test_kernel_vector_add;
    Alcotest.test_case "matrixMul numerics" `Quick test_kernel_matrix_mul;
    Alcotest.test_case "histogram numerics" `Quick test_kernel_histogram;
    Alcotest.test_case "saxpy + reduce numerics" `Quick
      test_kernel_reduce_and_saxpy;
    Alcotest.test_case "transpose numerics" `Quick test_kernel_transpose;
    Alcotest.test_case "nbody numerics" `Quick test_kernel_nbody;
    Alcotest.test_case "kernel bad args" `Quick test_kernel_bad_args;
    Alcotest.test_case "kernel cost scaling" `Quick test_kernel_cost_scaling;
    Alcotest.test_case "streams and synchronize" `Quick
      test_gpu_streams_and_sync;
    Alcotest.test_case "events" `Quick test_gpu_events;
    Alcotest.test_case "device reset" `Quick test_gpu_reset;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_alloc_free_invariant; prop_wordwise_blits ]
  @ [
      Alcotest.test_case "kernel ranges outside device memory" `Quick
        test_kernel_rejects_ranges_outside_memory;
      Alcotest.test_case "kernel launch allocation is size-independent" `Quick
        test_kernel_launch_allocation;
      Alcotest.test_case "GEMM on two domains == one domain" `Quick
        test_gemm_domains;
      Alcotest.test_case "GEMM mirror bounded by its widest operand" `Quick
        test_gemm_scratch_bound;
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_matrix_mul_reference; prop_sgemm_reference;
        prop_histogram_reference; prop_merge_reference;
      ]
