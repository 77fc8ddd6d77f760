(* End-to-end tests of the Cricket layer: client API -> generated stubs ->
   ONC RPC -> server dispatch -> cudasim, plus lifetime tracking, transfer
   strategies, the GPU-sharing scheduler and checkpoint/restart via RPC. *)

module Time = Simnet.Time
module C = Cricket.Client

let check = Alcotest.check

let make_pair ?checkpoint_dir () =
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~memory_capacity:(1 lsl 26) ?checkpoint_dir
      ~clock:(Cudasim.Context.engine_clock engine)
      ()
  in
  let client = Cricket.Local.connect server in
  (engine, server, client)

let expect_cuda_error expected f =
  match f () with
  | _ -> Alcotest.failf "expected %s" (Cudasim.Error.to_string expected)
  | exception Cudasim.Error.Cuda_error e ->
      check Alcotest.string "cuda error" (Cudasim.Error.to_string expected)
        (Cudasim.Error.to_string e)

(* --- basic forwarding --- *)

let test_device_forwarding () =
  let _, _, client = make_pair () in
  check Alcotest.int "count" 4 (C.get_device_count client);
  let p = C.get_device_properties client 0 in
  check Alcotest.string "A100 via RPC" "NVIDIA A100-PCIE-40GB" p.C.name;
  C.set_device client 1;
  check Alcotest.int "selected" 1 (C.get_device client);
  expect_cuda_error Cudasim.Error.Invalid_device (fun () ->
      C.set_device client 99);
  C.device_synchronize client;
  check Alcotest.int "api calls counted" 6 (C.api_calls client)

let test_memory_forwarding () =
  let _, _, client = make_pair () in
  let p = C.malloc client 8192 in
  let data = Bytes.init 8192 (fun i -> Char.chr ((i * 11) land 0xff)) in
  C.memcpy_h2d client ~dst:p data;
  let back = C.memcpy_d2h client ~src:p ~len:8192 in
  check Alcotest.bool "payload intact over RPC" true (Bytes.equal data back);
  let free_bytes, total = C.mem_get_info client in
  check Alcotest.bool "accounting" true (Int64.compare free_bytes total < 0);
  C.free client p;
  expect_cuda_error Cudasim.Error.Invalid_value (fun () -> C.free client p)

let test_large_transfer_fragmentation () =
  (* > 1 MiB forces multi-fragment records through the whole stack *)
  let _, _, client = make_pair () in
  let n = 5 * (1 lsl 20) in
  let p = C.malloc client n in
  let data = Bytes.init n (fun i -> Char.chr ((i * 131) land 0xff)) in
  C.memcpy_h2d client ~dst:p data;
  check Alcotest.bool "5 MiB intact" true
    (Bytes.equal data (C.memcpy_d2h client ~src:p ~len:n));
  check Alcotest.bool "bytes counted" true (C.bytes_to_server client > n)

let test_h2d_zero_copy_to_transport () =
  (* End-to-end proof of the scatter-gather datapath: a large memcpy_h2d's
     payload must reach the transport as a slice physically aliasing the
     caller's buffer — zero copies in the stub, XDR and record layers; the
     transport's own staging is the single copy on the tx path (the seed
     datapath staged the same bytes four times). *)
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~memory_capacity:(1 lsl 26)
      ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  let dispatch = Cricket.Server.dispatch server in
  let payload = Bytes.init (1 lsl 20) (fun i -> Char.chr ((i * 7) land 0xff)) in
  let aliased = ref false in
  let outbox = Buffer.create 1024 in
  let inbox = ref "" in
  let inbox_pos = ref 0 in
  let serve () =
    let stream = Buffer.contents outbox in
    Buffer.clear outbox;
    let replies = Buffer.create 1024 in
    let rec loop pos frags =
      if pos < String.length stream then begin
        let last, len =
          Oncrpc.Record.decode_header (String.sub stream pos 4)
        in
        let frag = String.sub stream (pos + 4) len in
        if last then begin
          (match dispatch (String.concat "" (List.rev (frag :: frags))) with
          | "" -> ()
          | reply -> Buffer.add_string replies (Oncrpc.Record.to_wire reply));
          loop (pos + 4 + len) []
        end
        else loop (pos + 4 + len) (frag :: frags)
      end
    in
    loop 0 [];
    inbox := Buffer.contents replies;
    inbox_pos := 0
  in
  let rec recv buf off len =
    let avail = String.length !inbox - !inbox_pos in
    if avail > 0 then begin
      let n = min len avail in
      Bytes.blit_string !inbox !inbox_pos buf off n;
      inbox_pos := !inbox_pos + n;
      n
    end
    else if Buffer.length outbox > 0 then begin
      serve ();
      recv buf off len
    end
    else raise Oncrpc.Transport.Closed
  in
  let transport =
    Oncrpc.Transport.make
      ~sendv:(fun iov ->
        Xdr.Iovec.iter
          (fun s ->
            if s.Xdr.Iovec.base == Bytes.unsafe_to_string payload then
              aliased := true;
            Buffer.add_substring outbox s.Xdr.Iovec.base s.Xdr.Iovec.off
              s.Xdr.Iovec.len)
          iov)
      ~send:(fun b off len -> Buffer.add_subbytes outbox b off len)
      ~recv
      ~close:(fun () -> ())
      ()
  in
  let client = C.create ~transport () in
  let p = C.malloc client (Bytes.length payload) in
  C.memcpy_h2d client ~dst:p payload;
  check Alcotest.bool "h2d payload reached the transport un-copied" true
    !aliased;
  (* and the download path (now through Decode.opaque_slice) is intact *)
  let back = C.memcpy_d2h client ~src:p ~len:(Bytes.length payload) in
  check Alcotest.bool "d2h roundtrip intact" true (Bytes.equal back payload)

(* --- kernel modules and launches over RPC --- *)

let test_module_and_launch () =
  let _, _, client = make_pair () in
  let image =
    Cubin.Image.of_registry
      [ Gpusim.Kernels.vector_add_name; Gpusim.Kernels.fill_name ]
  in
  let modul = C.module_load client (Cubin.Image.build ~compress:true image) in
  let vadd = C.get_function client ~modul ~name:Gpusim.Kernels.vector_add_name in
  let n = 1024 in
  let f32s a =
    let b = Bytes.create (4 * Array.length a) in
    Array.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.bits_of_float v)) a;
    b
  in
  let d_a = C.malloc client (4 * n) in
  let d_b = C.malloc client (4 * n) in
  let d_c = C.malloc client (4 * n) in
  C.memcpy_h2d client ~dst:d_a (f32s (Array.init n Float.of_int));
  C.memcpy_h2d client ~dst:d_b (f32s (Array.init n (fun i -> Float.of_int (3 * i))));
  C.launch client vadd
    ~grid:{ C.x = (n + 255) / 256; y = 1; z = 1 }
    ~block:{ C.x = 256; y = 1; z = 1 }
    [|
      Gpusim.Kernels.Ptr (Int64.to_int d_a);
      Gpusim.Kernels.Ptr (Int64.to_int d_b);
      Gpusim.Kernels.Ptr (Int64.to_int d_c);
      Gpusim.Kernels.I32 (Int32.of_int n);
    |];
  C.device_synchronize client;
  let r = C.memcpy_d2h client ~src:d_c ~len:(4 * n) in
  for i = 0 to n - 1 do
    let v = Int32.float_of_bits (Bytes.get_int32_le r (4 * i)) in
    if v <> Float.of_int (4 * i) then
      Alcotest.failf "c[%d] = %f, expected %d" i v (4 * i)
  done;
  (* wrong arg types are rejected client-side from cubin metadata *)
  expect_cuda_error Cudasim.Error.Invalid_value (fun () ->
      C.launch client vadd ~grid:{ C.x = 1; y = 1; z = 1 }
        ~block:{ C.x = 1; y = 1; z = 1 }
        [| Gpusim.Kernels.F32 1.0 |]);
  (* unknown kernel name is a client-side metadata miss *)
  expect_cuda_error Cudasim.Error.Not_found (fun () ->
      ignore (C.get_function client ~modul ~name:"missing"));
  C.module_unload client modul;
  expect_cuda_error Cudasim.Error.Invalid_handle (fun () ->
      ignore (C.get_function client ~modul ~name:Gpusim.Kernels.fill_name))

let test_streams_events_over_rpc () =
  let _, _, client = make_pair () in
  let s = C.stream_create client in
  C.stream_synchronize client s;
  let e1 = C.event_create client in
  let e2 = C.event_create client in
  C.event_record client ~event:e1 ~stream:0L;
  C.event_record client ~event:e2 ~stream:0L;
  C.event_synchronize client e2;
  check Alcotest.bool "elapsed" true
    (C.event_elapsed_ms client ~start:e1 ~stop:e2 >= 0.0);
  C.event_destroy client e1;
  C.event_destroy client e2;
  C.stream_destroy client s;
  expect_cuda_error Cudasim.Error.Invalid_handle (fun () ->
      C.stream_synchronize client s)

let test_cusolver_over_rpc () =
  let _, _, client = make_pair () in
  let handle = C.cusolver_create client in
  let n = 8 in
  (* column-major identity*4 system: solution = b/4 *)
  let a = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    a.((i * n) + i) <- 4.0
  done;
  let f32s arr =
    let b = Bytes.create (4 * Array.length arr) in
    Array.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.bits_of_float v)) arr;
    b
  in
  let d_a = C.malloc client (4 * n * n) in
  let d_b = C.malloc client (4 * n) in
  let d_ipiv = C.malloc client (4 * n) in
  let d_work = C.malloc client (4 * n * n) in
  C.memcpy_h2d client ~dst:d_a (f32s a);
  C.memcpy_h2d client ~dst:d_b (f32s (Array.init n (fun i -> Float.of_int (4 * (i + 1)))));
  check Alcotest.int "getrf info" 0
    (C.cusolver_sgetrf client ~handle ~m:n ~n ~a:d_a ~lda:n ~workspace:d_work
       ~ipiv:d_ipiv);
  check Alcotest.int "getrs info" 0
    (C.cusolver_sgetrs client ~handle ~n ~nrhs:1 ~a:d_a ~lda:n ~ipiv:d_ipiv
       ~b:d_b ~ldb:n);
  let x = C.memcpy_d2h client ~src:d_b ~len:(4 * n) in
  for i = 0 to n - 1 do
    check (Alcotest.float 1e-5)
      (Printf.sprintf "x[%d]" i)
      (Float.of_int (i + 1))
      (Int32.float_of_bits (Bytes.get_int32_le x (4 * i)))
  done;
  C.cusolver_destroy client handle

let test_cublas_l1_over_rpc () =
  (* the routines added to the RPCL spec after the initial release: they
     became callable without touching the transport or dispatch code *)
  let _, _, client = make_pair () in
  let handle = C.cublas_create client in
  let n = 64 in
  let f32s arr =
    let b = Bytes.create (4 * Array.length arr) in
    Array.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.bits_of_float v)) arr;
    b
  in
  let d_x = C.malloc client (4 * n) in
  let d_y = C.malloc client (4 * n) in
  C.memcpy_h2d client ~dst:d_x (f32s (Array.make n 2.0));
  C.memcpy_h2d client ~dst:d_y (f32s (Array.make n 3.0));
  check (Alcotest.float 1e-3) "sdot" (Float.of_int (6 * n))
    (C.cublas_sdot client ~handle ~n ~x:d_x ~incx:1 ~y:d_y ~incy:1);
  check (Alcotest.float 1e-3) "snrm2" (2.0 *. Float.sqrt (Float.of_int n))
    (C.cublas_snrm2 client ~handle ~n ~x:d_x ~incx:1);
  C.cublas_sscal client ~handle ~n ~alpha:0.5 ~x:d_x ~incx:1;
  check (Alcotest.float 1e-3) "after sscal" (Float.of_int (3 * n))
    (C.cublas_sdot client ~handle ~n ~x:d_x ~incx:1 ~y:d_y ~incy:1);
  (* sgemv: y <- A x with A = 2*I (column-major), x = 1s *)
  let d_a = C.malloc client (4 * n * n) in
  let a = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    a.((i * n) + i) <- 2.0
  done;
  C.memcpy_h2d client ~dst:d_a (f32s a);
  C.memcpy_h2d client ~dst:d_x (f32s (Array.make n 1.0));
  C.cublas_sgemv client ~handle ~m:n ~n ~alpha:1.0 ~a:d_a ~lda:n ~x:d_x
    ~incx:1 ~beta:0.0 ~y:d_y ~incy:1;
  C.device_synchronize client;
  let y = C.memcpy_d2h client ~src:d_y ~len:(4 * n) in
  for i = 0 to n - 1 do
    check (Alcotest.float 1e-5) "sgemv" 2.0
      (Int32.float_of_bits (Bytes.get_int32_le y (4 * i)))
  done;
  (* bad handle / bad args *)
  expect_cuda_error Cudasim.Error.Invalid_handle (fun () ->
      ignore (C.cublas_sdot client ~handle:99L ~n ~x:d_x ~incx:1 ~y:d_y ~incy:1));
  expect_cuda_error Cudasim.Error.Invalid_value (fun () ->
      C.cublas_sscal client ~handle ~n ~alpha:1.0 ~x:d_x ~incx:0);
  C.cublas_destroy client handle

(* --- checkpoint / restart over RPC --- *)

let test_checkpoint_restart_rpc () =
  let dir = Filename.temp_file "cricket" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let _, _, client = make_pair ~checkpoint_dir:dir () in
  let p = C.malloc client 4096 in
  C.memcpy_h2d client ~dst:p (Bytes.make 4096 '\x42');
  C.checkpoint client "state.ckpt";
  check Alcotest.bool "file written" true
    (Sys.file_exists (Filename.concat dir "state.ckpt"));
  C.memset client ~ptr:p ~value:0 ~len:4096;
  C.restore client "state.ckpt";
  let back = C.memcpy_d2h client ~src:p ~len:4096 in
  check Alcotest.bool "state restored" true
    (Bytes.equal back (Bytes.make 4096 '\x42'));
  (* path escapes are rejected *)
  expect_cuda_error Cudasim.Error.Invalid_value (fun () ->
      C.checkpoint client "../evil");
  expect_cuda_error Cudasim.Error.Unknown (fun () ->
      C.restore client "missing.ckpt");
  Sys.remove (Filename.concat dir "state.ckpt");
  Unix.rmdir dir

(* --- real TCP transport end to end --- *)

let test_cricket_over_tcp () =
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~memory_capacity:(1 lsl 24)
      ~clock:(Cudasim.Context.engine_clock engine)
      ()
  in
  let tcp = Oncrpc.Server.serve_tcp (Cricket.Server.rpc_server server) ~port:0 () in
  let transport =
    Oncrpc.Transport.tcp_connect ~host:"127.0.0.1"
      ~port:(Oncrpc.Server.tcp_port tcp)
  in
  let client = C.create ~transport () in
  check Alcotest.int "count over TCP" 4 (C.get_device_count client);
  let p = C.malloc client 1024 in
  let data = Bytes.init 1024 (fun i -> Char.chr (i land 0xff)) in
  C.memcpy_h2d client ~dst:p data;
  check Alcotest.bool "roundtrip over TCP" true
    (Bytes.equal data (C.memcpy_d2h client ~src:p ~len:1024));
  C.close client;
  Oncrpc.Server.shutdown_tcp tcp

(* --- per-procedure statistics --- *)

let test_proc_stats () =
  let _, server, client = make_pair () in
  ignore (Cricket.Client.get_device_count client);
  ignore (Cricket.Client.get_device_count client);
  let p = C.malloc client 1024 in
  C.free client p;
  let stats = Cricket.Server.proc_stats server in
  check Alcotest.bool "getDeviceCount counted twice" true
    (List.assoc_opt "rpc_cudaGetDeviceCount" stats = Some 2);
  check Alcotest.bool "malloc counted" true
    (List.assoc_opt "rpc_cudaMalloc" stats = Some 1);
  check Alcotest.int "calls served" 4 (Cricket.Server.calls_served server);
  (* most-called first *)
  match stats with
  | (_, top) :: rest -> 
      List.iter (fun (_, c) -> check Alcotest.bool "sorted" true (c <= top)) rest
  | [] -> Alcotest.fail "no stats"

let test_trace () =
  let engine, server, client = make_pair () in
  ignore engine;
  let trace = Cricket.Server.trace server in
  (* off by default: nothing recorded *)
  ignore (C.get_device_count client);
  check Alcotest.int "disabled: empty" 0 (Cricket.Trace.recorded trace);
  Cricket.Trace.set_enabled trace true;
  ignore (C.get_device_count client);
  let p = C.malloc client 4096 in
  C.memcpy_h2d client ~dst:p (Bytes.create 4096);
  C.free client p;
  let entries = Cricket.Trace.entries trace in
  check Alcotest.int "four calls traced" 4 (List.length entries);
  let names = List.map (fun e -> e.Cricket.Trace.proc_name) entries in
  check (Alcotest.list Alcotest.string) "names in order"
    [ "rpc_cudaGetDeviceCount"; "rpc_cudaMalloc"; "rpc_cudaMemcpyHtoD";
      "rpc_cudaFree" ]
    names;
  (* timestamps are monotone; the memcpy carries its payload size *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        Time.compare a.Cricket.Trace.at b.Cricket.Trace.at <= 0
        && monotone rest
    | _ -> true
  in
  check Alcotest.bool "monotone timestamps" true (monotone entries);
  let memcpy = List.nth entries 2 in
  check Alcotest.bool "arg bytes include payload" true
    (memcpy.Cricket.Trace.arg_bytes >= 4096);
  check Alcotest.bool "dispatch had a duration" true
    (Time.compare memcpy.Cricket.Trace.duration Time.zero > 0);
  (* ring bounding *)
  let small = Cricket.Trace.create ~capacity:3 () in
  Cricket.Trace.set_enabled small true;
  for i = 1 to 10 do
    Cricket.Trace.record small ~now:(Time.us i) ~proc:i ~proc_name:"p"
      ~arg_bytes:0 ~duration:Time.zero
  done;
  check Alcotest.int "recorded total" 10 (Cricket.Trace.recorded small);
  let kept = Cricket.Trace.entries small in
  check Alcotest.int "ring keeps capacity" 3 (List.length kept);
  check Alcotest.int "oldest kept is #7" 7
    (List.hd kept).Cricket.Trace.seq;
  Cricket.Trace.clear small;
  (* clear drops the buffered entries but keeps the lifetime total, so
     [recorded] never lies about how many calls were traced *)
  check Alcotest.int "cleared: entries gone" 0
    (List.length (Cricket.Trace.entries small));
  check Alcotest.int "cleared: lifetime total survives" 10
    (Cricket.Trace.recorded small);
  (* and seq keeps counting where it left off rather than restarting *)
  Cricket.Trace.record small ~now:(Time.us 11) ~proc:11 ~proc_name:"p"
    ~arg_bytes:0 ~duration:Time.zero;
  (match Cricket.Trace.entries small with
  | [ e ] -> check Alcotest.int "post-clear seq continues" 10 e.Cricket.Trace.seq
  | l -> Alcotest.failf "expected one entry, got %d" (List.length l));
  check Alcotest.int "post-clear total" 11 (Cricket.Trace.recorded small)

(* --- lifetime tracking --- *)

let test_lifetime () =
  let _, _, client = make_pair () in
  let buf = Cricket.Lifetime.alloc client 1024 in
  check Alcotest.bool "live" true (Cricket.Lifetime.is_live buf);
  Cricket.Lifetime.upload buf (Bytes.make 1024 'q');
  check Alcotest.bool "download" true
    (Bytes.equal (Bytes.make 1024 'q') (Cricket.Lifetime.download buf));
  Cricket.Lifetime.fill buf 0;
  check Alcotest.int "fill" 0
    (Char.code (Bytes.get (Cricket.Lifetime.download_part buf ~offset:5 ~len:1) 0));
  (* bounds *)
  (match Cricket.Lifetime.upload_at buf ~offset:1000 (Bytes.make 100 'x') with
  | _ -> Alcotest.fail "expected bounds failure"
  | exception Invalid_argument _ -> ());
  Cricket.Lifetime.free buf;
  (match Cricket.Lifetime.free buf with
  | _ -> Alcotest.fail "expected Double_free"
  | exception Cricket.Lifetime.Double_free -> ());
  (match Cricket.Lifetime.download buf with
  | _ -> Alcotest.fail "expected Use_after_free"
  | exception Cricket.Lifetime.Use_after_free -> ());
  match Cricket.Lifetime.ptr buf with
  | _ -> Alcotest.fail "expected Use_after_free on ptr"
  | exception Cricket.Lifetime.Use_after_free -> ()

let test_lifetime_with_buffer () =
  let _, server, client = make_pair () in
  let live_before =
    Gpusim.Memory.live_allocations
      (Gpusim.Gpu.memory (Cudasim.Context.gpu (Cricket.Server.context server)))
  in
  (* freed on normal exit *)
  Cricket.Lifetime.with_buffer client 512 (fun buf ->
      Cricket.Lifetime.fill buf 1);
  (* freed on exception too *)
  (match
     Cricket.Lifetime.with_buffer client 512 (fun _ -> failwith "boom")
   with
  | _ -> Alcotest.fail "exception must propagate"
  | exception Failure _ -> ());
  let live_after =
    Gpusim.Memory.live_allocations
      (Gpusim.Gpu.memory (Cudasim.Context.gpu (Cricket.Server.context server)))
  in
  check Alcotest.int "no leaks" live_before live_after

(* --- transfer strategies --- *)

let test_transfer_strategies () =
  check Alcotest.bool "rpc args ok in unikernel" true
    (Cricket.Transfer.supported_by_unikernel Cricket.Transfer.Rpc_arguments);
  List.iter
    (fun s ->
      check Alcotest.bool (Cricket.Transfer.to_string s) false
        (Cricket.Transfer.supported_by_unikernel s);
      match Cricket.Transfer.check_available ~unikernel:true s with
      | _ -> Alcotest.fail "expected Unsupported"
      | exception Cricket.Transfer.Unsupported _ -> ())
    [ Cricket.Transfer.Parallel_tcp 4; Cricket.Transfer.Infiniband_rdma;
      Cricket.Transfer.Shared_memory ];
  (* native can use everything *)
  List.iter
    (Cricket.Transfer.check_available ~unikernel:false)
    [ Cricket.Transfer.Parallel_tcp 8; Cricket.Transfer.Infiniband_rdma;
      Cricket.Transfer.Shared_memory ];
  (* bandwidth ordering: rpc-args < parallel < rdma < shm *)
  let bw s = Cricket.Transfer.bandwidth_multiplier s in
  check Alcotest.bool "ordering" true
    (bw Cricket.Transfer.Rpc_arguments < bw (Cricket.Transfer.Parallel_tcp 4)
    && bw (Cricket.Transfer.Parallel_tcp 4) < bw Cricket.Transfer.Infiniband_rdma
    && bw Cricket.Transfer.Infiniband_rdma < bw Cricket.Transfer.Shared_memory);
  (* staging copies per strategy, matching the DESIGN.md datapath table *)
  let copies s = Cricket.Transfer.staging_copies s in
  check Alcotest.int "rpc args: one staging copy" 1
    (copies Cricket.Transfer.Rpc_arguments);
  check Alcotest.int "rdma: no staging" 0
    (copies Cricket.Transfer.Infiniband_rdma);
  check Alcotest.int "shm: no staging" 0
    (copies Cricket.Transfer.Shared_memory);
  check Alcotest.bool "parallel tcp stages more" true
    (copies (Cricket.Transfer.Parallel_tcp 4)
    > copies Cricket.Transfer.Rpc_arguments);
  (* parallel sockets scale sublinearly and saturate *)
  check Alcotest.bool "diminishing" true
    (bw (Cricket.Transfer.Parallel_tcp 16) -. bw (Cricket.Transfer.Parallel_tcp 8)
    < bw (Cricket.Transfer.Parallel_tcp 2) -. bw (Cricket.Transfer.Parallel_tcp 1))

(* --- scheduler --- *)

let job client arrival_us duration_us priority =
  { Cricket.Sched.client; arrival = Time.us arrival_us;
    duration = Time.us duration_us; priority }

let test_sched_fifo () =
  let jobs = [ job "b" 10 100 0; job "a" 0 100 0; job "c" 20 100 0 ] in
  let placements = Cricket.Sched.schedule Cricket.Sched.Fifo jobs in
  check (Alcotest.list Alcotest.string) "fifo order" [ "a"; "b"; "c" ]
    (List.map (fun p -> p.Cricket.Sched.job.Cricket.Sched.client) placements);
  check Alcotest.int64 "makespan" (Time.us 300)
    (Cricket.Sched.makespan placements);
  (* no overlap on the single GPU *)
  let rec no_overlap = function
    | a :: (b :: _ as rest) ->
        Time.compare a.Cricket.Sched.finish b.Cricket.Sched.start <= 0
        && no_overlap rest
    | _ -> true
  in
  check Alcotest.bool "serialized" true (no_overlap placements)

let test_sched_priority () =
  (* all arrive while the GPU is busy; priority decides order *)
  let jobs =
    [ job "first" 0 100 5; job "low" 1 50 9; job "high" 2 50 1;
      job "mid" 3 50 4 ]
  in
  let placements = Cricket.Sched.schedule Cricket.Sched.Priority jobs in
  check (Alcotest.list Alcotest.string) "priority order"
    [ "first"; "high"; "mid"; "low" ]
    (List.map (fun p -> p.Cricket.Sched.job.Cricket.Sched.client) placements)

let test_sched_round_robin_fairness () =
  (* client "hog" floods; "small" submits interleaved jobs. RR must not
     starve "small". *)
  let hog = List.init 10 (fun i -> job "hog" i 100 0) in
  let small = List.init 5 (fun i -> job "small" (i * 2) 100 0) in
  let placements = Cricket.Sched.schedule Cricket.Sched.Round_robin (hog @ small) in
  let stats = Cricket.Sched.per_client placements in
  let small_stats = List.assoc "small" stats in
  let hog_stats = List.assoc "hog" stats in
  (* under FIFO, hog's earlier arrivals would all run first *)
  let fifo = Cricket.Sched.schedule Cricket.Sched.Fifo (hog @ small) in
  let fifo_small = List.assoc "small" (Cricket.Sched.per_client fifo) in
  check Alcotest.bool "rr reduces small's max wait" true
    (Time.compare small_stats.Cricket.Sched.max_waiting
       fifo_small.Cricket.Sched.max_waiting
    < 0);
  check Alcotest.int "all jobs ran" 15
    (small_stats.Cricket.Sched.jobs + hog_stats.Cricket.Sched.jobs);
  (* fairness index for equal-duration interleaved arrivals *)
  check Alcotest.bool "fairness in (0,1]" true
    (Cricket.Sched.fairness placements > 0.5
    && Cricket.Sched.fairness placements <= 1.0)

let test_sched_idle_gap () =
  (* GPU idles between separated arrivals; start times respect arrival *)
  let placements =
    Cricket.Sched.schedule Cricket.Sched.Fifo [ job "a" 0 10 0; job "b" 1000 10 0 ]
  in
  match placements with
  | [ a; b ] ->
      check Alcotest.int64 "a starts immediately" Time.zero a.Cricket.Sched.start;
      check Alcotest.int64 "b waits for arrival" (Time.us 1000)
        b.Cricket.Sched.start
  | _ -> Alcotest.fail "expected two placements"

let prop_sched_conservation =
  QCheck.Test.make ~count:100 ~name:"scheduler conserves work"
    QCheck.(list_of_size (Gen.int_range 1 20)
              (triple (int_range 0 1000) (int_range 1 500) (int_range 0 5)))
    (fun specs ->
      let jobs =
        List.mapi
          (fun i (arrival, duration, priority) ->
            job (Printf.sprintf "c%d" (i mod 3)) arrival duration priority)
          specs
      in
      List.for_all
        (fun policy ->
          let placements = Cricket.Sched.schedule policy jobs in
          List.length placements = List.length jobs
          && (* makespan >= total work *)
          Time.compare
            (Cricket.Sched.makespan placements)
            (List.fold_left
               (fun acc j -> Time.add acc j.Cricket.Sched.duration)
               Time.zero jobs)
          >= 0
          && (* every job starts at or after its arrival *)
          List.for_all
            (fun p ->
              Time.compare p.Cricket.Sched.start
                p.Cricket.Sched.job.Cricket.Sched.arrival
              >= 0)
            placements)
        [ Cricket.Sched.Fifo; Cricket.Sched.Round_robin; Cricket.Sched.Priority ])

let prop_rr_equal_history_name_order =
  (* Round robin breaks ties between equally-deserving clients by name:
     jobs that all arrive together from never-served clients must run in
     client-name order regardless of submission order. Determinism is
     what makes multi-tenant runs reproducible. *)
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun n ->
      shuffle_l (List.init n (Printf.sprintf "c%02d")))
  in
  QCheck.Test.make ~count:200
    ~name:"round robin serves equal-history clients in name order"
    (QCheck.make ~print:(String.concat ",") gen)
    (fun names ->
      let jobs = List.map (fun c -> job c 0 100 0) names in
      let served =
        Cricket.Sched.schedule Cricket.Sched.Round_robin jobs
        |> List.map (fun p -> p.Cricket.Sched.job.Cricket.Sched.client)
      in
      served = List.sort compare names
      && (* and the schedule itself is a pure function of the job set *)
      Cricket.Sched.schedule Cricket.Sched.Round_robin jobs
      = Cricket.Sched.schedule Cricket.Sched.Round_robin jobs)

let prop_priority_starvation_bounded =
  (* Strict priority can delay a low-priority job but never starve it:
     with finite work every job finishes by (last arrival + total
     duration), because the scheduler is work-conserving. *)
  QCheck.Test.make ~count:200 ~name:"priority starvation is bounded"
    QCheck.(
      list_of_size (Gen.int_range 1 20)
        (triple (int_range 0 1000) (int_range 1 500) (int_range 0 3)))
    (fun specs ->
      let jobs =
        List.mapi
          (fun i (arrival, duration, priority) ->
            job (Printf.sprintf "c%d" (i mod 4)) arrival duration priority)
          specs
      in
      let placements = Cricket.Sched.schedule Cricket.Sched.Priority jobs in
      let last_arrival =
        List.fold_left
          (fun acc j ->
            if Time.compare acc j.Cricket.Sched.arrival >= 0 then acc
            else j.Cricket.Sched.arrival)
          Time.zero jobs
      in
      let total =
        List.fold_left
          (fun acc j -> Time.add acc j.Cricket.Sched.duration)
          Time.zero jobs
      in
      let bound = Time.add last_arrival total in
      List.length placements = List.length jobs
      && List.for_all
           (fun p -> Time.compare p.Cricket.Sched.finish bound <= 0)
           placements)

(* Kernel pointers are whatever the client sends. A launch whose operand
   range leaves device memory — before it, or far past it — fails with
   Launch_failure rather than writing outside the arena, raising an
   untyped exception or trying to grow the arena to reach it; no arena
   byte changes and the server keeps serving. *)
let test_launch_pointers_outside_memory () =
  let _, server, client = make_pair () in
  let image =
    Cubin.Image.of_registry
      [ Gpusim.Kernels.vector_add_name; Gpusim.Kernels.histogram256_name ]
  in
  let modul = C.module_load client (Cubin.Image.build image) in
  let vadd = C.get_function client ~modul ~name:Gpusim.Kernels.vector_add_name in
  let hist =
    C.get_function client ~modul ~name:Gpusim.Kernels.histogram256_name
  in
  let n = 1024 in
  let d_a = C.malloc client (4 * n) and d_bins = C.malloc client 1024 in
  let ones = Bytes.create (4 * n) in
  for i = 0 to n - 1 do
    Bytes.set_int32_le ones (4 * i) (Int32.bits_of_float 1.5)
  done;
  C.memcpy_h2d client ~dst:d_a ones;
  let mem () =
    Gpusim.Gpu.memory (Cudasim.Context.gpu (Cricket.Server.context server))
  in
  let before = Gpusim.Memory.snapshot (mem ()) in
  let ptr p = Gpusim.Kernels.Ptr p and a = Gpusim.Kernels.Ptr (Int64.to_int d_a) in
  let one = { C.x = 1; y = 1; z = 1 } in
  List.iter
    (fun (f, args) ->
      expect_cuda_error Cudasim.Error.Launch_failure (fun () ->
          C.launch client f ~grid:one ~block:one args))
    [
      (vadd, [| a; a; ptr (-4096); Gpusim.Kernels.I32 (Int32.of_int n) |]);
      (vadd, [| a; a; ptr (1 lsl 40); Gpusim.Kernels.I32 (Int32.of_int n) |]);
      (hist, [| ptr (Int64.to_int d_bins); ptr (-1); Gpusim.Kernels.I32 16l |]);
    ];
  check Alcotest.bool "no arena byte changed" true
    (String.equal before (Gpusim.Memory.snapshot (mem ())));
  check Alcotest.int "next call served" 4 (C.get_device_count client);
  C.launch client vadd ~grid:one ~block:one
    [| a; a; a; Gpusim.Kernels.I32 (Int32.of_int n) |];
  C.device_synchronize client;
  let back = C.memcpy_d2h client ~src:d_a ~len:(4 * n) in
  check (Alcotest.float 0.0) "valid launch still computes" 3.0
    (Int32.float_of_bits (Bytes.get_int32_le back (4 * (n - 1))))

(* The loopback dispatches only complete records: a record cut short
   waits for its tail, and an oversized header claim is refused before
   anything is copied. *)
let test_local_partial_records () =
  let dispatched = ref [] in
  let tr =
    Cricket.Local.transport_of_dispatch (fun record ->
        dispatched := record :: !dispatched;
        "reply:" ^ record)
  in
  let buf = Bytes.create 64 in
  let wire = Oncrpc.Record.to_wire ~fragment_size:4 "0123456789" in
  Oncrpc.Transport.send_string tr (String.sub wire 0 2);
  check Alcotest.int "2-byte tail: no reply" 0 (tr.Oncrpc.Transport.recv buf 0 64);
  Oncrpc.Transport.send_string tr (String.sub wire 2 9);
  check Alcotest.int "first fragment only: no reply" 0
    (tr.Oncrpc.Transport.recv buf 0 64);
  check Alcotest.int "nothing dispatched" 0 (List.length !dispatched);
  Oncrpc.Transport.send_string tr (String.sub wire 11 (String.length wire - 11));
  Oncrpc.Record.write tr "next";
  check Alcotest.string "reply" "reply:0123456789" (Oncrpc.Record.read tr);
  check Alcotest.string "and the record behind it" "reply:next"
    (Oncrpc.Record.read tr);
  check (Alcotest.list Alcotest.string) "dispatched whole, in order"
    [ "0123456789"; "next" ] (List.rev !dispatched);
  dispatched := [];
  Oncrpc.Transport.send_string tr "\xff\xff\xff\xff";
  (match tr.Oncrpc.Transport.recv buf 0 64 with
  | _ -> Alcotest.fail "expected Oversized"
  | exception Oncrpc.Record.Oversized { claimed; _ } ->
      check Alcotest.int "claimed" 0x7fffffff claimed);
  check Alcotest.int "oversized not dispatched" 0 (List.length !dispatched);
  Oncrpc.Record.write tr "again";
  check Alcotest.string "after the refusal" "reply:again" (Oncrpc.Record.read tr)

let suite =
  [
    Alcotest.test_case "device forwarding" `Quick test_device_forwarding;
    Alcotest.test_case "memory forwarding" `Quick test_memory_forwarding;
    Alcotest.test_case "multi-fragment transfers" `Quick
      test_large_transfer_fragmentation;
    Alcotest.test_case "h2d zero-copy to transport" `Quick
      test_h2d_zero_copy_to_transport;
    Alcotest.test_case "module load + launch over RPC" `Quick
      test_module_and_launch;
    Alcotest.test_case "streams/events over RPC" `Quick
      test_streams_events_over_rpc;
    Alcotest.test_case "cuSOLVER over RPC" `Quick test_cusolver_over_rpc;
    Alcotest.test_case "cuBLAS L1/L2 over RPC" `Quick test_cublas_l1_over_rpc;
    Alcotest.test_case "checkpoint/restart over RPC" `Quick
      test_checkpoint_restart_rpc;
    Alcotest.test_case "cricket over real TCP" `Quick test_cricket_over_tcp;
    Alcotest.test_case "per-procedure stats" `Quick test_proc_stats;
    Alcotest.test_case "call tracing" `Quick test_trace;
    Alcotest.test_case "lifetime tracking" `Quick test_lifetime;
    Alcotest.test_case "with_buffer scoping" `Quick test_lifetime_with_buffer;
    Alcotest.test_case "transfer strategies" `Quick test_transfer_strategies;
    Alcotest.test_case "scheduler FIFO" `Quick test_sched_fifo;
    Alcotest.test_case "scheduler priority" `Quick test_sched_priority;
    Alcotest.test_case "scheduler round-robin fairness" `Quick
      test_sched_round_robin_fairness;
    Alcotest.test_case "scheduler idle gaps" `Quick test_sched_idle_gap;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_sched_conservation; prop_rr_equal_history_name_order;
        prop_priority_starvation_bounded;
      ]
  @ [
      Alcotest.test_case "launch pointers outside device memory" `Quick
        test_launch_pointers_outside_memory;
      Alcotest.test_case "loopback partial and oversized records" `Quick
        test_local_partial_records;
    ]
