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
  (* and the download path (read through into the returned buffer) is
     intact *)
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
  let obs =
    Obs.Recorder.create ~clock:(fun () -> Simnet.Engine.now engine) ()
  in
  Cricket.Server.set_obs server obs;
  let dispatch_spans () =
    List.filter
      (fun (s : Obs.Recorder.span_info) -> s.layer = "dispatch")
      (Obs.Recorder.spans obs)
  in
  (* off by default: nothing recorded *)
  ignore (C.get_device_count client);
  check Alcotest.int "disabled: empty" 0 (List.length (dispatch_spans ()));
  Obs.Recorder.set_enabled obs true;
  ignore (C.get_device_count client);
  let p = C.malloc client 4096 in
  C.memcpy_h2d client ~dst:p (Bytes.create 4096);
  C.free client p;
  let spans = dispatch_spans () in
  check Alcotest.int "four calls traced" 4 (List.length spans);
  (* span names are "<procedure> xid=<n>" *)
  let names =
    List.map
      (fun (s : Obs.Recorder.span_info) ->
        List.hd (String.split_on_char ' ' s.name))
      spans
  in
  check (Alcotest.list Alcotest.string) "names in order"
    [ "rpc_cudaGetDeviceCount"; "rpc_cudaMalloc"; "rpc_cudaMemcpyHtoD";
      "rpc_cudaFree" ]
    names;
  let rec monotone = function
    | (a : Obs.Recorder.span_info) :: (b :: _ as rest) ->
        Time.compare a.start_ns b.start_ns <= 0 && monotone rest
    | _ -> true
  in
  check Alcotest.bool "monotone timestamps" true (monotone spans);
  let memcpy = List.nth spans 2 in
  check Alcotest.bool "dispatch had a duration" true
    (Time.compare memcpy.stop_ns memcpy.start_ns > 0)

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

(* --- scheduler ---

   The Cricket.Sched policies, served by Tenancy.Core. A job is one core
   item whose work advances the clock by its duration. [schedule] serves a
   job list on a fresh core (1 ns quantum, unlimited admission) with one
   tenant per client, indexed in name order, whose priority class is that
   of the client's first job; it returns what ran in execution order with
   the core's result. *)

type placement = {
  client : string;
  arrival : Time.t;
  start : Time.t;
  finish : Time.t;
}

let job client arrival_us duration_us priority =
  (client, Time.us arrival_us, Time.us duration_us, priority)

let schedule policy jobs =
  let clients = List.sort_uniq compare (List.map (fun (c, _, _, _) -> c) jobs) in
  let priority name =
    List.find_map (fun (c, _, _, p) -> if c = name then Some p else None) jobs
    |> Option.get
  in
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  let spec name = { Tenancy.Core.name; priority = priority name; caps = None } in
  let core =
    Tenancy.Core.create ~engine ~server ~policy ~quantum_ns:1
      ~admission:Tenancy.Admission.unlimited
      ~tenants:(Array.of_list (List.map spec clients))
      ()
  in
  let placed = ref [] in
  let item (client, arrival, duration, _) =
    let work () =
      let start = Simnet.Engine.now engine in
      Simnet.Engine.advance engine duration;
      let finish = Simnet.Engine.now engine in
      placed := { client; arrival; start; finish } :: !placed
    in
    let tenant = List.length (List.filter (fun c -> c < client) clients) in
    { Tenancy.Core.tenant; arrival; work }
  in
  let result = Tenancy.Core.run core (List.map item jobs) in
  (List.rev !placed, result)

let served placements = List.map (fun p -> p.client) placements

let max_wait client placements =
  List.fold_left
    (fun acc p ->
      if p.client = client then Int64.max acc (Time.sub p.start p.arrival)
      else acc)
    Time.zero placements

let policies =
  [ Cricket.Sched.Fifo; Cricket.Sched.Round_robin; Cricket.Sched.Priority ]

let test_sched_fifo () =
  let jobs = [ job "b" 10 100 0; job "a" 0 100 0; job "c" 20 100 0 ] in
  let placements, result = schedule Cricket.Sched.Fifo jobs in
  check (Alcotest.list Alcotest.string) "fifo order" [ "a"; "b"; "c" ]
    (served placements);
  check Alcotest.int64 "makespan" (Time.us 300) result.Tenancy.Core.makespan;
  (* no overlap on the single GPU *)
  let rec no_overlap = function
    | a :: (b :: _ as rest) ->
        Time.compare a.finish b.start <= 0 && no_overlap rest
    | _ -> true
  in
  check Alcotest.bool "serialized" true (no_overlap placements)

let test_sched_priority () =
  (* all arrive while the GPU is busy; priority decides order *)
  let jobs =
    [ job "first" 0 100 5; job "low" 1 50 9; job "high" 2 50 1;
      job "mid" 3 50 4 ]
  in
  let placements, _ = schedule Cricket.Sched.Priority jobs in
  check (Alcotest.list Alcotest.string) "priority order"
    [ "first"; "high"; "mid"; "low" ]
    (served placements)

let test_sched_round_robin_fairness () =
  (* client "hog" floods; "small" submits interleaved jobs. RR must not
     starve "small". *)
  let hog = List.init 10 (fun i -> job "hog" i 100 0) in
  let small = List.init 5 (fun i -> job "small" (i * 2) 100 0) in
  let placements, result = schedule Cricket.Sched.Round_robin (hog @ small) in
  (* under FIFO, hog's earlier arrivals would all run first *)
  let fifo, _ = schedule Cricket.Sched.Fifo (hog @ small) in
  check Alcotest.bool "rr reduces small's max wait" true
    (Time.compare (max_wait "small" placements) (max_wait "small" fifo) < 0);
  check Alcotest.int "all jobs ran" 15 result.Tenancy.Core.completed;
  (* fairness index for equal-duration interleaved arrivals *)
  check Alcotest.bool "fairness in (0,1]" true
    (result.Tenancy.Core.jain > 0.5 && result.Tenancy.Core.jain <= 1.0)

let test_sched_idle_gap () =
  (* GPU idles between separated arrivals; start times respect arrival *)
  match schedule Cricket.Sched.Fifo [ job "a" 0 10 0; job "b" 1000 10 0 ] with
  | [ a; b ], _ ->
      check Alcotest.int64 "a starts immediately" Time.zero a.start;
      check Alcotest.int64 "b waits for arrival" (Time.us 1000) b.start
  | _ -> Alcotest.fail "expected two placements"

(* Random jobs from [n] clients with per-client priority classes 0..3. *)
let arb_jobs n =
  QCheck.(
    pair
      (array_of_size (Gen.return n) (int_range 0 3))
      (list_of_size (Gen.int_range 1 20)
         (pair (int_range 0 1000) (int_range 1 500))))

let jobs_of classes specs =
  let n = Array.length classes in
  List.mapi
    (fun i (arrival, duration) ->
      job (Printf.sprintf "c%d" (i mod n)) arrival duration classes.(i mod n))
    specs

let prop_sched_conservation =
  (* The core is work-conserving: whatever the policy picks, the GPU only
     idles while nothing has arrived, so every run ends when serving the
     jobs in arrival order would. Every job runs once, never before it
     arrives, and a run is a pure function of the job list. *)
  QCheck.Test.make ~count:100 ~name:"scheduler conserves work" (arb_jobs 3)
    (fun (classes, specs) ->
      let jobs = jobs_of classes specs in
      let busy_until =
        List.fold_left
          (fun free (_, arrival, duration, _) ->
            Time.add (Int64.max free arrival) duration)
          Time.zero
          (List.stable_sort
             (fun (_, a, _, _) (_, b, _, _) -> Time.compare a b)
             jobs)
      in
      List.for_all
        (fun policy ->
          let run () = schedule policy jobs in
          let placements, result = run () in
          List.length placements = List.length jobs
          && result.Tenancy.Core.makespan = busy_until
          && List.for_all
               (fun p -> Time.compare p.start p.arrival >= 0)
               placements
          && fst (run ()) = placements)
        policies)

let prop_rr_equal_history_enqueue_order =
  (* Tenants whose work arrives at the same instant are served in enqueue
     order, whatever their names or indices: never-served tenants join the
     ring in the order they become active, and equal arrivals are admitted
     in list order. Determinism is what makes multi-tenant runs
     reproducible. *)
  let gen =
    QCheck.Gen.(
      int_range 1 12 >>= fun n ->
      shuffle_l (List.init n (Printf.sprintf "c%02d")))
  in
  QCheck.Test.make ~count:200
    ~name:"round robin serves equal-history clients in enqueue order"
    (QCheck.make ~print:(String.concat ",") gen)
    (fun names ->
      let jobs = List.map (fun c -> job c 0 100 0) names in
      List.for_all
        (fun policy -> served (fst (schedule policy jobs)) = names)
        policies)

let prop_priority_starvation_bounded =
  (* Strict priority can delay a low-priority job but never starve it:
     with finite work every job finishes by (last arrival + total
     duration), because the scheduler is work-conserving. *)
  QCheck.Test.make ~count:200 ~name:"priority starvation is bounded"
    (arb_jobs 4)
    (fun (classes, specs) ->
      let jobs = jobs_of classes specs in
      let placements, _ = schedule Cricket.Sched.Priority jobs in
      let last_arrival =
        List.fold_left (fun acc (_, a, _, _) -> Int64.max acc a) Time.zero jobs
      in
      let total =
        List.fold_left (fun acc (_, _, d, _) -> Time.add acc d) Time.zero jobs
      in
      let bound = Time.add last_arrival total in
      List.length placements = List.length jobs
      && List.for_all (fun p -> Time.compare p.finish bound <= 0) placements)

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

(* --- the hand-written bulk handlers against the generated ones --- *)

module Proto = Cricket.Proto
module Rpc = Cricket.Proto.Rpc_cd_prog_def_v1

(* The generated server handlers of cudaMemcpyHtoD and cudaMemcpyDtoH,
   over the API calls the server made before: the reference the
   hand-written handlers must match byte for byte. *)
let generated_bulk_handlers ctx =
  [
    ( Rpc.Client.proc_rpc_cudaMemcpyHtoD,
      fun dec enc ->
        let dst = Xdr.Decode.uint64 dec in
        let data = Proto.xdr_decode_mem_data dec in
        Proto.xdr_encode_void_result enc
          { Proto.err = Cudasim.Error.code (Cudasim.Api.memcpy_h2d ctx ~dst data) }
    );
    ( Rpc.Client.proc_rpc_cudaMemcpyDtoH,
      fun dec enc ->
        let src = Xdr.Decode.uint64 dec in
        let len = Xdr.Decode.uint64 dec in
        Proto.xdr_encode_mem_result enc
          (match Cudasim.Api.memcpy_d2h ctx ~src ~len with
          | Ok data -> { Proto.err = 0; data }
          | Error e -> { Proto.err = Cudasim.Error.code e; data = Bytes.empty }) );
  ]

let bulk_server ~reference =
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~memory_capacity:(1 lsl 20)
      ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  let ctx = Cricket.Server.context server in
  Cudasim.Context.set_functional ctx true;
  if reference then
    Oncrpc.Server.register (Cricket.Server.rpc_server server)
      ~prog:Rpc.program_number ~vers:Rpc.version_number
      (generated_bulk_handlers ctx);
  let mem = Gpusim.Gpu.memory (Cudasim.Context.gpu ctx) in
  Gpusim.Memory.set_tracking mem true;
  (engine, server, mem)

(* A call record: the header, then [args] written as raw XDR. *)
let call_record ~xid ~proc args =
  let enc = Xdr.Encode.create () in
  Oncrpc.Message.encode_call_header enc ~xid ~prog:Rpc.program_number
    ~vers:Rpc.version_number ~proc ~cred:Oncrpc.Auth.none;
  args enc;
  Xdr.Encode.to_string enc

(* An opaque written by hand, so its length word ([claim]) and padding can
   lie. *)
let h2d_args ~dst ?(claim = fun n -> n) ?(pad = "\000\000\000") data enc =
  let n = String.length data in
  Xdr.Encode.uint64 enc dst;
  Xdr.Encode.uint enc (claim n);
  Xdr.Encode.opaque_fixed enc
    (Bytes.of_string (data ^ String.sub pad 0 (Xdr.Types.padding_of n)))

let d2h_args ~src ~len enc =
  Xdr.Encode.uint64 enc src;
  Xdr.Encode.uint64 enc len

let test_bulk_handlers_match_generated () =
  let e_new, s_new, m_new = bulk_server ~reference:false in
  let e_ref, s_ref, m_ref = bulk_server ~reference:true in
  let alloc size =
    let a = Cudasim.Api.malloc (Cricket.Server.context s_new) (Int64.of_int size) in
    let b = Cudasim.Api.malloc (Cricket.Server.context s_ref) (Int64.of_int size) in
    check Alcotest.bool "same pointer" true (a = b);
    Int64.to_int (Result.get_ok a)
  in
  let p = alloc 20_000 and q = alloc 3000 in
  let pattern n = String.init n (fun i -> Char.chr ((i * 37 + n) land 0xff)) in
  let h2d name ?claim ?pad ?(trailing = "") ~dst data =
    (name, Rpc.Client.proc_rpc_cudaMemcpyHtoD,
     (fun enc -> h2d_args ~dst:(Int64.of_int dst) ?claim ?pad data enc),
     trailing)
  in
  let d2h name ?(trailing = "") ~src len =
    (name, Rpc.Client.proc_rpc_cudaMemcpyDtoH,
     (fun enc -> d2h_args ~src:(Int64.of_int src) ~len enc), trailing)
  in
  let cases =
    [
      h2d "h2d valid, large" ~dst:p (pattern 10_001);
      h2d "h2d valid, small" ~dst:(q + 8) (pattern 13);
      h2d "h2d zero-length" ~dst:p "";
      h2d "h2d unallocated" ~dst:(p + 0x40000) (pattern 4096);
      h2d "h2d straddling the end" ~dst:(q + 3000 - 100) (pattern 2000);
      h2d "h2d truncated opaque" ~dst:p ~claim:(fun n -> n + 8) (pattern 2048);
      h2d "h2d bad padding" ~dst:p ~pad:"\000\001\000" (pattern 1025);
      h2d "h2d trailing bytes" ~dst:(p + 256) ~trailing:"\000\000\000\007"
        (pattern 5000);
      d2h "d2h valid, large" ~src:p 15_003L;
      d2h "d2h valid, small" ~src:(q + 8) 13L;
      d2h "d2h zero-length" ~src:p 0L;
      d2h "d2h negative length" ~src:p (-1L);
      d2h "d2h oversized" ~src:q 3001L;
      d2h "d2h far past memory" ~src:q 0x7fff_ffff_ffffL;
      d2h "d2h out of range" ~src:(p + 0x40000) 64L;
      d2h "d2h trailing bytes" ~src:p 4096L ~trailing:"\000\000\000\001";
    ]
  in
  List.iteri
    (fun i (name, proc, args, trailing) ->
      let request = call_record ~xid:(1000 + i) ~proc args ^ trailing in
      let got = Cricket.Server.dispatch s_new request in
      let expected = Cricket.Server.dispatch s_ref request in
      check Alcotest.string (name ^ ": reply") expected got;
      check Alcotest.bool (name ^ ": memory") true
        (String.equal (Gpusim.Memory.snapshot m_ref) (Gpusim.Memory.snapshot m_new));
      check Alcotest.bool (name ^ ": dirty pages") true
        (String.equal (Gpusim.Memory.delta m_ref) (Gpusim.Memory.delta m_new));
      check Alcotest.int64 (name ^ ": virtual time") (Simnet.Engine.now e_ref)
        (Simnet.Engine.now e_new))
    cases

(* --- downloads read through, against the full decode --- *)

(* A mem_result decoded from the whole reply, as downloads were before
   they read through. *)
let decode_mem_result dec =
  let err = Xdr.Decode.int dec in
  let data = Xdr.Decode.opaque_slice dec in
  Cudasim.Error.check (Cudasim.Error.of_code err);
  Xdr.Iovec.slice_to_bytes data

let download_stack kind ~fragment_size =
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~memory_capacity:(1 lsl 22)
      ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  Cudasim.Context.set_functional (Cricket.Server.context server) true;
  let dispatch = Cricket.Server.dispatch server in
  let profile = Unikernel.Config.hermit.Unikernel.Config.profile in
  let transport =
    match kind with
    | `Local -> Cricket.Local.transport server
    | `Sim ->
        Unikernel.Simchannel.transport
          (Unikernel.Simchannel.create ~engine ~client:profile ~dispatch ())
    | `Tcp ->
        Unikernel.Tcpchannel.transport
          (Unikernel.Tcpchannel.create ~engine ~client:profile ~dispatch ())
  in
  (engine, C.create ~fragment_size ~transport ())

(* Two identical stacks: one downloads with the client (read through), the
   other decodes the same reply whole. Result, client statistics and
   virtual time must agree — over the loopback, the cost-model channel and
   the TCP stack, for any request fragment size, downloads that fit one
   reply fragment or need two, and downloads that fail. *)
let prop_download_read_through =
  let kinds = [| ("loopback", `Local); ("simchannel", `Sim); ("tcpchannel", `Tcp) |] in
  let lens = [| 0; 1; 3; 1024; 4099; (1 lsl 20) - 32; (1 lsl 20) - 31; (1 lsl 20) + 5 |] in
  QCheck.Test.make ~count:30 ~name:"download read through == full decode"
    QCheck.(
      make
        ~print:(fun (k, fs, l, valid, stream) ->
          Printf.sprintf "%s, fragments of %d, len %d, valid %b, stream %b"
            (fst kinds.(k)) fs lens.(l) valid stream)
        Gen.(
          tup5 (int_bound 2)
            (oneof [ int_range 16 100_000; return Oncrpc.Record.default_fragment_size ])
            (int_bound (Array.length lens - 1)) bool bool))
    (fun (k, fragment_size, l, valid, stream) ->
      let len = lens.(l) in
      let payload = Apps.Workload.xorshift_bytes ~seed:len (max len 1) in
      let download ~read_through =
        let engine, client = download_stack (snd kinds.(k)) ~fragment_size in
        let p = C.malloc client (max len 1) in
        C.memcpy_h2d client ~dst:p payload;
        let src = if valid then p else Int64.add p 0x10_0000L in
        let result =
          match
            match (read_through, stream) with
            | true, false -> C.memcpy_d2h client ~src ~len
            | true, true -> C.memcpy_d2h_stream client ~src ~len ~stream:0L
            | false, _ ->
                let proc, args =
                  if stream then
                    ( Rpc.Client.proc_rpc_cudaMemcpyDtoHAsync,
                      fun enc ->
                        d2h_args ~src ~len:(Int64.of_int len) enc;
                        Xdr.Encode.uint64 enc 0L )
                  else
                    ( Rpc.Client.proc_rpc_cudaMemcpyDtoH,
                      d2h_args ~src ~len:(Int64.of_int len) )
                in
                Oncrpc.Client.call (C.rpc client) ~proc args decode_mem_result
          with
          | b -> Ok (Bytes.to_string b)
          | exception e -> Error (Printexc.to_string e)
        in
        (result, Oncrpc.Client.stats (C.rpc client), Simnet.Engine.now engine)
      in
      let ((result, _, _) as got) = download ~read_through:true in
      (match result with
      | Ok b when valid && b <> Bytes.sub_string payload 0 len ->
          QCheck.Test.fail_report "download corrupted"
      | _ -> ());
      got = download ~read_through:false)

(* --- the record-level loopback against the byte-stream one --- *)

(* The loopback as it was: every write lands in the raw transport's
   buffer, and the first read splits the whole stream into records,
   dispatches them and frames the replies into one string. The reference
   the record-level [Cricket.Local.transport_of_dispatch] must match. *)
let stream_transport_of_dispatch dispatch =
  let held = ref "" in
  Oncrpc.Transport.loopback ~peer:(fun request ->
      let stream = if !held = "" then request else !held ^ request in
      held := "";
      let records, stop = Record_walk.records stream in
      if stop < String.length stream then
        held := String.sub stream stop (String.length stream - stop);
      records
      |> List.filter_map (fun record ->
             match dispatch record with
             | "" -> None
             | reply -> Some (Oncrpc.Record.to_wire reply))
      |> String.concat "")

type loopback_item =
  | Call of { len : int; kind : [ `Reply | `Oneway | `Raise ];
              fragment_size : int option }
  | Refused of { prefix : int; claim : int; last : bool }
      (* a fragment of [prefix] bytes, then a header taking the record
         [claim] bytes past the 1 GiB limit *)

type loopback_step = Write of { len : int; vectored : bool } | Read of int

(* A call's first byte says what the dispatch does with it. *)
let marker = function `Reply -> 'r' | `Oneway -> 'o' | `Raise -> '!'

let loopback_dispatch log record =
  log := record :: !log;
  if record = "" then "empty"
  else
    match record.[0] with
    | 'o' -> ""
    | '!' -> failwith "dispatch refused"
    | _ -> "<" ^ record

let item_wire i = function
  | Call { len; kind; fragment_size } ->
      let body =
        String.init len (fun j ->
            if j = 0 then marker kind else Char.chr ((j * 31 + i) land 0xff))
      in
      Oncrpc.Record.to_wire ?fragment_size body
  | Refused { prefix; claim; last } ->
      let limit = Oncrpc.Record.default_max_record_size in
      (if prefix = 0 then ""
       else Oncrpc.Record.encode_header ~last:false prefix ^ String.make prefix 'p')
      ^ Oncrpc.Record.encode_header ~last (limit - prefix + claim)

let gen_loopback_scenario =
  let open QCheck.Gen in
  let len =
    frequency
      [ (6, int_range 0 64); (3, int_range 0 5000);
        (1, int_range ((1 lsl 20) - 5) ((2 lsl 20) + 5)) ]
  in
  let call =
    map3
      (fun len kind fragment_size -> Call { len; kind; fragment_size })
      len
      (frequency [ (6, return `Reply); (2, return `Oneway); (1, return `Raise) ])
      (frequency [ (1, return None); (2, map Option.some (int_range 1 100_000)) ])
  in
  let refused =
    map3
      (fun prefix claim last -> Refused { prefix; claim; last })
      (frequency [ (1, return 0); (1, int_range 1 16) ])
      (int_range 1 1000) bool
  in
  let read_len =
    frequency [ (3, int_range 1 3); (1, return 4); (3, int_range 1 100_000) ]
  in
  let* items = list_size (int_range 1 8) (frequency [ (8, call); (1, refused) ]) in
  let lens = List.mapi (fun i item -> String.length (item_wire i item)) items in
  let total = List.fold_left ( + ) 0 lens in
  (* cuts anywhere, and a few bytes after record starts: inside headers *)
  let* anywhere = list_size (int_range 0 12) (int_range 0 total) in
  let starts = List.rev (List.fold_left (fun acc l -> (List.hd acc + l) :: acc) [ 0 ] lens) in
  let* near =
    flatten_l
      (List.map
         (fun s -> map2 (fun keep d -> if keep then [ min total (s + d) ] else [])
                     bool (int_range 0 5))
         starts)
  in
  let cuts = List.sort_uniq compare ((total :: anywhere) @ List.concat near) in
  let* steps =
    flatten_l
      (snd
         (List.fold_left
            (fun (pos, acc) cut ->
              let write =
                map (fun vectored -> [ Write { len = cut - pos; vectored } ]) bool
              in
              let reads =
                frequency
                  [ (1, return []);
                    (1, list_size (int_range 1 3) (map (fun n -> Read n) read_len)) ]
              in
              (cut, acc @ [ write; reads ]))
            (0, []) cuts))
  in
  return (items, List.concat steps)

let print_loopback_scenario (items, steps) =
  let item = function
    | Call { len; kind; fragment_size } ->
        Printf.sprintf "call %d%s%s" len
          (match kind with `Reply -> "" | `Oneway -> " one-way" | `Raise -> " raising")
          (match fragment_size with None -> "" | Some f -> Printf.sprintf " /%d" f)
    | Refused { prefix; claim; last } ->
        Printf.sprintf "refused %d+%d%s" prefix claim (if last then " last" else "")
  in
  let step = function
    | Write { len; vectored } -> Printf.sprintf "w%d%s" len (if vectored then "v" else "")
    | Read n -> Printf.sprintf "r%d" n
  in
  String.concat ", " (List.map item items) ^ " | "
  ^ String.concat " " (List.map step steps)

(* What one loopback makes of a scenario: the records it dispatched, in
   order, and what every read returned, the reads draining it at the end
   included. *)
let run_loopback make (items, steps) =
  let stream = String.concat "" (List.mapi item_wire items) in
  let log = ref [] in
  let tr = make (loopback_dispatch log) in
  let read n =
    let buf = Bytes.create n in
    match tr.Oncrpc.Transport.recv buf 0 n with
    | got -> Ok (Bytes.sub_string buf 0 got)
    | exception e -> Error (Printexc.to_string e)
  in
  let pos = ref 0 in
  let reads =
    List.filter_map
      (function
        | Write { len; vectored } ->
            let chunk = String.sub stream !pos len in
            pos := !pos + len;
            if vectored && len > 1 then
              Oncrpc.Transport.writev tr
                [ Xdr.Iovec.slice ~off:0 ~len:(len / 2) chunk;
                  Xdr.Iovec.slice ~off:(len / 2) ~len:(len - (len / 2)) chunk ]
            else Oncrpc.Transport.send_string tr chunk;
            None
        | Read n -> Some (read n))
      steps
  in
  let rec drain acc =
    match read 65_536 with
    | Ok "" | Error _ as r -> List.rev (r :: acc)
    | r -> drain (r :: acc)
  in
  (List.rev !log, reads @ drain [])

let prop_loopback_matches_stream =
  QCheck.Test.make ~count:150
    ~name:"record-level loopback == byte-stream loopback"
    (QCheck.make ~print:print_loopback_scenario gen_loopback_scenario)
    (fun scenario ->
      run_loopback Cricket.Local.transport_of_dispatch scenario
      = run_loopback stream_transport_of_dispatch scenario)

(* --- the loopback's payload-sized allocations --- *)

let major_words () = (Gc.quick_stat ()).Gc.major_words

(* Round trips over a channel, counted in payload-sized blocks of
   major-heap words after a warm-up round trip: [(h2d, d2h)]. *)
let round_trip_payloads client len =
  let payload_words = float_of_int (len / (Sys.word_size / 8)) in
  let payloads words = Float.to_int (Float.round (words /. payload_words)) in
  let payload = Apps.Workload.xorshift_bytes ~seed:5 len in
  let dst = C.malloc client len in
  let round_trip () =
    let w0 = major_words () in
    C.memcpy_h2d client ~dst payload;
    let w1 = major_words () in
    let back = C.memcpy_d2h client ~src:dst ~len in
    let w2 = major_words () in
    check Alcotest.bool "payload back intact" true (Bytes.equal back payload);
    (payloads (w1 -. w0), payloads (w2 -. w1))
  in
  ignore (round_trip ());
  round_trip ()

(* Over [Cricket.Local]: uploading, a record of one fragment is copied
   once, into its exactly-sized buffer, and a longer one once more to join
   its fragments; downloading, the server builds its reply once and the
   client allocates the buffer it returns, while the loopback serves the
   reply straight into the client's reads. *)
let test_local_round_trip_allocations () =
  let round_trips len =
    let _, _, client = make_pair () in
    round_trip_payloads client len
  in
  let h2d, d2h = round_trips (512 lsl 10) in
  check Alcotest.bool (Printf.sprintf "512 KiB h2d: %d <= 1" h2d) true (h2d <= 1);
  check Alcotest.bool (Printf.sprintf "512 KiB d2h: %d <= 2" d2h) true (d2h <= 2);
  let h2d, d2h = round_trips (4 lsl 20) in
  check Alcotest.bool (Printf.sprintf "4 MiB h2d: %d <= 2" h2d) true (h2d <= 2);
  check Alcotest.bool (Printf.sprintf "4 MiB d2h: %d <= 2" d2h) true (d2h <= 2)

(* Over [Unikernel.Simchannel], which frames through the same inbox and
   outbox as the loopback: a multi-fragment upload costs what it costs
   there, and a round trip no more than two uploads. *)
let test_simchannel_round_trip_allocations () =
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~memory_capacity:(1 lsl 26)
      ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  let channel =
    Unikernel.Simchannel.create ~engine
      ~client:Unikernel.Config.hermit.Unikernel.Config.profile
      ~dispatch:(Cricket.Server.dispatch server) ()
  in
  let client = C.create ~transport:(Unikernel.Simchannel.transport channel) () in
  let h2d, d2h = round_trip_payloads client (4 lsl 20) in
  check Alcotest.bool (Printf.sprintf "4 MiB h2d: %d <= 2" h2d) true (h2d <= 2);
  check Alcotest.bool
    (Printf.sprintf "4 MiB round trip: %d <= 4" (h2d + d2h))
    true
    (h2d + d2h <= 4)

(* --- cuModule from a compressed cubin file --- *)

(* The paper's Cricket extension: load a module from a (compressed) cubin
   file and reach its globals by name, with the init bytes the image
   carries. *)
let test_module_file_globals () =
  let _, _, client = make_pair () in
  let init = Bytes.init 24 (fun i -> Char.chr ((i * 7) + 1)) in
  let image =
    { (Cubin.Image.of_registry [ Gpusim.Kernels.fill_name ]) with
      Cubin.Image.globals =
        [ { Cubin.Image.name = "table"; size = 24; init = Some init } ] }
  in
  let cubin = Cubin.Image.build ~compress:true image in
  check Alcotest.bool "compressed cubin" true (Cubin.Image.is_compressed cubin);
  let path = Filename.temp_file "cricket-module" ".cubin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc cubin);
      let modul = C.module_load_file client path in
      let ptr, size = C.get_global client ~modul ~name:"table" in
      check Alcotest.int "global size from the image" 24 size;
      check Alcotest.string "global holds its init bytes"
        (Bytes.to_string init)
        (Bytes.to_string (C.memcpy_d2h client ~src:ptr ~len:size));
      let fresh = Bytes.init size (fun i -> Char.chr (255 - i)) in
      C.memcpy_h2d client ~dst:ptr fresh;
      check Alcotest.string "h2d then d2h round-trips" (Bytes.to_string fresh)
        (Bytes.to_string (C.memcpy_d2h client ~src:ptr ~len:size));
      expect_cuda_error Cudasim.Error.Not_found (fun () ->
          C.get_global client ~modul ~name:"missing"))

(* --- downloads outside the at-most-once cache --- *)

(* cudaMemcpyDtoH is registered idempotent: once its reply is read, the
   server keeps nothing of it. *)
let test_download_reply_not_retained () =
  let _, server, client = make_pair () in
  let len = 4 lsl 20 in
  let src = C.malloc client len in
  ignore (C.memcpy_d2h client ~src ~len : bytes);
  Gc.full_major ();
  let bytes = Obj.reachable_words (Obj.repr server) * (Sys.word_size / 8) in
  check Alcotest.bool
    (Printf.sprintf "server reaches %d bytes after a 4 MiB download" bytes)
    true
    (bytes < 1 lsl 20)

(* A lost download reply is served by running the copy again: the client
   gets the right bytes, no reply comes from the cache, and the server
   counts both executions. Records 0-3 are the malloc and the upload,
   record 4 the download's request and record 5 its reply. *)
let test_lost_download_runs_again () =
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~memory_capacity:(1 lsl 26)
      ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  let fault = Simnet.Fault.make { Simnet.Fault.none with drop_nth = [ 5 ] } in
  let channel =
    Unikernel.Simchannel.create ~engine ~fault
      ~client:Unikernel.Config.hermit.Unikernel.Config.profile
      ~dispatch:(Cricket.Server.dispatch server) ()
  in
  let client = C.create ~transport:(Unikernel.Simchannel.transport channel) () in
  Oncrpc.Client.set_retry (C.rpc client) (Some Oncrpc.Client.default_retry);
  let len = 100_000 in
  let payload = Apps.Workload.xorshift_bytes ~seed:9 len in
  let src = C.malloc client len in
  C.memcpy_h2d client ~dst:src payload;
  let back = C.memcpy_d2h client ~src ~len in
  check Alcotest.bool "download intact" true (Bytes.equal back payload);
  check Alcotest.int "one reply dropped" 1
    (Simnet.Fault.stats fault).Simnet.Fault.dropped;
  check Alcotest.int "one retransmission" 1
    (Oncrpc.Client.stats (C.rpc client)).Oncrpc.Client.retries;
  check Alcotest.int "no dup hit" 0 (Cricket.Server.dup_hits server);
  check Alcotest.int "malloc, upload and two downloads served" 4
    (Cricket.Server.calls_served server)

(* cudaMemcpyDtoHAsync consumes the sticky error, so it stays cached: a
   retransmission replays the error instead of running again into a
   success. *)
let test_async_download_replays_error () =
  let _, server, _ = make_pair () in
  let ctx = Cricket.Server.context server in
  let src = Result.get_ok (Cudasim.Api.malloc ctx 4096L) in
  Cudasim.Context.set_async_error ctx Cudasim.Error.Invalid_value;
  let request =
    call_record ~xid:77 ~proc:Rpc.Client.proc_rpc_cudaMemcpyDtoHAsync
      (fun enc ->
        d2h_args ~src ~len:4096L enc;
        Xdr.Encode.uint64 enc 0L)
  in
  let error_of reply =
    let dec = Xdr.Decode.of_string reply in
    ignore (Oncrpc.Message.decode dec : Oncrpc.Message.t);
    (Proto.xdr_decode_mem_result dec).Proto.err
  in
  let first = Cricket.Server.dispatch server request in
  check Alcotest.int "the sticky error"
    (Cudasim.Error.code Cudasim.Error.Invalid_value)
    (error_of first);
  let again = Cricket.Server.dispatch server request in
  check Alcotest.string "retransmission replays the cached error" first again;
  check Alcotest.int "answered from the cache" 1
    (Cricket.Server.dup_hits server);
  let fresh =
    call_record ~xid:78 ~proc:Rpc.Client.proc_rpc_cudaMemcpyDtoHAsync
      (fun enc ->
        d2h_args ~src ~len:4096L enc;
        Xdr.Encode.uint64 enc 0L)
  in
  check Alcotest.int "a new call finds the error consumed" 0
    (error_of (Cricket.Server.dispatch server fresh))

(* cudaDeviceReset over RPC: the device's allocations go, so its memory
   is free again and an old pointer no longer reads. *)
let test_device_reset_over_rpc () =
  let _, _, client = make_pair () in
  let free_before, total = C.mem_get_info client in
  let ptr = C.malloc client (1 lsl 20) in
  check Alcotest.bool "allocation took memory" true
    (fst (C.mem_get_info client) < free_before);
  C.device_reset client;
  check Alcotest.(pair int64 int64) "memory free again" (free_before, total)
    (C.mem_get_info client);
  expect_cuda_error Cudasim.Error.Invalid_value (fun () ->
      C.memcpy_d2h client ~src:ptr ~len:16)

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
        prop_sched_conservation; prop_rr_equal_history_enqueue_order;
        prop_priority_starvation_bounded;
      ]
  @ [
      Alcotest.test_case "launch pointers outside device memory" `Quick
        test_launch_pointers_outside_memory;
      Alcotest.test_case "loopback partial and oversized records" `Quick
        test_local_partial_records;
      Alcotest.test_case "bulk handlers match the generated ones" `Quick
        test_bulk_handlers_match_generated;
    ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_download_read_through ]
  @ [
      QCheck_alcotest.to_alcotest prop_loopback_matches_stream;
      Alcotest.test_case "loopback payload copies" `Quick
        test_local_round_trip_allocations;
      Alcotest.test_case "simchannel payload copies" `Quick
        test_simchannel_round_trip_allocations;
      Alcotest.test_case "cuModule globals from a cubin file" `Quick
        test_module_file_globals;
      Alcotest.test_case "download reply not retained" `Quick
        test_download_reply_not_retained;
      Alcotest.test_case "lost download reply runs again" `Quick
        test_lost_download_runs_again;
      Alcotest.test_case "async download replays its cached error" `Quick
        test_async_download_replays_error;
      Alcotest.test_case "device reset over RPC" `Quick
        test_device_reset_over_rpc;
    ]
