module P = Proto.Rpc_cd_prog_def_v1.Client

type func = { handle : int64; info : Cubin.Image.kernel_info }

type dim3 = Gpusim.Kernels.dim3 = { x : int; y : int; z : int }

exception Session_lost of string

let () =
  Printexc.register_printer (function
    | Session_lost msg -> Some ("Cricket.Client.Session_lost: " ^ msg)
    | _ -> None)

(* Session recovery (tentpole of the fault-tolerance work):

   - the client journals every state-mutating call since the last
     checkpoint, as a closure that re-issues it;
   - every [checkpoint_every] journaled calls it asks the server to
     checkpoint, then truncates the journal;
   - when the connection dies, the RPC layer reconnects (backing off in
     virtual time) and runs [recover]: restore the latest checkpoint, then
     replay the journal tail in order — the failed call is retransmitted
     by the RPC retry loop afterwards, so the application never notices;
   - server handles may come back different after a replay, so the journal
     records a remap from the handle the application holds to the server's
     current one, applied at the wire boundary by [tr]. (Replay is
     deterministic, so remaps are identities in practice — but the
     mechanism is what makes that an optimization, not an assumption.)

   A crash during recovery, or an exhausted retry budget, marks the
   session lost: the transport is swapped for one that raises, so every
   subsequent call — sync, one-way or pipelined — fails fast with
   {!Session_lost} instead of hanging. *)
type recovery = {
  checkpoint_every : int;
  checkpoint_name : string;
  journal : (unit -> unit) Queue.t;
  remap : (int64, int64) Hashtbl.t;  (* app-visible handle -> server handle *)
  mutable has_checkpoint : bool;
  mutable recovering : bool;
  mutable lost : bool;
  mutable recoveries : int;
  mutable replayed : int;
  mutable checkpoints : int;
}

type t = {
  rpc : Oncrpc.Client.t;
  launch_extra_ns : int;
  charge : int -> unit;
  (* kernel metadata per loaded module, parsed client-side *)
  modules : (int64, Cubin.Image.t) Hashtbl.t;
  mutable memcpy_up : int;
  mutable memcpy_down : int;
  mutable recovery : recovery option;
  doorbell : Oncrpc.Doorbell.t option;
      (* present when this client batches small calls doorbell-style *)
}

(* Each client gets its own 16M-wide xid space: concurrent clients sharing
   one server (multi-tenancy) must never alias in the server's xid-keyed
   duplicate-request cache. Real clients randomize the origin instead.
   Atomic: sharded harnesses create clients from several domains at once. *)
let xid_space = Atomic.make 1

let create ?(launch_extra_ns = 0) ?(charge = fun _ -> ()) ?fragment_size
    ?doorbell ?doorbell_schedule ~transport () =
  (* with a doorbell policy the RPC client talks through the batching
     wrapper: N small calls coalesce into one wire submit, flushed by
     count/bytes/deadline and always before a blocking receive *)
  let doorbell =
    Option.map
      (fun policy ->
        Oncrpc.Doorbell.wrap ~policy ?schedule:doorbell_schedule transport)
      doorbell
  in
  let transport =
    match doorbell with
    | Some db -> Oncrpc.Doorbell.transport db
    | None -> transport
  in
  let rpc = P.create ?fragment_size ~transport () in
  let space = Atomic.fetch_and_add xid_space 1 in
  Oncrpc.Client.set_xid_origin rpc
    (Int32.mul (Int32.of_int space) 0x1000000l);
  {
    rpc;
    launch_extra_ns;
    charge;
    modules = Hashtbl.create 4;
    memcpy_up = 0;
    memcpy_down = 0;
    recovery = None;
    doorbell;
  }

let close t = Oncrpc.Client.close t.rpc
let rpc t = t.rpc

let set_obs t obs =
  Oncrpc.Client.set_obs ~proc_name:Server.proc_name t.rpc obs;
  Option.iter (fun db -> Oncrpc.Doorbell.set_obs db obs) t.doorbell
let api_calls t = (Oncrpc.Client.stats t.rpc).Oncrpc.Client.calls
let bytes_to_server t = (Oncrpc.Client.stats t.rpc).Oncrpc.Client.bytes_sent

let bytes_from_server t =
  (Oncrpc.Client.stats t.rpc).Oncrpc.Client.bytes_received

let charge_host t ns = t.charge ns
let memcpy_bytes_up t = t.memcpy_up
let memcpy_bytes_down t = t.memcpy_down

let check err = Cudasim.Error.check (Cudasim.Error.of_code err)

let check_void (r : Proto.void_result) = check r.Proto.err

let check_int (r : Proto.int_result) =
  check r.Proto.err;
  r.Proto.data

let check_u64 (r : Proto.u64_result) =
  check r.Proto.err;
  r.Proto.data

let check_float (r : Proto.float_result) =
  check r.Proto.err;
  r.Proto.data

(* --- session recovery machinery --- *)

(* Translate an application-visible handle (device pointer, stream, event,
   module, function, library handle) to the server's current handle. *)
let tr t h =
  match t.recovery with
  | None -> h
  | Some r -> ( match Hashtbl.find_opt r.remap h with Some h' -> h' | None -> h)

let set_remap r ~old ~fresh =
  if Int64.equal old fresh then Hashtbl.remove r.remap old
  else Hashtbl.replace r.remap old fresh

let lose t msg =
  (match t.recovery with
  | None -> ()
  | Some r ->
      r.lost <- true;
      (* Sticky: every later use of this session — including one-way sends
         and pipelined batches — must fail fast, never hang on a dead
         connection. *)
      let raise_lost _ = raise (Session_lost msg) in
      Oncrpc.Client.set_transport t.rpc
        (Oncrpc.Transport.make
           ~send:(fun _ _ _ -> raise_lost ())
           ~recv:(fun _ _ _ -> raise_lost ())
           ~close:(fun () -> ())
           ()));
  Session_lost msg

let take_checkpoint t r =
  check_void (P.rpc_checkpoint t.rpc r.checkpoint_name);
  (* only truncate once the checkpoint RPC has succeeded: until then the
     journal tail is still the only copy of post-checkpoint state *)
  r.has_checkpoint <- true;
  r.checkpoints <- r.checkpoints + 1;
  Queue.clear r.journal

(* Whether a call made now is journaled: recovery is armed and the
   session is neither replaying nor lost. Stubs build a redo closure only
   then, so a session without recovery allocates nothing for the
   journal. *)
let journaling t =
  match t.recovery with
  | Some r -> not (r.recovering || r.lost)
  | None -> false

(* Append a replayable closure for a call that mutates server state. Runs
   after the call succeeded (sync) or its record was sent (one-way): replay
   rebuilds all state from the checkpoint, so a call that executed before
   the crash and its journaled replay never double-apply. *)
let journal t redo =
  match t.recovery with
  | None -> ()
  | Some r when r.recovering || r.lost -> ()
  | Some r ->
      Queue.add redo r.journal;
      (* Baseline at the first mutation: recovery is then always
         restore-then-replay. Without a baseline, replay lands on whatever
         state the server happens to hold — a duplicate recovery (lost ack,
         crash mid-replay) would double-apply the journal. *)
      if (not r.has_checkpoint) || Queue.length r.journal >= r.checkpoint_every
      then take_checkpoint t r

(* Run a state-mutating call and journal it. When the session does not
   journal, a stub calls its closed [issue] function in tail position
   instead: no closure is built, and no frame of the stub holds its
   arguments while the call runs. (A bulk upload whose payload stayed on
   the stack for the call's length changed when the major GC freed the
   round trip's other buffers, and raised the heap peak by a payload.) *)
let journaled t redo =
  redo ();
  journal t redo

(* Journal a call that returned server handle [old]: its replay maps
   [old] to the handle the server gives this time. *)
let journal_handle t old reissue =
  match t.recovery with
  | None -> ()
  | Some r -> journal t (fun () -> set_remap r ~old ~fresh:(reissue ()))

let recover t =
  match t.recovery with
  | None -> ()
  | Some r ->
      if r.lost then raise (Session_lost "session already lost");
      if r.recovering then
        (* the server crashed again while we were replaying into it *)
        raise (lose t "server crashed during recovery");
      r.recovering <- true;
      Fun.protect
        ~finally:(fun () -> r.recovering <- false)
        (fun () ->
          try
            if r.has_checkpoint then
              check_void (P.rpc_restore t.rpc r.checkpoint_name);
            Queue.iter (fun redo -> redo ()) r.journal;
            r.replayed <- r.replayed + Queue.length r.journal;
            r.recoveries <- r.recoveries + 1
          with
          | Session_lost _ as e -> raise e
          | e ->
              (* the server refused the restore or part of the replay (an
                 expired lease, a revoked credential): resuming would leave
                 the session on partially replayed state, so it is lost *)
              raise (lose t ("recovery refused: " ^ Printexc.to_string e)))

let enable_recovery ?(retry = Oncrpc.Client.default_retry)
    ?(checkpoint_every = 64) ?(checkpoint_name = "session-auto") t ~now ~sleep
    ~reconnect () =
  if checkpoint_every < 1 then invalid_arg "Client.enable_recovery";
  let r =
    {
      checkpoint_every;
      checkpoint_name;
      journal = Queue.create ();
      remap = Hashtbl.create 16;
      has_checkpoint = false;
      recovering = false;
      lost = false;
      recoveries = 0;
      replayed = 0;
      checkpoints = 0;
    }
  in
  t.recovery <- Some r;
  Oncrpc.Client.set_retry t.rpc (Some retry);
  Oncrpc.Client.set_clock t.rpc ~now ~sleep;
  Oncrpc.Client.set_reconnect t.rpc reconnect;
  Oncrpc.Client.set_on_reconnect t.rpc (fun () -> recover t);
  Oncrpc.Client.set_give_up t.rpc (fun exn ->
      match exn with Session_lost _ -> exn | _ -> lose t (Printexc.to_string exn))

let session_lost t =
  match t.recovery with None -> false | Some r -> r.lost

let recoveries t =
  match t.recovery with None -> 0 | Some r -> r.recoveries

let replayed_calls t =
  match t.recovery with None -> 0 | Some r -> r.replayed

let checkpoints_taken t =
  match t.recovery with None -> 0 | Some r -> r.checkpoints

(* --- device management --- *)

let get_device_count t = check_int (P.rpc_cudaGetDeviceCount t.rpc ())

let set_device t i =
  let issue t i = check_void (P.rpc_cudaSetDevice t.rpc i) in
  if journaling t then journaled t (fun () -> issue t i) else issue t i

let get_device t = check_int (P.rpc_cudaGetDevice t.rpc ())

type device_properties = {
  name : string;
  total_global_mem : int64;
  multi_processor_count : int;
  clock_rate_khz : int;
  compute_major : int;
  compute_minor : int;
  memory_bandwidth : int64;
}

let get_device_properties t i =
  let r = P.rpc_cudaGetDeviceProperties t.rpc i in
  check r.Proto.err;
  let p = r.Proto.props in
  {
    name = p.Proto.name;
    total_global_mem = p.Proto.total_global_mem;
    multi_processor_count = p.Proto.multi_processor_count;
    clock_rate_khz = p.Proto.clock_rate_khz;
    compute_major = p.Proto.compute_major;
    compute_minor = p.Proto.compute_minor;
    memory_bandwidth = p.Proto.memory_bandwidth;
  }

let device_synchronize t = check_void (P.rpc_cudaDeviceSynchronize t.rpc ())

let device_reset t =
  let issue t = check_void (P.rpc_cudaDeviceReset t.rpc ()) in
  if journaling t then journaled t (fun () -> issue t) else issue t

(* --- memory --- *)

let malloc t size =
  let issue t size = check_u64 (P.rpc_cudaMalloc t.rpc (Int64.of_int size)) in
  let ptr = issue t size in
  if journaling t then journal_handle t ptr (fun () -> issue t size);
  ptr

let free t ptr =
  let issue t ptr = check_void (P.rpc_cudaFree t.rpc (tr t ptr)) in
  if journaling t then journaled t (fun () -> issue t ptr) else issue t ptr

let memcpy_h2d t ~dst data =
  t.memcpy_up <- t.memcpy_up + Bytes.length data;
  let issue t dst data =
    check_void (P.rpc_cudaMemcpyHtoD t.rpc (tr t dst) data)
  in
  if journaling t then journaled t (fun () -> issue t dst data)
  else issue t dst data

(* A mem_result decoded by hand: the error is checked, then the payload is
   copied out of the reply once. *)
let mem_data dec =
  let err = Xdr.Decode.int dec in
  let data = Xdr.Decode.opaque_slice dec in
  check err;
  Xdr.Iovec.slice_to_bytes data

(* Downloads read their reply through: a successful one lands straight in
   the buffer returned to the caller (see {!Oncrpc.Client.call_opaque});
   anything else is decoded by [mem_data]. Wire format is the generated
   stub's. *)
let read_mem t ~proc ~len encode_args =
  Oncrpc.Client.call_opaque t.rpc ~proc encode_args ~len mem_data

let memcpy_d2h t ~src ~len =
  t.memcpy_down <- t.memcpy_down + len;
  read_mem t ~proc:P.proc_rpc_cudaMemcpyDtoH ~len (fun enc ->
      Xdr.Encode.uint64 enc (tr t src);
      Xdr.Encode.uint64 enc (Int64.of_int len))

let memcpy_d2d t ~dst ~src ~len =
  let issue t dst src len =
    check_void
      (P.rpc_cudaMemcpyDtoD t.rpc (tr t dst) (tr t src) (Int64.of_int len))
  in
  if journaling t then journaled t (fun () -> issue t dst src len)
  else issue t dst src len

let memset t ~ptr ~value ~len =
  let issue t ptr value len =
    check_void (P.rpc_cudaMemset t.rpc (tr t ptr) value (Int64.of_int len))
  in
  if journaling t then journaled t (fun () -> issue t ptr value len)
  else issue t ptr value len

let mem_get_info t =
  let r = P.rpc_cudaMemGetInfo t.rpc () in
  check r.Proto.err;
  (r.Proto.free_bytes, r.Proto.total_bytes)

(* --- stream-ordered (one-way) operations ---

   These stubs return as soon as the record is written; no reply exists.
   Server-side failures latch and surface at the next synchronizing call
   (stream_synchronize / device_synchronize / memcpy_d2h_stream). *)

let memcpy_h2d_async t ~dst ~stream data =
  t.memcpy_up <- t.memcpy_up + Bytes.length data;
  let issue t dst stream data =
    P.rpc_cudaMemcpyHtoDAsync t.rpc (tr t dst) data (tr t stream)
  in
  if journaling t then journaled t (fun () -> issue t dst stream data)
  else issue t dst stream data

let memset_async t ~ptr ~value ~len ~stream =
  let issue t ptr value len stream =
    P.rpc_cudaMemsetAsync t.rpc (tr t ptr) value (Int64.of_int len)
      (tr t stream)
  in
  if journaling t then journaled t (fun () -> issue t ptr value len stream)
  else issue t ptr value len stream

let memcpy_d2h_stream t ~src ~len ~stream =
  t.memcpy_down <- t.memcpy_down + len;
  read_mem t ~proc:P.proc_rpc_cudaMemcpyDtoHAsync ~len (fun enc ->
      Xdr.Encode.uint64 enc (tr t src);
      Xdr.Encode.uint64 enc (Int64.of_int len);
      Xdr.Encode.uint64 enc (tr t stream))

(* --- streams and events --- *)

let stream_create t =
  let issue t = check_u64 (P.rpc_cudaStreamCreate t.rpc ()) in
  let h = issue t in
  if journaling t then journal_handle t h (fun () -> issue t);
  h

let stream_destroy t h =
  let issue t h = check_void (P.rpc_cudaStreamDestroy t.rpc (tr t h)) in
  if journaling t then journaled t (fun () -> issue t h) else issue t h

let stream_synchronize t h =
  check_void (P.rpc_cudaStreamSynchronize t.rpc (tr t h))

let event_create t =
  let issue t = check_u64 (P.rpc_cudaEventCreate t.rpc ()) in
  let h = issue t in
  if journaling t then journal_handle t h (fun () -> issue t);
  h

let event_destroy t h =
  let issue t h = check_void (P.rpc_cudaEventDestroy t.rpc (tr t h)) in
  if journaling t then journaled t (fun () -> issue t h) else issue t h

let event_record t ~event ~stream =
  let issue t event stream =
    check_void (P.rpc_cudaEventRecord t.rpc (tr t event) (tr t stream))
  in
  if journaling t then journaled t (fun () -> issue t event stream)
  else issue t event stream

let event_synchronize t h =
  check_void (P.rpc_cudaEventSynchronize t.rpc (tr t h))

let event_elapsed_ms t ~start ~stop =
  check_float (P.rpc_cudaEventElapsedTime t.rpc (tr t start) (tr t stop))

let stream_wait_event t ~stream ~event =
  let issue t stream event =
    P.rpc_cudaStreamWaitEvent t.rpc (tr t stream) (tr t event)
  in
  if journaling t then journaled t (fun () -> issue t stream event)
  else issue t stream event

let event_record_async t ~event ~stream =
  let issue t event stream =
    P.rpc_cudaEventRecordAsync t.rpc (tr t event) (tr t stream)
  in
  if journaling t then journaled t (fun () -> issue t event stream)
  else issue t event stream

(* --- modules and launches --- *)

let parse_module_metadata data =
  if Cubin.Fatbin.is_fatbin data then begin
    match Cubin.Fatbin.parse data with
    | Error _ -> None
    | Ok fatbin -> (
        (* Keep metadata of the newest-arch image; the server picks per
           device, but parameter layouts are identical across arches. *)
        match fatbin.Cubin.Fatbin.images with
        | [] -> None
        | images -> (
            let _, best =
              List.fold_left
                (fun ((bcc, _) as best) ((cc, img) : (int * int) * string) ->
                  if cc > bcc then (cc, img) else best)
                (List.hd images |> fun (cc, img) -> (cc, img))
                images
            in
            match Cubin.Image.parse best with Ok i -> Some i | Error _ -> None))
  end
  else
    match Cubin.Image.parse data with Ok i -> Some i | Error _ -> None

let module_load t data =
  match parse_module_metadata data with
  | None -> raise (Cudasim.Error.Cuda_error Cudasim.Error.Invalid_value)
  | Some image ->
      let issue t data =
        check_u64 (P.rpc_cuModuleLoadData t.rpc (Bytes.of_string data))
      in
      let handle = issue t data in
      Hashtbl.replace t.modules handle image;
      if journaling t then journal_handle t handle (fun () -> issue t data);
      handle

let module_load_file t path =
  let ic = open_in_bin path in
  let data =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  module_load t data

let module_unload t handle =
  let issue t handle = check_void (P.rpc_cuModuleUnload t.rpc (tr t handle)) in
  if journaling t then journaled t (fun () -> issue t handle)
  else issue t handle;
  Hashtbl.remove t.modules handle

let get_function t ~modul ~name =
  let info =
    match Hashtbl.find_opt t.modules modul with
    | None -> raise (Cudasim.Error.Cuda_error Cudasim.Error.Invalid_handle)
    | Some image -> (
        match Cubin.Image.find_kernel image name with
        | None -> raise (Cudasim.Error.Cuda_error Cudasim.Error.Not_found)
        | Some info -> info)
  in
  let issue t modul name =
    check_u64 (P.rpc_cuModuleGetFunction t.rpc (tr t modul) name)
  in
  let handle = issue t modul name in
  if journaling t then journal_handle t handle (fun () -> issue t modul name);
  { handle; info }

let get_global t ~modul ~name =
  let issue t modul name =
    let r = P.rpc_cuModuleGetGlobal t.rpc (tr t modul) name in
    check r.Proto.err;
    (r.Proto.ptr, Int64.to_int r.Proto.size)
  in
  let ptr, size = issue t modul name in
  (* read-only, but the returned device pointer is a handle the app will
     pass back — keep its remap fresh across replays *)
  if journaling t then
    journal_handle t ptr (fun () -> fst (issue t modul name));
  (ptr, size)

let tr_args t args =
  match t.recovery with
  | None -> args
  | Some _ ->
      Array.map
        (function
          | Gpusim.Kernels.Ptr p ->
              Gpusim.Kernels.Ptr (Int64.to_int (tr t (Int64.of_int p)))
          | a -> a)
        args

(* The wire form of a launch: its configuration and its packed
   arguments, handles translated for the server. *)
let launch_config t func ~grid ~block ~shared_mem ~stream =
  {
    Proto.function_handle = tr t func.handle;
    grid_x = grid.x;
    grid_y = grid.y;
    grid_z = grid.z;
    block_x = block.x;
    block_y = block.y;
    block_z = block.z;
    shared_mem_bytes = shared_mem;
    stream = tr t stream;
  }

let launch_params t func args =
  match Cubin.Image.pack_args func.info (tr_args t args) with
  | Error _ -> raise (Cudasim.Error.Cuda_error Cudasim.Error.Invalid_value)
  | Ok params -> params

let launch t func ~grid ~block ?(shared_mem = 0) ?(stream = 0L) args =
  if t.launch_extra_ns > 0 then t.charge t.launch_extra_ns;
  let issue t func grid block shared_mem stream args =
    let params = launch_params t func args in
    check_void
      (P.rpc_cuLaunchKernel t.rpc
         (launch_config t func ~grid ~block ~shared_mem ~stream)
         params)
  in
  if journaling t then
    journaled t (fun () -> issue t func grid block shared_mem stream args)
  else issue t func grid block shared_mem stream args

let launch_async t func ~grid ~block ?(shared_mem = 0) ~stream args =
  if t.launch_extra_ns > 0 then t.charge t.launch_extra_ns;
  let issue t func grid block shared_mem stream args =
    let params = launch_params t func args in
    P.rpc_cuLaunchKernelAsync t.rpc
      (launch_config t func ~grid ~block ~shared_mem ~stream)
      params
  in
  if journaling t then
    journaled t (fun () -> issue t func grid block shared_mem stream args)
  else issue t func grid block shared_mem stream args

(* --- cuBLAS / cuSOLVER --- *)

let cublas_create t =
  let issue t = check_u64 (P.rpc_cublasCreate t.rpc ()) in
  let h = issue t in
  if journaling t then journal_handle t h (fun () -> issue t);
  h

let cublas_destroy t h =
  let issue t h = check_void (P.rpc_cublasDestroy t.rpc (tr t h)) in
  if journaling t then journaled t (fun () -> issue t h) else issue t h

let cublas_sgemm t ~handle ~m ~n ~k ~alpha ~a ~lda ~b ~ldb ~beta ~c ~ldc =
  let issue t handle m n k alpha a lda b ldb beta c ldc =
    check_void
      (P.rpc_cublasSgemm t.rpc
         {
           Proto.handle = tr t handle;
           m;
           n;
           k;
           alpha;
           a = tr t a;
           lda;
           b = tr t b;
           ldb;
           beta;
           c = tr t c;
           ldc;
         })
  in
  if journaling t then
    journaled t (fun () -> issue t handle m n k alpha a lda b ldb beta c ldc)
  else issue t handle m n k alpha a lda b ldb beta c ldc

let cublas_sgemv t ~handle ~m ~n ~alpha ~a ~lda ~x ~incx ~beta ~y ~incy =
  let issue t handle m n alpha a lda x incx beta y incy =
    check_void
      (P.rpc_cublasSgemv t.rpc
         {
           Proto.handle = tr t handle;
           m;
           n;
           alpha;
           a = tr t a;
           lda;
           x = tr t x;
           incx;
           beta;
           y = tr t y;
           incy;
         })
  in
  if journaling t then
    journaled t (fun () -> issue t handle m n alpha a lda x incx beta y incy)
  else issue t handle m n alpha a lda x incx beta y incy

let cublas_sdot t ~handle ~n ~x ~incx ~y ~incy =
  check_float
    (P.rpc_cublasSdot t.rpc
       { Proto.handle = tr t handle; n; x = tr t x; incx; y = tr t y; incy })

let cublas_sscal t ~handle ~n ~alpha ~x ~incx =
  let issue t handle n alpha x incx =
    check_void
      (P.rpc_cublasSscal t.rpc
         { Proto.handle = tr t handle; n; alpha; x = tr t x; incx })
  in
  if journaling t then journaled t (fun () -> issue t handle n alpha x incx)
  else issue t handle n alpha x incx

let cublas_snrm2 t ~handle ~n ~x ~incx =
  check_float
    (P.rpc_cublasSnrm2 t.rpc { Proto.handle = tr t handle; n; x = tr t x; incx })

let cusolver_create t =
  let issue t = check_u64 (P.rpc_cusolverDnCreate t.rpc ()) in
  let h = issue t in
  if journaling t then journal_handle t h (fun () -> issue t);
  h

let cusolver_destroy t h =
  let issue t h = check_void (P.rpc_cusolverDnDestroy t.rpc (tr t h)) in
  if journaling t then journaled t (fun () -> issue t h) else issue t h

let cusolver_sgetrf_buffer_size t ~handle ~m ~n ~a ~lda =
  check_int
    (P.rpc_cusolverDnSgetrf_bufferSize t.rpc
       { Proto.handle = tr t handle; m; n; a = tr t a; lda })

let cusolver_sgetrf t ~handle ~m ~n ~a ~lda ~workspace ~ipiv =
  let issue t handle m n a lda workspace ipiv =
    check_int
      (P.rpc_cusolverDnSgetrf t.rpc
         {
           Proto.handle = tr t handle;
           m;
           n;
           a = tr t a;
           lda;
           workspace = tr t workspace;
           ipiv = tr t ipiv;
         })
  in
  let info = issue t handle m n a lda workspace ipiv in
  if journaling t then
    journal t (fun () -> ignore (issue t handle m n a lda workspace ipiv));
  info

let cusolver_sgetrs t ~handle ~n ~nrhs ~a ~lda ~ipiv ~b ~ldb =
  let issue t handle n nrhs a lda ipiv b ldb =
    check_int
      (P.rpc_cusolverDnSgetrs t.rpc
         {
           Proto.handle = tr t handle;
           n;
           nrhs;
           a = tr t a;
           lda;
           ipiv = tr t ipiv;
           b = tr t b;
           ldb;
         })
  in
  let info = issue t handle n nrhs a lda ipiv b ldb in
  if journaling t then
    journal t (fun () -> ignore (issue t handle n nrhs a lda ipiv b ldb));
  info

(* --- checkpoint / restart --- *)

let checkpoint t name = check_void (P.rpc_checkpoint t.rpc name)
let restore t name = check_void (P.rpc_restore t.rpc name)

(* --- live migration (source side drives these at a destination) --- *)

let migrate_begin t tenant = check_void (P.rpc_migrate_begin t.rpc tenant)
let migrate_base t data = check_void (P.rpc_migrate_base t.rpc data)
let migrate_delta t data = check_void (P.rpc_migrate_delta t.rpc data)

let migrate_commit t ~tenant blob =
  check_void (P.rpc_migrate_commit t.rpc tenant blob)

let migrate_abort t tenant = check_void (P.rpc_migrate_abort t.rpc tenant)
