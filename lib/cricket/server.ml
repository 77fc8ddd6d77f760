module P = Proto.Rpc_cd_prog_def_v1

(* Multi-tenant serving hooks (installed by [Tenancy.Core]): the server
   stays tenancy-agnostic but exposes the interception points a serving
   core needs — an admission gate evaluated before dispatch, and
   per-tenant accounting of device allocations and streams so leases can
   cap and reclaim them. *)
type reject = [ `Lease_expired | `Over_quota | `Overloaded ]

let reject_to_auth_stat : reject -> Oncrpc.Message.auth_stat = function
  | `Lease_expired -> Oncrpc.Message.Auth_rejectedcred
  | `Over_quota -> Oncrpc.Message.Auth_tooweak
  | `Overloaded -> Oncrpc.Message.Auth_failed

let reject_of_auth_stat : Oncrpc.Message.auth_stat -> reject option = function
  | Oncrpc.Message.Auth_rejectedcred -> Some `Lease_expired
  | Oncrpc.Message.Auth_tooweak -> Some `Over_quota
  | Oncrpc.Message.Auth_failed -> Some `Overloaded
  | _ -> None

type tenant_hooks = {
  admit : tenant:string -> reject option;
      (** evaluated once per dispatched request; [Some r] denies the call
          with an auth rejection carrying [r] *)
  malloc_allowed : tenant:string -> size:int64 -> bool;
  note_malloc : tenant:string -> ptr:int64 -> size:int64 -> unit;
  note_free : tenant:string -> ptr:int64 -> unit;
  stream_allowed : tenant:string -> bool;
  note_stream_create : tenant:string -> handle:int64 -> unit;
  note_stream_destroy : tenant:string -> handle:int64 -> unit;
}

(* An in-progress inbound migration (this server is the destination).
   State installed before the base snapshot lands is refused; commit is
   only honoured for the tenant that began the migration. *)
type inbound = { in_tenant : string; mutable in_base : bool }

type t = {
  rpc : Oncrpc.Server.t;
  ctx : Cudasim.Context.t;
  checkpoint_dir : string;
  (* creation parameters, kept so a crashed server can be respawned as the
     same kind of process (fresh state, same GPUs, clock and checkpoints) *)
  spawn_devices : Gpusim.Device.t list option;
  spawn_memory_capacity : int option;
  spawn_capacity_clamp : int option;
  spawn_clock : Cudasim.Context.clock;
  mutable calls : int;
  mutable per_proc : int array;  (* procedure number -> calls *)
  mutable per_device : int array;  (* device index -> calls *)
  per_tenant : (string, int) Hashtbl.t;
  mutable current_tenant : string option;
  mutable tenant_hooks : tenant_hooks option;
  mutable inbound : inbound option;
  mutable adopt_lease : (tenant:string -> blob:string -> bool) option;
  mutable migrations_in : int;
}

(* The dispatch path is synchronous, so the tenant of the in-flight call
   lives in a single mutable slot set by [dispatch_for]. *)
let hooked t =
  match (t.tenant_hooks, t.current_tenant) with
  | Some h, Some tenant -> Some (h, tenant)
  | _ -> None

let tenant_malloc_allowed t size =
  match hooked t with
  | Some (h, tenant) -> h.malloc_allowed ~tenant ~size
  | None -> true

let tenant_note_malloc t ~ptr ~size =
  match hooked t with
  | Some (h, tenant) -> h.note_malloc ~tenant ~ptr ~size
  | None -> ()

let tenant_note_free t ~ptr =
  match hooked t with
  | Some (h, tenant) -> h.note_free ~tenant ~ptr
  | None -> ()

let tenant_stream_allowed t =
  match hooked t with
  | Some (h, tenant) -> h.stream_allowed ~tenant
  | None -> true

let tenant_note_stream_create t ~handle =
  match hooked t with
  | Some (h, tenant) -> h.note_stream_create ~tenant ~handle
  | None -> ()

let tenant_note_stream_destroy t ~handle =
  match hooked t with
  | Some (h, tenant) -> h.note_stream_destroy ~tenant ~handle
  | None -> ()

let err_of = Cudasim.Error.code

let void_result e : Proto.void_result = { Proto.err = err_of e }

let int_result_ok v : Proto.int_result = { Proto.err = 0; data = v }

let int_result e : Proto.int_result = { Proto.err = err_of e; data = 0 }

let u64_result_ok v : Proto.u64_result = { Proto.err = 0; data = v }

let u64_result e : Proto.u64_result = { Proto.err = err_of e; data = 0L }

let mem_result_ok data : Proto.mem_result = { Proto.err = 0; data }

let mem_result e : Proto.mem_result = { Proto.err = err_of e; data = Bytes.empty }

let float_result_ok v : Proto.float_result = { Proto.err = 0; data = v }

let float_result e : Proto.float_result = { Proto.err = err_of e; data = 0.0 }

(* Checkpoint paths are confined to the configured directory. *)
let resolve_checkpoint_path t name =
  if String.length name = 0 || String.contains name '/' || name = ".." then
    None
  else Some (Filename.concat t.checkpoint_dir name)

let implementation t : P.Server.implementation =
  let ctx = t.ctx in
  {
    P.Server.rpc_cudaGetDeviceCount =
      (fun () -> int_result_ok (Cudasim.Api.get_device_count ctx));
    rpc_cudaSetDevice = (fun i -> void_result (Cudasim.Api.set_device ctx i));
    rpc_cudaGetDevice = (fun () -> int_result_ok (Cudasim.Api.get_device ctx));
    rpc_cudaGetDeviceProperties =
      (fun i ->
        match Cudasim.Api.get_device_properties ctx i with
        | Ok p ->
            {
              Proto.err = 0;
              props =
                {
                  Proto.name = p.Cudasim.Api.name;
                  total_global_mem = p.Cudasim.Api.total_global_mem;
                  multi_processor_count = p.Cudasim.Api.multi_processor_count;
                  clock_rate_khz = p.Cudasim.Api.clock_rate_khz;
                  compute_major = p.Cudasim.Api.compute_major;
                  compute_minor = p.Cudasim.Api.compute_minor;
                  memory_bandwidth = p.Cudasim.Api.memory_bandwidth;
                };
            }
        | Error e ->
            {
              Proto.err = err_of e;
              props =
                {
                  Proto.name = "";
                  total_global_mem = 0L;
                  multi_processor_count = 0;
                  clock_rate_khz = 0;
                  compute_major = 0;
                  compute_minor = 0;
                  memory_bandwidth = 0L;
                };
            });
    rpc_cudaDeviceSynchronize =
      (fun () -> void_result (Cudasim.Api.device_synchronize ctx));
    rpc_cudaDeviceReset = (fun () -> void_result (Cudasim.Api.device_reset ctx));
    rpc_cudaMalloc =
      (fun size ->
        (* the lease cap rejects like device OOM would: the tenant sees
           cudaErrorMemoryAllocation, other tenants' memory stays safe *)
        if not (tenant_malloc_allowed t size) then
          u64_result Cudasim.Error.Memory_allocation
        else
          match Cudasim.Api.malloc ctx size with
          | Ok ptr ->
              tenant_note_malloc t ~ptr ~size;
              u64_result_ok ptr
          | Error e -> u64_result e);
    rpc_cudaFree =
      (fun ptr ->
        let e = Cudasim.Api.free ctx ptr in
        (match e with
        | Cudasim.Error.Success -> tenant_note_free t ~ptr
        | _ -> ());
        void_result e);
    (* served by [memcpy_htod] and [memcpy_dtoh], registered over the
       generated handlers that would call these *)
    rpc_cudaMemcpyHtoD = (fun _ _ -> invalid_arg "rpc_cudaMemcpyHtoD");
    rpc_cudaMemcpyDtoH = (fun _ _ -> invalid_arg "rpc_cudaMemcpyDtoH");
    rpc_cudaMemcpyDtoD =
      (fun dst src len -> void_result (Cudasim.Api.memcpy_d2d ctx ~dst ~src ~len));
    rpc_cudaMemset =
      (fun ptr value len -> void_result (Cudasim.Api.memset ctx ~ptr ~value ~len));
    rpc_cudaMemGetInfo =
      (fun () ->
        let free_bytes, total_bytes = Cudasim.Api.mem_get_info ctx in
        { Proto.err = 0; free_bytes; total_bytes });
    rpc_cudaMemcpyHtoDAsync =
      (fun dst data stream -> Cudasim.Api.memcpy_h2d_async ctx ~dst data ~stream);
    rpc_cudaMemsetAsync =
      (fun ptr value len stream ->
        Cudasim.Api.memset_async ctx ~ptr ~value ~len ~stream);
    rpc_cudaMemcpyDtoHAsync =
      (fun src len stream ->
        match Cudasim.Api.memcpy_d2h_stream ctx ~src ~len ~stream with
        | Ok data -> mem_result_ok data
        | Error e -> mem_result e);
    rpc_cudaStreamCreate =
      (fun () ->
        if not (tenant_stream_allowed t) then
          u64_result Cudasim.Error.Memory_allocation
        else begin
          let h = Cudasim.Api.stream_create ctx in
          tenant_note_stream_create t ~handle:h;
          u64_result_ok h
        end);
    rpc_cudaStreamDestroy =
      (fun h ->
        let e = Cudasim.Api.stream_destroy ctx h in
        (match e with
        | Cudasim.Error.Success -> tenant_note_stream_destroy t ~handle:h
        | _ -> ());
        void_result e);
    rpc_cudaStreamSynchronize =
      (fun h -> void_result (Cudasim.Api.stream_synchronize ctx h));
    rpc_cudaEventCreate = (fun () -> u64_result_ok (Cudasim.Api.event_create ctx));
    rpc_cudaEventDestroy =
      (fun h -> void_result (Cudasim.Api.event_destroy ctx h));
    rpc_cudaEventRecord =
      (fun event stream -> void_result (Cudasim.Api.event_record ctx ~event ~stream));
    rpc_cudaEventSynchronize =
      (fun h -> void_result (Cudasim.Api.event_synchronize ctx h));
    rpc_cudaEventElapsedTime =
      (fun start stop ->
        match Cudasim.Api.event_elapsed_ms ctx ~start ~stop with
        | Ok ms -> float_result_ok ms
        | Error e -> float_result e);
    rpc_cudaStreamWaitEvent =
      (fun stream event -> Cudasim.Api.stream_wait_event ctx ~stream ~event);
    rpc_cudaEventRecordAsync =
      (fun event stream -> Cudasim.Api.event_record_async ctx ~event ~stream);
    rpc_cuModuleLoadData =
      (fun data ->
        match Cudasim.Api.module_load_data ctx (Bytes.to_string data) with
        | Ok h -> u64_result_ok h
        | Error e -> u64_result e);
    rpc_cuModuleUnload = (fun h -> void_result (Cudasim.Api.module_unload ctx h));
    rpc_cuModuleGetFunction =
      (fun modul name ->
        match Cudasim.Api.module_get_function ctx ~modul ~name with
        | Ok h -> u64_result_ok h
        | Error e -> u64_result e);
    rpc_cuModuleGetGlobal =
      (fun modul name ->
        match Cudasim.Api.module_get_global ctx ~modul ~name with
        | Ok (ptr, size) -> { Proto.err = 0; ptr; size }
        | Error e -> { Proto.err = err_of e; ptr = 0L; size = 0L });
    rpc_cuLaunchKernel =
      (fun (config : Proto.launch_config) params ->
        let open Gpusim.Kernels in
        void_result
          (Cudasim.Api.launch_kernel ctx
             {
               Cudasim.Api.function_handle = config.Proto.function_handle;
               grid =
                 { x = config.Proto.grid_x; y = config.Proto.grid_y;
                   z = config.Proto.grid_z };
               block =
                 { x = config.Proto.block_x; y = config.Proto.block_y;
                   z = config.Proto.block_z };
               shared_mem_bytes = config.Proto.shared_mem_bytes;
               stream = config.Proto.stream;
             }
             ~params));
    rpc_cuLaunchKernelAsync =
      (fun (config : Proto.launch_config) params ->
        let open Gpusim.Kernels in
        Cudasim.Api.launch_kernel_async ctx
          {
            Cudasim.Api.function_handle = config.Proto.function_handle;
            grid =
              { x = config.Proto.grid_x; y = config.Proto.grid_y;
                z = config.Proto.grid_z };
            block =
              { x = config.Proto.block_x; y = config.Proto.block_y;
                z = config.Proto.block_z };
            shared_mem_bytes = config.Proto.shared_mem_bytes;
            stream = config.Proto.stream;
          }
          ~params);
    rpc_cublasCreate = (fun () -> u64_result_ok (Cudasim.Cublas.create ctx));
    rpc_cublasDestroy = (fun h -> void_result (Cudasim.Cublas.destroy ctx h));
    rpc_cublasSgemm =
      (fun (a : Proto.sgemm_args) ->
        void_result
          (Cudasim.Cublas.sgemm ctx
             {
               Cudasim.Cublas.handle = a.Proto.handle;
               m = a.Proto.m;
               n = a.Proto.n;
               k = a.Proto.k;
               alpha = a.Proto.alpha;
               a = a.Proto.a;
               lda = a.Proto.lda;
               b = a.Proto.b;
               ldb = a.Proto.ldb;
               beta = a.Proto.beta;
               c = a.Proto.c;
               ldc = a.Proto.ldc;
             }));
    rpc_cublasSgemv =
      (fun (g : Proto.sgemv_args) ->
        void_result
          (Cudasim.Cublas.sgemv ctx
             {
               Cudasim.Cublas.gv_handle = g.Proto.handle;
               gv_m = g.Proto.m;
               gv_n = g.Proto.n;
               gv_alpha = g.Proto.alpha;
               gv_a = g.Proto.a;
               gv_lda = g.Proto.lda;
               gv_x = g.Proto.x;
               gv_incx = g.Proto.incx;
               gv_beta = g.Proto.beta;
               gv_y = g.Proto.y;
               gv_incy = g.Proto.incy;
             }));
    rpc_cublasSdot =
      (fun (a : Proto.dot_args) ->
        match
          Cudasim.Cublas.sdot ctx ~handle:a.Proto.handle ~n:a.Proto.n
            ~x:a.Proto.x ~incx:a.Proto.incx ~y:a.Proto.y ~incy:a.Proto.incy
        with
        | Ok v -> float_result_ok v
        | Error e -> float_result e);
    rpc_cublasSscal =
      (fun (a : Proto.scal_args) ->
        void_result
          (Cudasim.Cublas.sscal ctx ~handle:a.Proto.handle ~n:a.Proto.n
             ~alpha:a.Proto.alpha ~x:a.Proto.x ~incx:a.Proto.incx));
    rpc_cublasSnrm2 =
      (fun (a : Proto.nrm2_args) ->
        match
          Cudasim.Cublas.snrm2 ctx ~handle:a.Proto.handle ~n:a.Proto.n
            ~x:a.Proto.x ~incx:a.Proto.incx
        with
        | Ok v -> float_result_ok v
        | Error e -> float_result e);
    rpc_cusolverDnCreate =
      (fun () -> u64_result_ok (Cudasim.Cusolver.create ctx));
    rpc_cusolverDnDestroy =
      (fun h -> void_result (Cudasim.Cusolver.destroy ctx h));
    rpc_cusolverDnSgetrf_bufferSize =
      (fun (a : Proto.getrf_buffer_args) ->
        match
          Cudasim.Cusolver.sgetrf_buffer_size ctx ~handle:a.Proto.handle
            ~m:a.Proto.m ~n:a.Proto.n ~a:a.Proto.a ~lda:a.Proto.lda
        with
        | Ok lwork -> int_result_ok lwork
        | Error e -> int_result e);
    rpc_cusolverDnSgetrf =
      (fun (a : Proto.getrf_args) ->
        match
          Cudasim.Cusolver.sgetrf ctx ~handle:a.Proto.handle ~m:a.Proto.m
            ~n:a.Proto.n ~a:a.Proto.a ~lda:a.Proto.lda
            ~workspace:a.Proto.workspace ~ipiv:a.Proto.ipiv
        with
        | Ok info -> int_result_ok info
        | Error e -> int_result e);
    rpc_cusolverDnSgetrs =
      (fun (a : Proto.getrs_args) ->
        match
          Cudasim.Cusolver.sgetrs ctx ~handle:a.Proto.handle ~n:a.Proto.n
            ~nrhs:a.Proto.nrhs ~a:a.Proto.a ~lda:a.Proto.lda ~ipiv:a.Proto.ipiv
            ~b:a.Proto.b ~ldb:a.Proto.ldb
        with
        | Ok info -> int_result_ok info
        | Error e -> int_result e);
    rpc_checkpoint =
      (fun name ->
        match resolve_checkpoint_path t name with
        | None -> void_result Cudasim.Error.Invalid_value
        | Some path -> (
            (* Crash-safe: write to a temp file, rename into place. A crash
               mid-write leaves the previous checkpoint untouched; the stale
               .tmp is simply overwritten by the next attempt. *)
            let tmp = path ^ ".tmp" in
            match
              let data = Cudasim.Context.checkpoint ctx in
              let oc = open_out_bin tmp in
              Fun.protect
                ~finally:(fun () -> close_out_noerr oc)
                (fun () -> output_string oc data);
              Sys.rename tmp path
            with
            | () -> void_result Cudasim.Error.Success
            | exception Sys_error _ ->
                (try Sys.remove tmp with Sys_error _ -> ());
                void_result Cudasim.Error.Unknown));
    rpc_restore =
      (fun name ->
        match resolve_checkpoint_path t name with
        | None -> void_result Cudasim.Error.Invalid_value
        | Some path -> (
            match
              let ic = open_in_bin path in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            with
            | exception Sys_error _ -> void_result Cudasim.Error.Unknown
            | data -> (
                match Cudasim.Context.restore ctx data with
                | Ok () -> void_result Cudasim.Error.Success
                | Error _ -> void_result Cudasim.Error.Unknown)));
    rpc_migrate_begin =
      (fun tenant ->
        if String.length tenant = 0 then void_result Cudasim.Error.Invalid_value
        else begin
          (* A fresh begin supersedes any stale half-copied migration —
             e.g. a source that crashed and started over. *)
          t.inbound <- Some { in_tenant = tenant; in_base = false };
          void_result Cudasim.Error.Success
        end);
    rpc_migrate_base =
      (fun data ->
        match t.inbound with
        | None -> void_result Cudasim.Error.Invalid_value
        | Some i -> (
            match Cudasim.Context.restore ctx (Bytes.to_string data) with
            | Ok () ->
                i.in_base <- true;
                void_result Cudasim.Error.Success
            | Error _ -> void_result Cudasim.Error.Unknown));
    rpc_migrate_delta =
      (fun data ->
        match t.inbound with
        | Some i when i.in_base -> (
            match Cudasim.Context.restore_delta ctx (Bytes.to_string data) with
            | Ok () -> void_result Cudasim.Error.Success
            | Error _ -> void_result Cudasim.Error.Unknown)
        | Some _ | None -> void_result Cudasim.Error.Invalid_value);
    rpc_migrate_commit =
      (fun tenant blob ->
        match t.inbound with
        | Some i when i.in_base && i.in_tenant = tenant ->
            let adopted =
              match t.adopt_lease with
              | None -> true
              | Some adopt -> adopt ~tenant ~blob:(Bytes.to_string blob)
            in
            if adopted then begin
              t.inbound <- None;
              t.migrations_in <- t.migrations_in + 1;
              void_result Cudasim.Error.Success
            end
            else begin
              (* refused adoption aborts the migration server-side *)
              Cudasim.Context.wipe ctx;
              t.inbound <- None;
              void_result Cudasim.Error.Invalid_value
            end
        | Some _ | None -> void_result Cudasim.Error.Invalid_value);
    rpc_migrate_abort =
      (fun tenant ->
        (match t.inbound with
        | Some i when i.in_tenant = tenant ->
            Cudasim.Context.wipe ctx;
            t.inbound <- None
        | Some _ | None -> ());
        (* aborting an unknown migration is a no-op, not an error: the
           source may retry an abort whose first reply was lost *)
        void_result Cudasim.Error.Success);
  }

(* The two bulk procedures, decoded and encoded by hand so the server
   copies their payload once: an upload goes from the request record
   straight into device memory, a download from device memory straight
   into the reply, which the encoder lays out only after the range check
   and the charges have run. Wire format, charges and errors, in their
   order, are the generated stubs'. *)
let memcpy_htod ctx dec enc =
  let dst = Xdr.Decode.uint64 dec in
  let data = Xdr.Decode.opaque_slice dec in
  Xdr.Encode.int enc
    (err_of
       (Cudasim.Api.memcpy_h2d_string ctx ~dst data.Xdr.Iovec.base
          ~off:data.Xdr.Iovec.off ~len:data.Xdr.Iovec.len))

let memcpy_dtoh ctx dec enc =
  let src = Xdr.Decode.uint64 dec in
  let len = Xdr.Decode.uint64 dec in
  match Cudasim.Api.memcpy_d2h_check ctx ~src ~len with
  | Cudasim.Error.Success ->
      let len = Int64.to_int len in
      Xdr.Encode.int enc 0;
      Xdr.Encode.opaque_fill enc len (fun b off ->
          Cudasim.Api.memcpy_d2h_into ctx ~src ~len b ~off)
  | e -> Proto.xdr_encode_mem_result enc (mem_result e)

(* The RPCL spec numbers its procedures below this. *)
let proc_slots = 80

(* Count one call in slot [i], growing the table for a number past its
   end (procedures registered beyond the RPCL spec's). *)
let bump counts i =
  let counts =
    if i < Array.length counts then counts
    else begin
      let bigger = Array.make (i + 1) 0 in
      Array.blit counts 0 bigger 0 (Array.length counts);
      bigger
    end
  in
  counts.(i) <- counts.(i) + 1;
  counts

let create ?devices ?memory_capacity ?capacity_clamp ?(checkpoint_dir = ".")
    ~clock () =
  let ctx =
    Cudasim.Context.create ?devices ?memory_capacity ?capacity_clamp clock
  in
  let rpc = Oncrpc.Server.create ~name:"cricket" () in
  let t =
    { rpc; ctx; checkpoint_dir; spawn_devices = devices;
      spawn_memory_capacity = memory_capacity;
      spawn_capacity_clamp = capacity_clamp; spawn_clock = clock;
      calls = 0; per_proc = Array.make proc_slots 0;
      per_device = Array.make (Cudasim.Context.device_count ctx) 0;
      per_tenant = Hashtbl.create 64; current_tenant = None;
      tenant_hooks = None; inbound = None; adopt_lease = None;
      migrations_in = 0 }
  in
  P.Server.register (implementation t) rpc;
  Oncrpc.Server.register rpc ~prog:P.program_number ~vers:P.version_number
    [
      (P.Client.proc_rpc_cudaMemcpyHtoD, memcpy_htod ctx);
      (P.Client.proc_rpc_cudaMemcpyDtoH, memcpy_dtoh ctx);
    ];
  (* At-most-once: a client retransmission (same xid) of a call whose reply
     was lost gets the recorded reply, so non-idempotent calls are safe to
     retry. *)
  Oncrpc.Server.set_dup_cache rpc;
  Oncrpc.Server.set_observer rpc (fun ~prog:_ ~vers:_ ~proc ~arg_bytes:_ ->
      t.calls <- t.calls + 1;
      t.per_proc <- bump t.per_proc proc;
      (* Attribute the call to the device selected when it arrived — the
         fleet report's per-device RPC traffic. *)
      t.per_device <- bump t.per_device (Cudasim.Context.current t.ctx));
  t

(* procedure number -> name, from the RPCL spec itself *)
let proc_names =
  lazy
    (let env = Rpcl.Check.check (Rpcl.Parser.parse Rpcl.Specs.cricket) in
     let table = Hashtbl.create 64 in
     List.iter
       (fun (p : Rpcl.Ast.program_def) ->
         List.iter
           (fun (v : Rpcl.Ast.version_def) ->
             List.iter
               (fun (pr : Rpcl.Ast.procedure_def) ->
                 Hashtbl.replace table
                   (Int64.to_int (Rpcl.Check.resolve env pr.Rpcl.Ast.proc_number))
                   pr.Rpcl.Ast.proc_name)
               v.Rpcl.Ast.version_procedures)
           p.Rpcl.Ast.program_versions)
       (Rpcl.Check.programs env);
     table)

(* [Lazy.force] from two domains at once raises [RacyLazy]; serialize the
   first (and only) forcing. Reads after forcing are table lookups on a
   frozen Hashtbl — safe without the lock, but the lock is cheap and the
   call sites are cold (report rendering), so hold it throughout. *)
let proc_names_lock = Mutex.create ()

let forced_proc_names () =
  Mutex.lock proc_names_lock;
  let table = Lazy.force proc_names in
  Mutex.unlock proc_names_lock;
  table

let proc_name proc =
  match Hashtbl.find_opt (forced_proc_names ()) proc with
  | Some n -> n
  | None -> Printf.sprintf "proc_%d" proc

let set_obs t obs =
  Oncrpc.Server.set_obs
    ~proc_name:(fun ~prog:_ ~vers:_ ~proc -> proc_name proc)
    t.rpc obs;
  for d = 0 to Cudasim.Context.device_count t.ctx - 1 do
    match Cudasim.Context.gpu_at t.ctx d with
    | Some gpu -> Gpusim.Gpu.set_obs gpu obs
    | None -> ()
  done

let respawn t =
  create ?devices:t.spawn_devices ?memory_capacity:t.spawn_memory_capacity
    ?capacity_clamp:t.spawn_capacity_clamp ~checkpoint_dir:t.checkpoint_dir
    ~clock:t.spawn_clock ()

let dup_hits t = Oncrpc.Server.dup_hits t.rpc

let proc_stats t =
  let acc = ref [] in
  Array.iteri
    (fun proc count -> if count > 0 then acc := (proc_name proc, count) :: !acc)
    t.per_proc;
  !acc
  |> List.sort (fun (na, a) (nb, b) ->
         match compare b a with 0 -> compare na nb | c -> c)

let rpc_server t = t.rpc
let context t = t.ctx

let dispatch t request = Oncrpc.Server.dispatch t.rpc request

(* Denied reply for a request refused at admission: parse just the header
   (for the xid), answer with an auth rejection carrying the typed reason.
   Requests too broken to parse fall through to normal dispatch, which
   produces the proper protocol error. *)
let denied_reply request (reason : reject) =
  let dec = Xdr.Decode.of_string request in
  match Oncrpc.Message.decode dec with
  | { Oncrpc.Message.xid; body = Oncrpc.Message.Call _ } ->
      let enc = Xdr.Encode.create () in
      Oncrpc.Message.encode enc
        (Oncrpc.Message.reply_denied ~xid
           (Oncrpc.Message.Auth_error (reject_to_auth_stat reason)));
      Some (Xdr.Encode.to_string enc)
  | _ | (exception Xdr.Types.Error _) -> None

let set_tenant_hooks t hooks = t.tenant_hooks <- Some hooks

let set_migration_adopt t f = t.adopt_lease <- Some f
let migrations_in t = t.migrations_in

let count_tenant t tenant =
  match Hashtbl.find t.per_tenant tenant with
  | n -> Hashtbl.replace t.per_tenant tenant (n + 1)
  | exception Not_found -> Hashtbl.add t.per_tenant tenant 1

(* Run [dispatch] with [tenant] as the in-flight call's tenant. *)
let as_tenant t ~tenant dispatch request =
  t.current_tenant <- Some tenant;
  match dispatch request with
  | reply ->
      t.current_tenant <- None;
      reply
  | exception e ->
      t.current_tenant <- None;
      raise e

let dispatch_for t ~tenant request =
  count_tenant t tenant;
  let admit =
    match t.tenant_hooks with Some h -> h.admit ~tenant | None -> None
  in
  match admit with
  | Some reason -> (
      match denied_reply request reason with
      | Some reply -> reply
      | None -> Oncrpc.Server.dispatch ~ident:tenant t.rpc request)
  | None ->
      as_tenant t ~tenant
        (fun request -> Oncrpc.Server.dispatch ~ident:tenant t.rpc request)
        request

(* The device-steered fast path for tenant calls: same accounting and
   admission as {!dispatch_for}, but the header was already parsed by the
   RPC engine — admission rejections answer with the known xid (no
   software re-parse), and admitted calls skip {!Oncrpc.Message.decode}
   via {!Oncrpc.Server.dispatch_preparsed}. *)
let dispatch_preparsed_for t ~tenant ~xid ~prog ~vers ~proc ~body_off request =
  count_tenant t tenant;
  let admit =
    match t.tenant_hooks with Some h -> h.admit ~tenant | None -> None
  in
  match admit with
  | Some reason ->
      let enc = Xdr.Encode.create () in
      Oncrpc.Message.encode enc
        (Oncrpc.Message.reply_denied ~xid
           (Oncrpc.Message.Auth_error (reject_to_auth_stat reason)));
      Xdr.Encode.to_string enc
  | None ->
      as_tenant t ~tenant
        (fun request ->
          Option.value ~default:""
            (Oncrpc.Server.dispatch_preparsed ~ident:tenant t.rpc ~xid ~prog
               ~vers ~proc ~body_off request))
        request

let tenant_calls t =
  Hashtbl.fold (fun tenant n acc -> (tenant, n) :: acc) t.per_tenant []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let device_calls t =
  List.init (Cudasim.Context.device_count t.ctx) (fun d ->
      (d, if d < Array.length t.per_device then t.per_device.(d) else 0))

let calls_served t = t.calls
