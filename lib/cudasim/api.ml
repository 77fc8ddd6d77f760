module Time = Simnet.Time

type device_properties = {
  name : string;
  total_global_mem : int64;
  multi_processor_count : int;
  clock_rate_khz : int;
  compute_major : int;
  compute_minor : int;
  memory_bandwidth : int64;
}

(* Fixed CPU cost of entering the CUDA driver for any call, and the extra
   overhead of setting up a DMA transfer. *)
let dispatch_ns = 3_000
let memcpy_overhead_ns = 9_000

let charge ctx ns =
  let clock = Context.clock ctx in
  clock.Context.advance_to (Time.add (clock.Context.now ()) (Time.ns ns))

let now ctx = (Context.clock ctx).Context.now ()
let advance_to ctx t = (Context.clock ctx).Context.advance_to t

(* --- device management --- *)

let get_device_count ctx =
  charge ctx dispatch_ns;
  Context.device_count ctx

let set_device ctx i =
  charge ctx dispatch_ns;
  match Context.set_current ctx i with
  | Ok () -> Error.Success
  | Error e -> e

let get_device ctx =
  charge ctx dispatch_ns;
  Context.current ctx

let get_device_properties ctx i =
  charge ctx dispatch_ns;
  match Context.gpu_at ctx i with
  | None -> Error Error.Invalid_device
  | Some gpu ->
      let d = Gpusim.Gpu.device gpu in
      Ok
        {
          name = d.Gpusim.Device.name;
          total_global_mem = d.Gpusim.Device.total_global_mem;
          multi_processor_count = d.Gpusim.Device.multi_processor_count;
          clock_rate_khz = d.Gpusim.Device.clock_rate_khz;
          compute_major = d.Gpusim.Device.compute_major;
          compute_minor = d.Gpusim.Device.compute_minor;
          memory_bandwidth = Int64.of_float d.Gpusim.Device.memory_bandwidth;
        }

(* Synchronizing calls surface any latched asynchronous failure — the
   one-way stream operations have no reply of their own. *)
let surface_async_error ctx =
  match Context.take_async_error ctx with
  | Some e -> e
  | None -> Error.Success

let device_synchronize ctx =
  charge ctx dispatch_ns;
  let gpu = Context.gpu ctx in
  advance_to ctx (Gpusim.Gpu.synchronize gpu ~now:(now ctx));
  surface_async_error ctx

let device_reset ctx =
  charge ctx dispatch_ns;
  Gpusim.Gpu.reset (Context.gpu ctx);
  Error.Success

(* --- memory --- *)

let mem ctx = Gpusim.Gpu.memory (Context.gpu ctx)

let malloc ctx size =
  charge ctx (dispatch_ns * 2) (* allocation bookkeeping *);
  let size = Int64.to_int size in
  if size <= 0 then Error Error.Invalid_value
  else
    match Gpusim.Memory.alloc (mem ctx) size with
    | ptr -> Ok (Int64.of_int ptr)
    | exception Gpusim.Memory.Error (Gpusim.Memory.Out_of_memory _) ->
        Error Error.Memory_allocation

let free ctx ptr =
  charge ctx (dispatch_ns * 2);
  match Gpusim.Memory.free (mem ctx) (Int64.to_int ptr) with
  | () -> Error.Success
  | exception Gpusim.Memory.Error _ -> Error.Invalid_value

(* Synchronous memcpys drain the device, then charge PCIe time. *)
let charge_pcie ctx bytes =
  let gpu = Context.gpu ctx in
  advance_to ctx (Gpusim.Gpu.synchronize gpu ~now:(now ctx));
  let d = Gpusim.Gpu.device gpu in
  let transfer_ns =
    Float.of_int bytes /. d.Gpusim.Device.pcie_bandwidth *. 1e9
  in
  charge ctx (memcpy_overhead_ns + Int64.to_int (Time.of_float_ns transfer_ns))

let memcpy_h2d_string ctx ~dst src ~off ~len =
  charge ctx dispatch_ns;
  charge_pcie ctx len;
  match Gpusim.Memory.write_string (mem ctx) (Int64.to_int dst) src off len with
  | () -> Error.Success
  | exception Gpusim.Memory.Error _ -> Error.Invalid_value

let memcpy_h2d ctx ~dst data =
  memcpy_h2d_string ctx ~dst (Bytes.unsafe_to_string data) ~off:0
    ~len:(Bytes.length data)

let memcpy_d2h_check ctx ~src ~len =
  charge ctx dispatch_ns;
  let len = Int64.to_int len in
  if len < 0 then Error.Invalid_value
  else begin
    charge_pcie ctx len;
    match Gpusim.Memory.readable (mem ctx) (Int64.to_int src) len with
    | () -> Error.Success
    | exception Gpusim.Memory.Error _ -> Error.Invalid_value
  end

let memcpy_d2h_into ctx ~src ~len dst ~off =
  Gpusim.Memory.read_into (mem ctx) (Int64.to_int src) len dst off

let memcpy_d2h ctx ~src ~len =
  match memcpy_d2h_check ctx ~src ~len with
  | Error.Success ->
      let len = Int64.to_int len in
      let data = Bytes.create len in
      memcpy_d2h_into ctx ~src ~len data ~off:0;
      Ok data
  | e -> Error e

let memcpy_d2d ctx ~dst ~src ~len =
  charge ctx dispatch_ns;
  let len = Int64.to_int len in
  let gpu = Context.gpu ctx in
  advance_to ctx (Gpusim.Gpu.synchronize gpu ~now:(now ctx));
  let d = Gpusim.Gpu.device gpu in
  charge ctx
    (Int64.to_int
       (Time.of_float_ns
          (Float.of_int len /. d.Gpusim.Device.memory_bandwidth *. 2e9)));
  match
    Gpusim.Memory.copy (mem ctx) ~src:(Int64.to_int src)
      ~dst:(Int64.to_int dst) ~len
  with
  | () -> Error.Success
  | exception Gpusim.Memory.Error _ -> Error.Invalid_value

let memset ctx ~ptr ~value ~len =
  charge ctx dispatch_ns;
  let len = Int64.to_int len in
  match Gpusim.Memory.memset (mem ctx) (Int64.to_int ptr) value len with
  | () -> Error.Success
  | exception Gpusim.Memory.Error _ -> Error.Invalid_value

let mem_get_info ctx =
  charge ctx dispatch_ns;
  let m = mem ctx in
  ( Int64.of_int (Gpusim.Memory.free_bytes m),
    Int64.of_int (Gpusim.Memory.total_bytes m) )

(* --- stream-ordered (asynchronous) memory operations ---

   These charge only the driver dispatch cost on the host clock; the
   transfer/fill time lands on the stream inside the GPU model, so
   independent streams overlap and the host never blocks. Failures are
   latched (Context.set_async_error) and surface at the next synchronize. *)

let memcpy_h2d_async ctx ~dst data ~stream =
  charge ctx dispatch_ns;
  match
    Gpusim.Gpu.memcpy_h2d (Context.gpu ctx) ~now:(now ctx)
      ~stream:(Int64.to_int stream) ~dst:(Int64.to_int dst) data
  with
  | (_ : Time.t) -> ()
  | exception Not_found -> Context.set_async_error ctx Error.Invalid_handle
  | exception Gpusim.Memory.Error _ ->
      Context.set_async_error ctx Error.Invalid_value

let memset_async ctx ~ptr ~value ~len ~stream =
  charge ctx dispatch_ns;
  match
    Gpusim.Gpu.memset (Context.gpu ctx) ~now:(now ctx)
      ~stream:(Int64.to_int stream) ~ptr:(Int64.to_int ptr) ~value
      (Int64.to_int len)
  with
  | (_ : Time.t) -> ()
  | exception Not_found -> Context.set_async_error ctx Error.Invalid_handle
  | exception Gpusim.Memory.Error _ ->
      Context.set_async_error ctx Error.Invalid_value

(* Stream-ordered D2H: blocks the host only until *this stream* finishes,
   unlike the synchronous memcpy_d2h which drains the whole device. *)
let memcpy_d2h_stream ctx ~src ~len ~stream =
  charge ctx dispatch_ns;
  let len = Int64.to_int len in
  if len < 0 then Error Error.Invalid_value
  else
    match
      Gpusim.Gpu.memcpy_d2h (Context.gpu ctx) ~now:(now ctx)
        ~stream:(Int64.to_int stream) ~src:(Int64.to_int src) len
    with
    | finish, data ->
        advance_to ctx finish;
        charge ctx memcpy_overhead_ns;
        (match Context.take_async_error ctx with
        | Some e -> Error e
        | None -> Ok data)
    | exception Not_found -> Error Error.Invalid_handle
    | exception Gpusim.Memory.Error _ -> Error Error.Invalid_value

(* --- streams and events --- *)

let stream_create ctx =
  charge ctx dispatch_ns;
  Int64.of_int (Gpusim.Gpu.stream_create (Context.gpu ctx))

let stream_destroy ctx h =
  charge ctx dispatch_ns;
  match Gpusim.Gpu.stream_destroy (Context.gpu ctx) (Int64.to_int h) with
  | () -> Error.Success
  | exception (Not_found | Invalid_argument _) -> Error.Invalid_handle

let stream_synchronize ctx h =
  charge ctx dispatch_ns;
  let gpu = Context.gpu ctx in
  match Gpusim.Gpu.stream_synchronize gpu ~now:(now ctx) (Int64.to_int h) with
  | t ->
      advance_to ctx t;
      surface_async_error ctx
  | exception Not_found -> Error.Invalid_handle

let event_create ctx =
  charge ctx dispatch_ns;
  Int64.of_int (Gpusim.Gpu.event_create (Context.gpu ctx))

let event_destroy ctx h =
  charge ctx dispatch_ns;
  match Gpusim.Gpu.event_destroy (Context.gpu ctx) (Int64.to_int h) with
  | () -> Error.Success
  | exception Not_found -> Error.Invalid_handle

let event_record ctx ~event ~stream =
  charge ctx dispatch_ns;
  let gpu = Context.gpu ctx in
  match
    Gpusim.Gpu.event_record gpu ~now:(now ctx) ~event:(Int64.to_int event)
      ~stream:(Int64.to_int stream)
  with
  | () -> Error.Success
  | exception Not_found -> Error.Invalid_handle

let event_synchronize ctx h =
  charge ctx dispatch_ns;
  let gpu = Context.gpu ctx in
  match Gpusim.Gpu.event_synchronize gpu ~now:(now ctx) (Int64.to_int h) with
  | t ->
      advance_to ctx t;
      surface_async_error ctx
  | exception Not_found -> Error.Invalid_handle

let stream_wait_event ctx ~stream ~event =
  charge ctx dispatch_ns;
  match
    Gpusim.Gpu.stream_wait_event (Context.gpu ctx)
      ~stream:(Int64.to_int stream) ~event:(Int64.to_int event)
  with
  | () -> ()
  | exception Not_found -> Context.set_async_error ctx Error.Invalid_handle

let event_record_async ctx ~event ~stream =
  charge ctx dispatch_ns;
  match
    Gpusim.Gpu.event_record (Context.gpu ctx) ~now:(now ctx)
      ~event:(Int64.to_int event) ~stream:(Int64.to_int stream)
  with
  | () -> ()
  | exception Not_found -> Context.set_async_error ctx Error.Invalid_handle

let event_elapsed_ms ctx ~start ~stop =
  charge ctx dispatch_ns;
  let gpu = Context.gpu ctx in
  match
    Gpusim.Gpu.event_elapsed_ms gpu ~start:(Int64.to_int start)
      ~stop:(Int64.to_int stop)
  with
  | ms -> Ok ms
  | exception Not_found -> Error Error.Invalid_handle

(* --- module API --- *)

let module_load_data ctx data =
  (* Parsing + metadata extraction (and possibly decompression) is real
     work on the server; charge proportional to image size. *)
  charge ctx (dispatch_ns * 4);
  charge ctx (String.length data / 100);
  let image_data =
    if Cubin.Fatbin.is_fatbin data then begin
      match Cubin.Fatbin.parse data with
      | Error _ -> None
      | Ok fatbin ->
          let d = Gpusim.Gpu.device (Context.gpu ctx) in
          Cubin.Fatbin.best_image fatbin
            ~cc:(d.Gpusim.Device.compute_major, d.Gpusim.Device.compute_minor)
    end
    else Some data
  in
  match image_data with
  | None -> Error Error.Invalid_value
  | Some image_data -> (
      match Cubin.Image.parse image_data with
      | Error _ -> Error Error.Invalid_value
      | Ok image -> Ok (Int64.of_int (Context.add_module ctx ~data ~image)))

let module_unload ctx h =
  charge ctx dispatch_ns;
  if Context.remove_module ctx (Int64.to_int h) then Error.Success
  else Error.Invalid_handle

let module_get_function ctx ~modul ~name =
  charge ctx dispatch_ns;
  match Context.find_module ctx (Int64.to_int modul) with
  | None -> Error Error.Invalid_handle
  | Some (_, image) -> (
      match Cubin.Image.find_kernel image name with
      | None -> Error Error.Not_found
      | Some info -> (
          match Gpusim.Kernels.find name with
          | None -> Error Error.Not_found
          | Some kernel ->
              Ok
                (Int64.of_int
                   (Context.add_function ctx
                      { Context.module_handle = Int64.to_int modul; info;
                        kernel }))))

(* Globals get device storage on first lookup, keyed by (module, name). *)
let module_get_global ctx ~modul ~name =
  charge ctx dispatch_ns;
  let mh = Int64.to_int modul in
  match Context.find_module ctx mh with
  | None -> Error Error.Invalid_handle
  | Some (_, image) -> (
      match
        List.find_opt
          (fun (g : Cubin.Image.global_info) -> g.Cubin.Image.name = name)
          image.Cubin.Image.globals
      with
      | None -> Error Error.Not_found
      | Some g -> (
          match Context.find_global ctx (mh, name) with
          | Some ptr -> Ok (Int64.of_int ptr, Int64.of_int g.Cubin.Image.size)
          | None -> (
              match Gpusim.Memory.alloc (mem ctx) g.Cubin.Image.size with
              | exception Gpusim.Memory.Error _ ->
                  Error Error.Memory_allocation
              | ptr ->
                  (match g.Cubin.Image.init with
                  | Some init -> Gpusim.Memory.write (mem ctx) ptr init
                  | None -> ());
                  Context.add_global ctx (mh, name) ptr;
                  Ok (Int64.of_int ptr, Int64.of_int g.Cubin.Image.size))))

type launch_config = {
  function_handle : int64;
  grid : Gpusim.Kernels.dim3;
  block : Gpusim.Kernels.dim3;
  shared_mem_bytes : int;
  stream : int64;
}

let launch_kernel ctx config ~params =
  charge ctx (dispatch_ns * 2) (* launches do more driver work *);
  match Context.find_function ctx (Int64.to_int config.function_handle) with
  | None -> Error.Invalid_handle
  | Some entry -> (
      match Cubin.Image.unpack_args entry.Context.info params with
      | Error _ -> Error.Invalid_value
      | Ok args -> (
          let launch =
            { Gpusim.Kernels.grid = config.grid; block = config.block;
              shared_mem = config.shared_mem_bytes; args }
          in
          let gpu = Context.gpu ctx in
          let kernel = entry.Context.kernel in
          let stream = Int64.to_int config.stream in
          match
            if Context.functional ctx then
              Gpusim.Gpu.launch gpu ~now:(now ctx) ~stream kernel launch
            else
              Gpusim.Gpu.launch gpu ~now:(now ctx) ~stream ~execute:false
                kernel launch
          with
          | (_ : Time.t) -> Error.Success
          | exception Not_found -> Error.Invalid_handle
          | exception Gpusim.Kernels.Bad_args _ -> Error.Launch_failure
          | exception Gpusim.Memory.Error _ -> Error.Launch_failure))

let launch_kernel_async ctx config ~params =
  match launch_kernel ctx config ~params with
  | Error.Success -> ()
  | e -> Context.set_async_error ctx e
