module Time = Simnet.Time

type t = {
  device : Device.t;
  mutable memory : Memory.t;
  streams : (int, Stream.t) Hashtbl.t;
  events : (int, Event.t) Hashtbl.t;
  mutable next_handle : int;
  mutable next_seq : int;  (* device-wide submission order *)
  mutable obs : Obs.Recorder.t;
}

let default_stream = 0
let default_capacity_clamp = 2 lsl 30

let create ?memory_capacity ?(capacity_clamp = default_capacity_clamp) device
    =
  let capacity =
    match memory_capacity with
    | Some c -> c
    | None ->
        let mem = device.Device.total_global_mem in
        if Int64.compare mem (Int64.of_int capacity_clamp) > 0 then
          capacity_clamp
        else Int64.to_int mem
  in
  let t =
    {
      device;
      memory = Memory.create ~capacity;
      streams = Hashtbl.create 8;
      events = Hashtbl.create 8;
      next_handle = 1;
      next_seq = 0;
      obs = Obs.Recorder.null;
    }
  in
  Hashtbl.add t.streams default_stream (Stream.create ~id:default_stream);
  t

let set_obs t obs = t.obs <- obs

(* Stream commands execute in the virtual future: [finish] (the stream's
   completion time) may lie past the dispatch span that enqueued the
   command, so the span is recorded retroactively at root level with
   explicit timestamps rather than nested under the current open span. *)
let gpu_span t name ~finish ~cost =
  if Obs.Recorder.enabled t.obs then
    Obs.Recorder.span_event t.obs ~layer:"gpu" ~name
      ~start_ns:(Time.sub finish cost) ~stop_ns:finish

let device t = t.device
let memory t = t.memory

let fresh_handle t =
  let h = t.next_handle in
  t.next_handle <- h + 1;
  h

let next_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let stream_create t =
  let h = fresh_handle t in
  Hashtbl.add t.streams h (Stream.create ~id:h);
  h

let stream_ref t handle = Hashtbl.find t.streams handle

let stream_destroy t handle =
  if handle = default_stream then invalid_arg "cannot destroy default stream";
  if not (Hashtbl.mem t.streams handle) then raise Not_found;
  Hashtbl.remove t.streams handle

let stream_valid t handle = Hashtbl.mem t.streams handle
let stream_pending t handle = Stream.pending (stream_ref t handle)
let stream_commands t handle = Stream.pending_commands (stream_ref t handle)

let stream_synchronize t ~now handle =
  let stream = stream_ref t handle in
  let completion = Stream.completion stream in
  let resume = if Time.compare completion now > 0 then completion else now in
  Stream.retire stream ~now:resume;
  resume

(* Transfer costs: host<->device staging over PCIe, on-device fills at
   memory bandwidth. *)
let pcie_cost t bytes =
  Time.of_float_ns (Float.of_int bytes /. t.device.Device.pcie_bandwidth *. 1e9)

let membw_cost t bytes =
  Time.of_float_ns
    (Float.of_int bytes /. t.device.Device.memory_bandwidth *. 1e9)

let launch t ~now ?(stream = default_stream) ?(execute = true) kernel
    launch_params =
  let s = stream_ref t stream in
  let cost_ns = kernel.Kernels.cost t.device launch_params in
  let cost =
    Time.add
      (Time.ns t.device.Device.launch_overhead_ns)
      (Time.of_float_ns cost_ns)
  in
  if execute then kernel.Kernels.execute t.memory launch_params;
  let finish =
    Stream.enqueue s ~now ~seq:(next_seq t)
      ~op:(Stream.Kernel_launch kernel.Kernels.name)
      ~cost
  in
  gpu_span t kernel.Kernels.name ~finish ~cost;
  finish

let memcpy_h2d t ~now ?(stream = default_stream) ~dst data =
  let s = stream_ref t stream in
  Memory.write t.memory dst data;
  let len = Bytes.length data in
  let cost = pcie_cost t len in
  let finish =
    Stream.enqueue s ~now ~seq:(next_seq t) ~op:(Stream.Memcpy_h2d len) ~cost
  in
  gpu_span t "memcpy_h2d" ~finish ~cost;
  finish

let memcpy_d2h t ~now ?(stream = default_stream) ~src len =
  let s = stream_ref t stream in
  (* Eager data effects mean device memory already reflects everything
     enqueued before this command, so reading now is stream-ordered. *)
  let data = Memory.read t.memory src len in
  let cost = pcie_cost t len in
  let finish =
    Stream.enqueue s ~now ~seq:(next_seq t) ~op:(Stream.Memcpy_d2h len) ~cost
  in
  gpu_span t "memcpy_d2h" ~finish ~cost;
  (finish, data)

let memset t ~now ?(stream = default_stream) ~ptr ~value len =
  let s = stream_ref t stream in
  Memory.memset t.memory ptr value len;
  let cost = membw_cost t len in
  let finish =
    Stream.enqueue s ~now ~seq:(next_seq t) ~op:(Stream.Memset len) ~cost
  in
  gpu_span t "memset" ~finish ~cost;
  finish

let synchronize t ~now =
  let resume =
    Hashtbl.fold
      (fun _ s acc ->
        let c = Stream.completion s in
        if Time.compare c acc > 0 then c else acc)
      t.streams now
  in
  Hashtbl.iter (fun _ s -> Stream.retire s ~now:resume) t.streams;
  resume

let event_create t =
  let h = fresh_handle t in
  Hashtbl.add t.events h (Event.create ~id:h);
  h

let event_destroy t handle =
  if not (Hashtbl.mem t.events handle) then raise Not_found;
  Hashtbl.remove t.events handle

let event_record t ~now ~event ~stream =
  let e = Hashtbl.find t.events event in
  let s = stream_ref t stream in
  let completion = Stream.completion s in
  let when_ = if Time.compare completion now > 0 then completion else now in
  Event.record e when_

let event_synchronize t ~now handle =
  match Event.recorded (Hashtbl.find t.events handle) with
  | Some when_ -> if Time.compare when_ now > 0 then when_ else now
  | None -> now

let event_elapsed_ms t ~start ~stop =
  Event.elapsed_ms
    ~start:(Hashtbl.find t.events start)
    ~stop:(Hashtbl.find t.events stop)

let stream_wait_event t ~stream ~event =
  let e = Hashtbl.find t.events event in
  let s = stream_ref t stream in
  Stream.wait_event s ~seq:(next_seq t) ~event ~time:(Event.recorded e)

type handles = {
  hs_streams : int list;
  hs_events : (int * Time.t option) list;
  hs_next_handle : int;
  hs_next_seq : int;
}

let handles t =
  {
    hs_streams =
      Hashtbl.fold
        (fun h _ acc -> if h = default_stream then acc else h :: acc)
        t.streams [];
    hs_events =
      Hashtbl.fold (fun h e acc -> (h, Event.recorded e) :: acc) t.events [];
    hs_next_handle = t.next_handle;
    hs_next_seq = t.next_seq;
  }

let set_handles t hs =
  Hashtbl.reset t.streams;
  Hashtbl.add t.streams default_stream (Stream.create ~id:default_stream);
  List.iter
    (fun h -> Hashtbl.add t.streams h (Stream.create ~id:h))
    hs.hs_streams;
  Hashtbl.reset t.events;
  List.iter
    (fun (h, recorded) ->
      let e = Event.create ~id:h in
      (match recorded with Some tm -> Event.record e tm | None -> ());
      Hashtbl.add t.events h e)
    hs.hs_events;
  t.next_handle <- hs.hs_next_handle;
  t.next_seq <- hs.hs_next_seq

let reset t =
  Memory.reset t.memory;
  Hashtbl.reset t.streams;
  Hashtbl.reset t.events;
  Hashtbl.add t.streams default_stream (Stream.create ~id:default_stream);
  t.next_handle <- 1;
  t.next_seq <- 0

let set_memory t m = t.memory <- m
