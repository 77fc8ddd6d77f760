type params = { data_bytes : int; iterations : int }

let default = { data_bytes = 64 lsl 20; iterations = 300 }
let paper = { data_bytes = 64 lsl 20; iterations = 40_000 }

let bins = 256

let reference_histogram data =
  let counts = Array.make bins 0 in
  for i = 0 to Bytes.length data - 1 do
    let c = Char.code (Bytes.unsafe_get data i) in
    counts.(c) <- counts.(c) + 1
  done;
  counts

let run ?(verify = true) p (env : Unikernel.Runner.env) =
  let client = env.Unikernel.Runner.client in
  (* input generation: this is where the C samples' slow rand() bites *)
  Unikernel.Runner.charge_rng env p.data_bytes;
  let data = Workload.xorshift_bytes ~seed:42 p.data_bytes in
  ignore (Cricket.Client.get_device_count client);
  Cricket.Client.set_device client 0;
  let d_data = Cricket.Client.malloc client p.data_bytes in
  let d_partial = Cricket.Client.malloc client (4 * bins) in
  let d_hist = Cricket.Client.malloc client (4 * bins) in
  Cricket.Client.memcpy_h2d client ~dst:d_data data;
  let modul = Workload.load_standard_module client in
  let histogram_kernel =
    Workload.get_kernel client ~modul Gpusim.Kernels.histogram256_name
  in
  let merge_kernel =
    Workload.get_kernel client ~modul Gpusim.Kernels.merge_histogram256_name
  in
  let grid = { Cricket.Client.x = 240; y = 1; z = 1 } in
  let blk = { Cricket.Client.x = 192; y = 1; z = 1 } in
  for _ = 1 to p.iterations do
    Cricket.Client.launch client histogram_kernel ~grid ~block:blk
      [|
        Gpusim.Kernels.Ptr (Int64.to_int d_partial);
        Gpusim.Kernels.Ptr (Int64.to_int d_data);
        Gpusim.Kernels.I32 (Int32.of_int p.data_bytes);
      |];
    Cricket.Client.launch client merge_kernel
      ~grid:{ Cricket.Client.x = bins; y = 1; z = 1 }
      ~block:{ Cricket.Client.x = 256; y = 1; z = 1 }
      [|
        Gpusim.Kernels.Ptr (Int64.to_int d_hist);
        Gpusim.Kernels.Ptr (Int64.to_int d_partial);
        Gpusim.Kernels.I32 1l;
      |]
  done;
  Cricket.Client.device_synchronize client;
  let result = Cricket.Client.memcpy_d2h client ~src:d_hist ~len:(4 * bins) in
  if verify then begin
    let expected = reference_histogram data in
    let got =
      Array.init bins (fun i ->
          Int32.to_int (Bytes.get_int32_le result (4 * i)))
    in
    Array.iteri
      (fun i v ->
        if v <> expected.(i) then
          failwith
            (Printf.sprintf "histogram: bin %d = %d, expected %d" i v
               expected.(i)))
      got
  end;
  Cricket.Client.free client d_data;
  Cricket.Client.free client d_partial;
  Cricket.Client.free client d_hist;
  Cricket.Client.module_unload client modul
