let create ctx = Int64.of_int (Context.add_cublas ctx)

let destroy ctx h =
  if Context.remove_cublas ctx (Int64.to_int h) then Error.Success
  else Error.Invalid_handle

type sgemm_args = {
  handle : int64;
  m : int;
  n : int;
  k : int;
  alpha : float;
  a : int64;
  lda : int;
  b : int64;
  ldb : int;
  beta : float;
  c : int64;
  ldc : int;
}

let sgemm_kernel args =
  let execute mem (_ : Gpusim.Kernels.launch) =
    Gpusim.Memory.sgemm mem ~m:args.m ~n:args.n ~k:args.k ~alpha:args.alpha
      ~a:(Int64.to_int args.a) ~lda:args.lda ~b:(Int64.to_int args.b)
      ~ldb:args.ldb ~beta:args.beta ~c:(Int64.to_int args.c) ~ldc:args.ldc
  in
  let cost (d : Gpusim.Device.t) (_ : Gpusim.Kernels.launch) =
    let flops =
      2.0 *. Float.of_int args.m *. Float.of_int args.n *. Float.of_int args.k
    in
    let bytes =
      4.0
      *. Float.of_int ((args.m * args.k) + (args.k * args.n) + (args.m * args.n))
    in
    let compute = flops /. Gpusim.Device.effective_flops d `F32 *. 1e9 in
    let memory = bytes /. (d.Gpusim.Device.memory_bandwidth *. 0.85) *. 1e9 in
    Float.max compute memory +. 2_000.0
  in
  {
    Gpusim.Kernels.name = "cublasSgemm_internal";
    params = [];
    execute;
    cost;
  }

let sgemm ctx args =
  Api.(charge ctx (dispatch_ns * 2));
  if not (Context.valid_cublas ctx (Int64.to_int args.handle)) then
    Error.Invalid_handle
  else if args.m < 0 || args.n < 0 || args.k < 0 || args.lda < max 1 args.m
          || args.ldb < max 1 args.k || args.ldc < max 1 args.m
  then Error.Invalid_value
  else begin
    let kernel = sgemm_kernel args in
    let kernel =
      if Context.functional ctx then kernel
      else { kernel with Gpusim.Kernels.execute = (fun _ _ -> ()) }
    in
    let launch =
      {
        Gpusim.Kernels.grid = { Gpusim.Kernels.x = 1; y = 1; z = 1 };
        block = { Gpusim.Kernels.x = 1; y = 1; z = 1 };
        shared_mem = 0;
        args = [||];
      }
    in
    let gpu = Context.gpu ctx in
    match
      Gpusim.Gpu.launch gpu
        ~now:((Context.clock ctx).Context.now ())
        kernel launch
    with
    | (_ : Simnet.Time.t) -> Error.Success
    | exception Gpusim.Memory.Error _ -> Error.Invalid_value
  end

(* --- level 1 / level 2 routines --- *)

let check_l1 ctx ~handle ~n k =
  Api.(charge ctx dispatch_ns);
  if not (Context.valid_cublas ctx (Int64.to_int handle)) then
    Error Error.Invalid_handle
  else if n < 0 then Error Error.Invalid_value
  else k ()

(* Admit the [n] elements of a strided vector: element i sits at
   [p + 4 * i * inc], below [p] when [inc] is negative. *)
let vector_span mem p ~n ~inc =
  let len = Gpusim.Memory.extent mem ~runs:n ~ld:(abs inc) 1 in
  Gpusim.Memory.span mem (if inc < 0 then p - (len - 4) else p) len

(* Run a BLAS routine synchronously on the device (the L1 routines that
   return scalars block the host, as the real library's default pointer
   mode does). An operand outside device memory fails the call with
   [Invalid_value], as [sgemm] does. *)
let run_sync ctx ~cost_ns execute =
  let gpu = Context.gpu ctx in
  let kernel =
    {
      Gpusim.Kernels.name = "cublas_internal";
      params = [];
      execute =
        (if Context.functional ctx then fun mem _ -> execute mem
         else fun _ _ -> ());
      cost = (fun _ _ -> cost_ns);
    }
  in
  let launch =
    {
      Gpusim.Kernels.grid = { Gpusim.Kernels.x = 1; y = 1; z = 1 };
      block = { Gpusim.Kernels.x = 1; y = 1; z = 1 };
      shared_mem = 0;
      args = [||];
    }
  in
  let clock = Context.clock ctx in
  match Gpusim.Gpu.launch gpu ~now:(clock.Context.now ()) kernel launch with
  | completion -> Ok (clock.Context.advance_to completion)
  | exception Gpusim.Memory.Error _ -> Error Error.Invalid_value

let stream_cost (d : Gpusim.Device.t) bytes =
  (Float.of_int bytes /. (d.Gpusim.Device.memory_bandwidth *. 0.85) *. 1e9)
  +. Float.of_int d.Gpusim.Device.launch_overhead_ns

type sgemv_args = {
  gv_handle : int64;
  gv_m : int;
  gv_n : int;
  gv_alpha : float;
  gv_a : int64;
  gv_lda : int;
  gv_x : int64;
  gv_incx : int;
  gv_beta : float;
  gv_y : int64;
  gv_incy : int;
}

let sgemv ctx (g : sgemv_args) =
  Api.(charge ctx dispatch_ns);
  if not (Context.valid_cublas ctx (Int64.to_int g.gv_handle)) then
    Error.Invalid_handle
  else if g.gv_m < 0 || g.gv_n < 0 || g.gv_lda < max 1 g.gv_m
          || g.gv_incx = 0 || g.gv_incy = 0
  then Error.Invalid_value
  else begin
    let d = Gpusim.Gpu.device (Context.gpu ctx) in
    match
      run_sync ctx ~cost_ns:(stream_cost d (4 * g.gv_m * g.gv_n)) (fun mem ->
          (* y <- alpha * A x + beta * y; column-major m x n *)
          let a = Int64.to_int g.gv_a
          and x = Int64.to_int g.gv_x
          and y = Int64.to_int g.gv_y in
          if g.gv_m > 0 then begin
            Gpusim.Memory.span mem a
              (Gpusim.Memory.extent mem ~runs:g.gv_n ~ld:g.gv_lda g.gv_m);
            vector_span mem x ~n:g.gv_n ~inc:g.gv_incx;
            vector_span mem y ~n:g.gv_m ~inc:g.gv_incy
          end;
          for i = 0 to g.gv_m - 1 do
            let acc = ref 0.0 in
            for j = 0 to g.gv_n - 1 do
              acc :=
                !acc
                +. Gpusim.Memory.get_f32 mem (a + (4 * ((j * g.gv_lda) + i)))
                   *. Gpusim.Memory.get_f32 mem (x + (4 * j * g.gv_incx))
            done;
            let yi = y + (4 * i * g.gv_incy) in
            let prior =
              if g.gv_beta = 0.0 then 0.0 else Gpusim.Memory.get_f32 mem yi
            in
            Gpusim.Memory.set_f32 mem yi
              ((g.gv_alpha *. !acc) +. (g.gv_beta *. prior))
          done)
    with
    | Ok () -> Error.Success
    | Error e -> e
  end

let sdot ctx ~handle ~n ~x ~incx ~y ~incy =
  if incx = 0 || incy = 0 then Error Error.Invalid_value
  else
    check_l1 ctx ~handle ~n (fun () ->
        let result = ref 0.0 in
        let d = Gpusim.Gpu.device (Context.gpu ctx) in
        run_sync ctx ~cost_ns:(stream_cost d (8 * n)) (fun mem ->
            let xp = Int64.to_int x and yp = Int64.to_int y in
            vector_span mem xp ~n ~inc:incx;
            vector_span mem yp ~n ~inc:incy;
            let acc = ref 0.0 in
            for i = 0 to n - 1 do
              acc :=
                !acc
                +. Gpusim.Memory.get_f32 mem (xp + (4 * i * incx))
                   *. Gpusim.Memory.get_f32 mem (yp + (4 * i * incy))
            done;
            result := !acc)
        |> Result.map (fun () -> !result))

let sscal ctx ~handle ~n ~alpha ~x ~incx =
  if incx = 0 then Error.Invalid_value
  else
    match
      check_l1 ctx ~handle ~n (fun () ->
          let d = Gpusim.Gpu.device (Context.gpu ctx) in
          run_sync ctx ~cost_ns:(stream_cost d (8 * n)) (fun mem ->
              let xp = Int64.to_int x in
              vector_span mem xp ~n ~inc:incx;
              for i = 0 to n - 1 do
                let addr = xp + (4 * i * incx) in
                Gpusim.Memory.set_f32 mem addr
                  (alpha *. Gpusim.Memory.get_f32 mem addr)
              done))
    with
    | Ok () -> Error.Success
    | Error e -> e

let snrm2 ctx ~handle ~n ~x ~incx =
  if incx = 0 then Error Error.Invalid_value
  else
    check_l1 ctx ~handle ~n (fun () ->
        let result = ref 0.0 in
        let d = Gpusim.Gpu.device (Context.gpu ctx) in
        run_sync ctx ~cost_ns:(stream_cost d (4 * n)) (fun mem ->
            let xp = Int64.to_int x in
            vector_span mem xp ~n ~inc:incx;
            let acc = ref 0.0 in
            for i = 0 to n - 1 do
              let v = Gpusim.Memory.get_f32 mem (xp + (4 * i * incx)) in
              acc := !acc +. (v *. v)
            done;
            result := Float.sqrt !acc)
        |> Result.map (fun () -> !result))
