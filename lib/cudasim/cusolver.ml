(* Sustained fraction of peak fp32 for small-matrix panel-bound dense
   factorizations (latency-bound; calibrated to ~18 ms for n = 900 on the
   A100 profile — see EXPERIMENTS.md). *)
let solver_efficiency = 0.0014

let create ctx = Int64.of_int (Context.add_cusolver ctx)

let destroy ctx h =
  if Context.remove_cusolver ctx (Int64.to_int h) then Error.Success
  else Error.Invalid_handle

let check_handle ctx handle k =
  if Context.valid_cusolver ctx (Int64.to_int handle) then k ()
  else Error Error.Invalid_handle

let sgetrf_buffer_size ctx ~handle ~m ~n ~a ~lda =
  Api.(charge ctx dispatch_ns);
  ignore a;
  check_handle ctx handle (fun () ->
      if m <= 0 || n <= 0 || lda < m then Error Error.Invalid_value
      else Ok (m * n))

(* Each routine admits all of its operands before the first store, so a
   bad pointer fails the call without changing device memory. *)
let matrix_span mem base ~rows ~cols ~ld =
  Gpusim.Memory.span mem base (Gpusim.Memory.extent mem ~runs:cols ~ld rows)

(* Extract a column-major matrix into a flat float array for speed; the
   factorization is O(n³) scalar operations and must not go through the
   checked element accessors. *)
let extract mem base ~rows ~cols ~ld =
  let a = Array.make (rows * cols) 0.0 in
  for j = 0 to cols - 1 do
    for i = 0 to rows - 1 do
      a.((j * rows) + i) <- Gpusim.Memory.get_f32 mem (base + (4 * ((j * ld) + i)))
    done
  done;
  a

let write_back mem base ~rows ~cols ~ld a =
  for j = 0 to cols - 1 do
    for i = 0 to rows - 1 do
      Gpusim.Memory.set_f32 mem (base + (4 * ((j * ld) + i))) a.((j * rows) + i)
    done
  done

let getrf_cost (d : Gpusim.Device.t) ~m ~n =
  let k = min m n in
  let flops =
    (* Σ over panels ≈ mn·k - (m+n)k²/2 + k³/3; use the square-case form *)
    Float.of_int m *. Float.of_int n *. Float.of_int k *. (2.0 /. 3.0)
  in
  flops /. (d.Gpusim.Device.fp32_tflops *. 1e12 *. solver_efficiency) *. 1e9
  +. 200_000.0 (* library entry + panel setup *)

let getrs_cost (d : Gpusim.Device.t) ~n ~nrhs =
  let flops = 2.0 *. Float.of_int n *. Float.of_int n *. Float.of_int nrhs in
  (* two triangular solves: latency-bound sweeps over n panels *)
  flops /. (d.Gpusim.Device.fp32_tflops *. 1e12 *. solver_efficiency) *. 1e9
  +. 1_000_000.0

let run_on_gpu ctx ~cost_ns execute =
  let gpu = Context.gpu ctx in
  let kernel =
    {
      Gpusim.Kernels.name = "cusolver_internal";
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
  (* the solver routines are synchronous: the host waits for completion *)
  match Gpusim.Gpu.launch gpu ~now:(clock.Context.now ()) kernel launch with
  | completion -> Ok (clock.Context.advance_to completion)
  | exception Gpusim.Memory.Error _ -> Error Error.Invalid_value

let sgetrf ctx ~handle ~m ~n ~a ~lda ~workspace ~ipiv =
  Api.(charge ctx (dispatch_ns * 2));
  ignore workspace;
  check_handle ctx handle (fun () ->
      if m <= 0 || n <= 0 || lda < m then Error Error.Invalid_value
      else begin
        let info = ref 0 in
        let d = Gpusim.Gpu.device (Context.gpu ctx) in
        let k = min m n in
        run_on_gpu ctx ~cost_ns:(getrf_cost d ~m ~n) (fun mem ->
            matrix_span mem (Int64.to_int a) ~rows:m ~cols:n ~ld:lda;
            Gpusim.Memory.span mem (Int64.to_int ipiv) (4 * k);
            let mat = extract mem (Int64.to_int a) ~rows:m ~cols:n ~ld:lda in
            let piv = Array.make k 0 in
            (try
               for step = 0 to k - 1 do
                 (* partial pivot: largest |value| in column [step] *)
                 let pivot_row = ref step in
                 let pivot_val = ref (Float.abs mat.((step * m) + step)) in
                 for i = step + 1 to m - 1 do
                   let v = Float.abs mat.((step * m) + i) in
                   if v > !pivot_val then begin
                     pivot_val := v;
                     pivot_row := i
                   end
                 done;
                 piv.(step) <- !pivot_row + 1;
                 if !pivot_val = 0.0 then begin
                   info := step + 1;
                   raise Exit
                 end;
                 if !pivot_row <> step then
                   for j = 0 to n - 1 do
                     let tmp = mat.((j * m) + step) in
                     mat.((j * m) + step) <- mat.((j * m) + !pivot_row);
                     mat.((j * m) + !pivot_row) <- tmp
                   done;
                 let diag = mat.((step * m) + step) in
                 for i = step + 1 to m - 1 do
                   mat.((step * m) + i) <- mat.((step * m) + i) /. diag
                 done;
                 for j = step + 1 to n - 1 do
                   let ukj = mat.((j * m) + step) in
                   for i = step + 1 to m - 1 do
                     mat.((j * m) + i) <-
                       mat.((j * m) + i) -. (mat.((step * m) + i) *. ukj)
                   done
                 done
               done
             with Exit -> ());
            write_back mem (Int64.to_int a) ~rows:m ~cols:n ~ld:lda mat;
            for s = 0 to k - 1 do
              Gpusim.Memory.set_i32 mem
                (Int64.to_int ipiv + (4 * s))
                (Int32.of_int piv.(s))
            done)
        |> Result.map (fun () -> !info)
      end)

let sgetrs ctx ~handle ~n ~nrhs ~a ~lda ~ipiv ~b ~ldb =
  Api.(charge ctx (dispatch_ns * 2));
  check_handle ctx handle (fun () ->
      if n <= 0 || nrhs <= 0 || lda < n || ldb < n then
        Error Error.Invalid_value
      else begin
        let d = Gpusim.Gpu.device (Context.gpu ctx) in
        run_on_gpu ctx ~cost_ns:(getrs_cost d ~n ~nrhs) (fun mem ->
            matrix_span mem (Int64.to_int a) ~rows:n ~cols:n ~ld:lda;
            matrix_span mem (Int64.to_int b) ~rows:n ~cols:nrhs ~ld:ldb;
            Gpusim.Memory.span mem (Int64.to_int ipiv) (4 * n);
            let lu = extract mem (Int64.to_int a) ~rows:n ~cols:n ~ld:lda in
            let rhs = extract mem (Int64.to_int b) ~rows:n ~cols:nrhs ~ld:ldb in
            let piv =
              Array.init n (fun s ->
                  Int32.to_int
                    (Gpusim.Memory.get_i32 mem (Int64.to_int ipiv + (4 * s))))
            in
            for col = 0 to nrhs - 1 do
              let x = Array.init n (fun i -> rhs.((col * n) + i)) in
              (* apply row interchanges *)
              for s = 0 to n - 1 do
                let p = piv.(s) - 1 in
                if p <> s && p >= 0 && p < n then begin
                  let tmp = x.(s) in
                  x.(s) <- x.(p);
                  x.(p) <- tmp
                end
              done;
              (* forward substitution with unit-diagonal L *)
              for i = 1 to n - 1 do
                let acc = ref x.(i) in
                for j = 0 to i - 1 do
                  acc := !acc -. (lu.((j * n) + i) *. x.(j))
                done;
                x.(i) <- !acc
              done;
              (* back substitution with U *)
              for i = n - 1 downto 0 do
                let acc = ref x.(i) in
                for j = i + 1 to n - 1 do
                  acc := !acc -. (lu.((j * n) + i) *. x.(j))
                done;
                x.(i) <- !acc /. lu.((i * n) + i)
              done;
              for i = 0 to n - 1 do
                rhs.((col * n) + i) <- x.(i)
              done
            done;
            write_back mem (Int64.to_int b) ~rows:n ~cols:nrhs ~ld:ldb rhs)
        |> Result.map (fun () -> 0)
      end)
