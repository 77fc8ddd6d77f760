(* Shortest-program superoptimizer over a one-byte accumulator ISA. *)

let opcode_count = 8

let op_names = [| "INC"; "DEC"; "NOT"; "NEG"; "SHL"; "SHR"; "ROL"; "SWAP" |]

let op_name o = op_names.(o)

let program_to_string p = String.concat ";" (List.map op_name p)

let apply_op op a =
  match op with
  | 0 -> (a + 1) land 0xff (* INC *)
  | 1 -> (a - 1) land 0xff (* DEC *)
  | 2 -> lnot a land 0xff (* NOT *)
  | 3 -> -a land 0xff (* NEG *)
  | 4 -> (a lsl 1) land 0xff (* SHL *)
  | 5 -> a lsr 1 (* SHR *)
  | 6 -> ((a lsl 1) lor (a lsr 7)) land 0xff (* ROL *)
  | 7 -> ((a lsl 4) lor (a lsr 4)) land 0xff (* SWAP — nibble swap *)
  | _ -> invalid_arg "Superopt.apply_op: bad opcode"

let run_program p input = List.fold_left (fun a op -> apply_op op a) input p

let table_of_program p =
  Bytes.init 256 (fun i -> Char.chr (run_program p i))

(* Candidate index -> program: base-8 digits, least significant digit is
   the first instruction, so consecutive indices share instruction
   prefixes and the first match in index order is well-defined. *)
let decode_candidate ~len idx =
  let rec go j idx acc =
    if j = len then List.rev acc
    else go (j + 1) (idx / opcode_count) ((idx mod opcode_count) :: acc)
  in
  go 0 idx []

(* --- the device kernel --- *)

let kernel_name = "superoptKernel"

let kernel =
  let open Gpusim.Kernels in
  let params = [ P_ptr; P_ptr; P_i64; P_i32; P_i32 ] in
  let name = kernel_name in
  let execute mem l =
    if Array.length l.args <> 5 then raise (Bad_args "superoptKernel: arity");
    let table, flags, base, batch, len =
      match l.args with
      | [| Ptr t; Ptr f; I64 b; I32 n; I32 k |] ->
          (t, f, Int64.to_int b, Int32.to_int n, Int32.to_int k)
      | _ -> raise (Bad_args "superoptKernel: arg types")
    in
    if batch > 0 then Gpusim.Memory.span mem table 256;
    Gpusim.Memory.span mem flags batch;
    let program = Array.make len 0 in
    for c = 0 to batch - 1 do
      let idx = ref (base + c) in
      for j = 0 to len - 1 do
        program.(j) <- !idx mod opcode_count;
        idx := !idx / opcode_count
      done;
      let ok = ref true in
      let input = ref 0 in
      (* early exit mirrors a lane going idle; the cost model still
         charges the full interpretation (warps run to the slowest lane) *)
      while !ok && !input < 256 do
        let a = ref !input in
        for j = 0 to len - 1 do
          a := apply_op program.(j) !a
        done;
        if !a <> Gpusim.Memory.get_u8 mem (table + !input) then ok := false;
        incr input
      done;
      Gpusim.Memory.set_u8 mem (flags + c) (if !ok then 1 else 0)
    done
  in
  let cost d l =
    let batch =
      match l.args with [| _; _; _; I32 n; _ |] -> Int32.to_int n | _ -> 0
    in
    let len =
      match l.args with [| _; _; _; _; I32 k |] -> Int32.to_int k | _ -> 0
    in
    (* interpreter work per thread: decode (≈8 ops/instr) plus 256 probe
       inputs × len instructions × ≈8 device ops each (fetch, decode
       branch, ALU, compare) — charged in full, data-independently *)
    let ops_per_thread = Float.of_int ((len * 8) + (256 * len * 8) + 32) in
    let flops = Float.of_int batch *. ops_per_thread in
    let compute_ns = flops /. Gpusim.Device.effective_flops d `F32 *. 1e9 in
    let blocks = l.grid.x * l.grid.y * l.grid.z in
    let waves =
      Float.of_int blocks /. Float.of_int d.Gpusim.Device.multi_processor_count
    in
    compute_ns +. (Float.max 1.0 waves *. 500.0)
  in
  { name; params; execute; cost }

let () = Gpusim.Kernels.register kernel

let fatbin ~archs () =
  let images =
    List.map
      (fun arch -> (arch, Cubin.Image.build (Cubin.Image.of_registry ~arch [ kernel_name ])))
      archs
  in
  Cubin.Fatbin.build { Cubin.Fatbin.images }

(* --- search problems --- *)

type spec = { spec_name : string; reference : int list }

let demo_specs =
  [
    (* NOT;INC is two's complement: the search discovers the single NEG *)
    { spec_name = "neg"; reference = [ 2; 0 ] };
    (* four rotates move the high nibble down: ≡ SWAP *)
    { spec_name = "swap"; reference = [ 6; 6; 6; 6 ] };
    (* -a-2 — no length-1 equivalent exists, shortest is length 2 *)
    { spec_name = "negsub2"; reference = [ 2; 1 ] };
    (* longer pipelines with no equivalent below length 6: these force
       the search through every level and carry the benchmark's load *)
    { spec_name = "deep"; reference = [ 0; 6; 2; 7; 1; 5 ] };
    { spec_name = "deep2"; reference = [ 5; 0; 7; 2; 6; 1 ] };
  ]

type search_result = {
  program : int list option;
  candidates : int;
  launches : int;
}

let block_threads = 128

let search ~cluster ?(batch = 256) ~max_len spec =
  let archs =
    (* one image per distinct major arch in the fleet, at minor 0 so every
       device of that major can run it *)
    List.init (Fleet.Cluster.device_count cluster) (fun i ->
        (Fleet.Cluster.device cluster i).Gpusim.Device.compute_major)
    |> List.sort_uniq compare
    |> List.map (fun major -> (major, 0))
  in
  let data = fatbin ~archs () in
  match Fleet.Cluster.load_module cluster data with
  | Error _ as e -> e
  | Ok modul -> (
      match Fleet.Cluster.get_function cluster modul kernel_name with
      | Error _ as e -> e
      | Ok func ->
          let table = table_of_program spec.reference in
          (* per-device spec table and flags buffer *)
          let bufs =
            List.map
              (fun dev ->
                let gpu = Fleet.Cluster.gpu cluster dev in
                let mem = Gpusim.Gpu.memory gpu in
                let d_table = Gpusim.Memory.alloc mem 256 in
                let d_flags = Gpusim.Memory.alloc mem batch in
                ignore
                  (Gpusim.Gpu.memcpy_h2d gpu ~now:(Fleet.Cluster.now cluster)
                     ~dst:d_table table);
                (dev, (d_table, d_flags)))
              (Fleet.Cluster.eligible modul)
          in
          let table_ptr dev = fst (List.assoc dev bufs)
          and flags_ptr dev = snd (List.assoc dev bufs) in
          let candidates = ref 0 and launches = ref 0 in
          let found = ref None in
          let len = ref 1 in
          while !found = None && !len <= max_len do
            let l = !len in
            let total =
              int_of_float (Float.pow (Float.of_int opcode_count) (Float.of_int l))
            in
            let best = ref None in
            let base = ref 0 in
            (* batches ascend through the index space, so the first batch
               containing a verified match holds the lowest-numbered
               program of this length — stop submitting after it *)
            while !base < total && !best = None do
              let n = min batch (total - !base) in
              let b = !base in
              let mk dev =
                {
                  Gpusim.Kernels.grid =
                    {
                      x = (n + block_threads - 1) / block_threads;
                      y = 1;
                      z = 1;
                    };
                  block = { x = block_threads; y = 1; z = 1 };
                  shared_mem = 0;
                  args =
                    [|
                      Gpusim.Kernels.Ptr (table_ptr dev);
                      Gpusim.Kernels.Ptr (flags_ptr dev);
                      Gpusim.Kernels.I64 (Int64.of_int b);
                      Gpusim.Kernels.I32 (Int32.of_int n);
                      Gpusim.Kernels.I32 (Int32.of_int l);
                    |];
                }
              in
              (match Fleet.Cluster.launch cluster func mk with
              | Error e ->
                  failwith
                    (Printf.sprintf "superopt launch: %s"
                       (Fleet.Cluster.error_message e))
              | Ok (dev, _finish) ->
                  incr launches;
                  candidates := !candidates + n;
                  (* flags are valid immediately: data effects are eager,
                     only time is accounted on the device stream *)
                  let gpu = Fleet.Cluster.gpu cluster dev in
                  let _, data =
                    Gpusim.Gpu.memcpy_d2h gpu ~now:(Fleet.Cluster.now cluster)
                      ~src:(flags_ptr dev) n
                  in
                  (try
                     for c = 0 to n - 1 do
                       if Bytes.get data c = '\001' then begin
                         let p = decode_candidate ~len:l (b + c) in
                         (* re-verify host-side: a flag is a claim, the
                            truth table is the authority *)
                         if table_of_program p = table then begin
                           (match !best with
                           | Some (bi, _) when bi <= b + c -> ()
                           | _ -> best := Some (b + c, p));
                           raise Exit
                         end
                       end
                     done
                   with Exit -> ()));
              base := !base + batch
            done;
            (* level barrier: all devices drain before the next length *)
            ignore (Fleet.Cluster.barrier cluster);
            (match !best with Some (_, p) -> found := Some p | None -> ());
            incr len
          done;
          List.iter
            (fun (dev, (d_table, d_flags)) ->
              let mem = Gpusim.Gpu.memory (Fleet.Cluster.gpu cluster dev) in
              Gpusim.Memory.free mem d_table;
              Gpusim.Memory.free mem d_flags)
            bufs;
          Ok { program = !found; candidates = !candidates; launches = !launches })
