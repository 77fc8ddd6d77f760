(* Bechamel microbenchmarks: real host-time cost of the simulation
   pipeline, one Test.make per paper table/figure (the virtual-time numbers
   those experiments report are produced by Figures; these measure how fast
   the reproduction itself runs). *)

open Bechamel
open Toolkit

let make_env () =
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~memory_capacity:(1 lsl 24)
      ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  Cudasim.Context.set_functional (Cricket.Server.context server) false;
  Cricket.Local.connect server

let test_table1 =
  Test.make ~name:"table1/config-table"
    (Staged.stage (fun () -> ignore (Unikernel.Config.table1_rows ())))

let test_fig5a =
  let client = make_env () in
  let image = Cubin.Image.of_registry [ Gpusim.Kernels.matrix_mul_name ] in
  let modul = Cricket.Client.module_load client (Cubin.Image.build image) in
  let func =
    Cricket.Client.get_function client ~modul
      ~name:Gpusim.Kernels.matrix_mul_name
  in
  let d = Cricket.Client.malloc client 4096 in
  Test.make ~name:"fig5a/launch-roundtrip"
    (Staged.stage (fun () ->
         Cricket.Client.launch client func
           ~grid:{ Cricket.Client.x = 10; y = 10; z = 1 }
           ~block:{ Cricket.Client.x = 32; y = 32; z = 1 }
           [|
             Gpusim.Kernels.Ptr (Int64.to_int d);
             Gpusim.Kernels.Ptr (Int64.to_int d);
             Gpusim.Kernels.Ptr (Int64.to_int d);
             Gpusim.Kernels.I32 16l;
             Gpusim.Kernels.I32 16l;
           |]))

let test_fig5b =
  let engine = Simnet.Engine.create () in
  let ctx =
    Cudasim.Context.create ~memory_capacity:(1 lsl 24)
      (Cudasim.Context.engine_clock engine)
  in
  let h = Cudasim.Cusolver.create ctx in
  let n = 64 in
  let d_a =
    match Cudasim.Api.malloc ctx (Int64.of_int (4 * n * n)) with
    | Ok p -> p
    | Error _ -> assert false
  in
  let d_ipiv =
    match Cudasim.Api.malloc ctx (Int64.of_int (4 * n)) with
    | Ok p -> p
    | Error _ -> assert false
  in
  (* non-singular input regenerated per run via the diagonal *)
  Test.make ~name:"fig5b/sgetrf-64"
    (Staged.stage (fun () ->
         let b = Bytes.make (4 * n * n) '\000' in
         for i = 0 to n - 1 do
           Bytes.set_int32_le b (4 * ((i * n) + i)) (Int32.bits_of_float 4.0)
         done;
         ignore (Cudasim.Api.memcpy_h2d ctx ~dst:d_a b);
         ignore
           (Cudasim.Cusolver.sgetrf ctx ~handle:h ~m:n ~n ~a:d_a ~lda:n
              ~workspace:0L ~ipiv:d_ipiv)))

let test_fig5c =
  let m = Gpusim.Memory.create ~capacity:(1 lsl 22) in
  let data = Gpusim.Memory.alloc m (1 lsl 20) in
  let bins = Gpusim.Memory.alloc m 1024 in
  let k = Option.get (Gpusim.Kernels.find Gpusim.Kernels.histogram256_name) in
  Test.make ~name:"fig5c/histogram-1MiB"
    (Staged.stage (fun () ->
         k.Gpusim.Kernels.execute m
           {
             Gpusim.Kernels.grid = { Gpusim.Kernels.x = 240; y = 1; z = 1 };
             block = { Gpusim.Kernels.x = 192; y = 1; z = 1 };
             shared_mem = 0;
             args =
               [|
                 Gpusim.Kernels.Ptr bins; Gpusim.Kernels.Ptr data;
                 Gpusim.Kernels.I32 (Int32.of_int (1 lsl 20));
               |];
           }))

let test_fig6 =
  let client = make_env () in
  Test.make ~name:"fig6/rpc-roundtrip"
    (Staged.stage (fun () -> ignore (Cricket.Client.get_device_count client)))

let test_fig7 =
  let client = make_env () in
  let d = Cricket.Client.malloc client (1 lsl 20) in
  let payload = Bytes.create (1 lsl 20) in
  Test.make ~name:"fig7/memcpy-1MiB-roundtrip"
    (Staged.stage (fun () -> Cricket.Client.memcpy_h2d client ~dst:d payload))

let test_xdr =
  let enc = Xdr.Encode.create () in
  Test.make ~name:"substrate/xdr-encode-1KiB"
    (Staged.stage
       (let payload = Bytes.create 1024 in
        fun () ->
          Xdr.Encode.reset enc;
          Xdr.Encode.uint32 enc 42l;
          Xdr.Encode.opaque enc payload))

let test_record =
  Test.make ~name:"substrate/record-marking-64KiB"
    (Staged.stage
       (let payload = String.make 65536 'x' in
        fun () -> ignore (Oncrpc.Record.to_wire ~fragment_size:8192 payload)))

let test_lzss =
  let image =
    Cubin.Image.build ~compress:false
      (Cubin.Image.of_registry [ Gpusim.Kernels.matrix_mul_name ])
  in
  Test.make ~name:"substrate/lzss-compress-cubin"
    (Staged.stage (fun () -> ignore (Cubin.Lzss.compress image)))

let test_netcost =
  let native = Simnet.Hostprofile.bare_metal_linux in
  Test.make ~name:"substrate/netcost-eval"
    (Staged.stage (fun () ->
         ignore
           (Simnet.Netcost.one_way_time ~sender:native ~receiver:native
              ~link:Simnet.Link.ethernet_100g (1 lsl 20))))

(* --- scatter-gather datapath group ---

   Measures the zero-copy tx path against the seed Buffer-based one at
   each layer: XDR encoding (sliced vs copying), record framing (vectored
   [writev] vs [to_wire]), and the full upload round-trip through the
   stack. The framing pair is the acceptance comparison: both emit
   byte-identical wire images (property-tested), so the throughput delta
   is purely the removed copies. *)

let datapath_tests ~quick =
  let payload_len = 65536 in
  let payload = String.make payload_len 'x' in
  let payload_bytes = Bytes.of_string payload in
  let test_encode_sliced =
    let enc = Xdr.Encode.create () in
    Test.make ~name:"datapath/xdr-encode-64KiB-sliced"
      (Staged.stage (fun () ->
           Xdr.Encode.reset enc;
           Xdr.Encode.uint32 enc 42l;
           Xdr.Encode.opaque enc payload_bytes;
           ignore (Xdr.Encode.to_iovec enc)))
  in
  let test_decode_slice =
    let wire =
      let enc = Xdr.Encode.create () in
      Xdr.Encode.opaque enc payload_bytes;
      Xdr.Encode.to_string enc
    in
    Test.make ~name:"datapath/xdr-decode-64KiB-slice"
      (Staged.stage (fun () ->
           let dec = Xdr.Decode.of_string wire in
           ignore (Xdr.Decode.opaque_slice dec)))
  in
  let test_framing_seed =
    Test.make ~name:"datapath/record-framing-64KiB-seed"
      (Staged.stage (fun () ->
           ignore (Oncrpc.Record.to_wire ~fragment_size:8192 payload)))
  in
  let test_framing_vectored =
    (* a sink transport that consumes slice descriptors without copying:
       what remains is exactly the framing work *)
    let sink =
      Oncrpc.Transport.make
        ~sendv:(fun iov ->
          Xdr.Iovec.iter
            (fun s -> ignore (Sys.opaque_identity s.Xdr.Iovec.len))
            iov)
        ~send:(fun _ _ _ -> ())
        ~recv:(fun _ _ _ -> 0)
        ~close:(fun () -> ())
        ()
    in
    let iov = Xdr.Iovec.of_string payload in
    Test.make ~name:"datapath/record-framing-64KiB-vectored"
      (Staged.stage (fun () ->
           Oncrpc.Record.writev ~fragment_size:8192 sink iov))
  in
  let test_upload =
    let upload_len = if quick then 8 lsl 20 else 64 lsl 20 in
    let engine = Simnet.Engine.create () in
    let server =
      Cricket.Server.create
        ~memory_capacity:(upload_len + (1 lsl 20))
        ~clock:(Cudasim.Context.engine_clock engine)
        ()
    in
    Cudasim.Context.set_functional (Cricket.Server.context server) false;
    let client = Cricket.Local.connect server in
    let d = Cricket.Client.malloc client upload_len in
    let buf = Bytes.create upload_len in
    Test.make
      ~name:(Printf.sprintf "datapath/upload-%dMiB-roundtrip" (upload_len lsr 20))
      (Staged.stage (fun () -> Cricket.Client.memcpy_h2d client ~dst:d buf))
  in
  [
    test_encode_sliced; test_decode_slice; test_framing_seed;
    test_framing_vectored; test_upload;
  ]

(* --- executable TCP stack group ---

   The checksum pair is the satellite acceptance comparison (folded 8-byte
   summation vs the byte-at-a-time reference, identical results by
   property test); the upload runs a full bulk transfer through
   Endpoint + Netdev on the all-offloads profile, which is the number the
   O(n) tx ring and TSO work moved by orders of magnitude vs the seed's
   Buffer.sub resend path. *)

let tcpstack_tests ~quick =
  let csum_len = 65536 in
  let buf = Bytes.init csum_len (fun i -> Char.chr (i land 0xff)) in
  let test_csum_bytewise =
    Test.make ~name:"tcpstack/checksum-64KiB-bytewise"
      (Staged.stage (fun () ->
           ignore
             (Tcpstack.Checksum.finish
                (Tcpstack.Checksum.sum_bytewise buf 0 csum_len))))
  in
  let test_csum_folded =
    Test.make ~name:"tcpstack/checksum-64KiB-folded"
      (Staged.stage (fun () ->
           ignore
             (Tcpstack.Checksum.finish (Tcpstack.Checksum.sum buf 0 csum_len))))
  in
  let upload_len = if quick then 8 lsl 20 else 64 lsl 20 in
  let profile =
    Simnet.Hostprofile.with_offloads Simnet.Hostprofile.bare_metal_linux
      Simnet.Offload.all
  in
  let test_upload =
    Test.make
      ~name:
        (Printf.sprintf "tcpstack/upload-%dMiB-simstack" (upload_len lsr 20))
      (Staged.stage (fun () ->
           ignore
             (Unikernel.Netbench.upload ~name:"bench" ~profile
                ~bytes:upload_len ())))
  in
  [ test_csum_bytewise; test_csum_folded; test_upload ]

(* --- RPC offload engine group ---

   The header-parse pair is the acceptance comparison for the in-device
   XDR parse: the device-model parser (fixed-offset reads, no decoder
   allocation) vs the software [Oncrpc.Message.decode] path it replaces
   on every small call. The doorbell test measures the host cost of
   staging + flushing a full 32-record batch, i.e. the per-batch
   overhead the syscall coalescing has to beat. *)

let rpcacc_tests ~quick:_ =
  let call_record =
    let enc = Xdr.Encode.create () in
    Oncrpc.Message.encode enc
      (Oncrpc.Message.call ~xid:7l ~prog:0x2f00_0e01 ~vers:1 ~proc:1 ());
    Xdr.Encode.opaque enc (Bytes.make 64 'x');
    Xdr.Encode.to_string enc
  in
  let test_parse_device =
    Test.make ~name:"rpcacc/parse-header-device"
      (Staged.stage (fun () ->
           ignore
             (Tcpstack.Rpcdev.parse_call_header call_record
               : (Tcpstack.Rpcdev.parsed, Tcpstack.Rpcdev.reject) result)))
  in
  let test_parse_software =
    Test.make ~name:"rpcacc/parse-header-software"
      (Staged.stage (fun () ->
           let dec = Xdr.Decode.of_string call_record in
           ignore (Oncrpc.Message.decode dec : Oncrpc.Message.t)))
  in
  let test_doorbell =
    let sink =
      Oncrpc.Transport.make
        ~sendv:(fun iov ->
          Xdr.Iovec.iter
            (fun s -> ignore (Sys.opaque_identity s.Xdr.Iovec.len))
            iov)
        ~send:(fun _ _ _ -> ())
        ~recv:(fun _ _ _ -> 0)
        ~close:(fun () -> ())
        ()
    in
    let bell =
      Oncrpc.Doorbell.wrap
        ~policy:
          { Oncrpc.Doorbell.max_records = 32; max_bytes = 1 lsl 20;
            deadline_ns = None }
        sink
    in
    let t = Oncrpc.Doorbell.transport bell in
    let iov = Xdr.Iovec.of_string call_record in
    Test.make ~name:"rpcacc/doorbell-batch-32"
      (Staged.stage (fun () ->
           for _ = 1 to 32 do
             Oncrpc.Record.writev t iov
           done;
           Oncrpc.Doorbell.flush bell))
  in
  [ test_parse_device; test_parse_software; test_doorbell ]

(* --- tenancy group ---

   Host-time cost of the serving core's hot path: the admission gate
   (two array ops per item) and a full DRR enqueue/next/charge cycle
   across 64 tenants with costs that force ring rotations. These bound
   the per-item scheduling overhead the 10k-client harness adds on top
   of the simulated GPU work. *)

let test_tenancy_admission =
  let adm = Tenancy.Admission.create ~n_tenants:64 () in
  let i = ref 0 in
  Test.make ~name:"tenancy/admission-offer-complete"
    (Staged.stage (fun () ->
         let tenant = !i land 63 in
         incr i;
         match Tenancy.Admission.offer adm ~tenant with
         | Ok () -> Tenancy.Admission.complete adm ~tenant
         | Error _ -> ()))

let test_tenancy_drr =
  let tenants = Array.init 64 (Printf.sprintf "t%02d") in
  let priorities = Array.make 64 0 in
  let d =
    Tenancy.Dispatch.create ~policy:Cricket.Sched.Round_robin
      ~quantum_ns:1_000 ~tenants ~priorities ()
  in
  let i = ref 0 in
  Test.make ~name:"tenancy/drr-enqueue-next-charge"
    (Staged.stage (fun () ->
         let tenant = !i land 63 in
         incr i;
         Tenancy.Dispatch.enqueue d ~tenant ();
         match Tenancy.Dispatch.next d with
         | Some (t, ()) -> Tenancy.Dispatch.charge d ~tenant:t ~cost_ns:700
         | None -> ()))

let test_par_chan =
  let q = Par.Chan.create () in
  Test.make ~name:"par/chan-push-pop"
    (Staged.stage (fun () ->
         Par.Chan.push q 1;
         ignore (Par.Chan.try_pop q : int option)))

let test_par_merge =
  (* 4 shards x 256 events, distinct interleaved timestamps: the k-way
     merge cost the sharded loadgen pays per run *)
  let streams =
    Array.init 4 (fun shard ->
        Array.init 256 (fun seq ->
            { Par.Merge.vtime = Int64.of_int ((seq * 7) + shard);
              shard; seq; payload = () }))
  in
  Test.make ~name:"par/merge-4x256"
    (Staged.stage (fun () -> ignore (Par.Merge.merge streams)))

let test_par_digest =
  let merged =
    Par.Merge.merge
      [| Array.init 1024 (fun seq ->
             { Par.Merge.vtime = Int64.of_int seq; shard = 0; seq;
               payload = () }) |]
  in
  Test.make ~name:"par/digest-1024"
    (Staged.stage (fun () -> ignore (Par.Merge.digest merged : int64)))

let test_par_pool =
  (* pool round-trip at domains:1 — the sequential-execution overhead the
     deterministic contract rides on (spawn cost excluded by design) *)
  Test.make ~name:"par/pool-32-jobs-1-domain"
    (Staged.stage (fun () ->
         ignore (Par.Pool.run ~domains:1 32 (fun i -> i * i) : int array)))

let all_tests =
  [
    test_table1; test_fig5a; test_fig5b; test_fig5c; test_fig6; test_fig7;
    test_xdr; test_record; test_lzss; test_netcost;
    test_tenancy_admission; test_tenancy_drr;
    test_par_chan; test_par_merge; test_par_digest; test_par_pool;
  ]

let run ?(quick = false) () =
  print_endline "\n== Bechamel microbenchmarks (host time of the simulation pipeline) ==";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if quick then
      (* CI smoke: enough runs per test for a stable ballpark, fast *)
      Benchmark.cfg ~limit:300 ~quota:(Time.second 0.05) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped =
    Test.make_grouped ~name:"repro" ~fmt:"%s %s"
      (all_tests @ datapath_tests ~quick @ tcpstack_tests ~quick
      @ rpcacc_tests ~quick)
  in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort compare
  in
  Printf.printf "%-40s %16s\n" "benchmark" "ns/run";
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some (est :: _) -> Printf.printf "%-40s %16.1f\n" name est
      | _ -> Printf.printf "%-40s %16s\n" name "n/a")
    rows
