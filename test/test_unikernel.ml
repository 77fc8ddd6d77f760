(* Tests for the host configurations, the virtual-time RPC channel and the
   application runner — including the calibration assertions that pin the
   paper's qualitative findings (orderings and approximate ratios). *)

module Time = Simnet.Time

let check = Alcotest.check

(* --- configurations (Table 1) --- *)

let test_table1 () =
  let names = List.map (fun c -> c.Unikernel.Config.name) Unikernel.Config.all in
  check (Alcotest.list Alcotest.string) "table 1 order"
    [ "C"; "Rust"; "Linux VM"; "Unikraft"; "Hermit" ] names;
  check Alcotest.int "rows" 5 (List.length (Unikernel.Config.table1_rows ()));
  check Alcotest.bool "hermit is unikernel" true
    (Unikernel.Config.is_unikernel Unikernel.Config.hermit);
  check Alcotest.bool "vm is not" false
    (Unikernel.Config.is_unikernel Unikernel.Config.linux_vm);
  check Alcotest.bool "find" true
    (Unikernel.Config.find "hermit" = Some Unikernel.Config.hermit);
  check Alcotest.bool "find miss" true (Unikernel.Config.find "beos" = None);
  (* only native configs run without a hypervisor *)
  List.iter
    (fun c ->
      check Alcotest.bool
        (c.Unikernel.Config.name ^ " hypervisor")
        (c.Unikernel.Config.os <> Unikernel.Config.Rocky_native)
        (c.Unikernel.Config.hypervisor <> None))
    Unikernel.Config.all

let test_unikernel_offload_gaps () =
  (* the feature gaps §4.2 blames: no TSO/GRO in either unikernel; no
     checksum offload in Unikraft; Hermit has the two features the paper's
     RustyHermit work added (csum offload, mergeable buffers) *)
  let off c = c.Unikernel.Config.profile.Simnet.Hostprofile.offloads in
  let hermit = off Unikernel.Config.hermit in
  let unikraft = off Unikernel.Config.unikraft in
  let vm = off Unikernel.Config.linux_vm in
  check Alcotest.bool "no TSO in unikernels" true
    ((not hermit.Simnet.Offload.tso) && not unikraft.Simnet.Offload.tso);
  check Alcotest.bool "no GRO in unikernels" true
    ((not hermit.Simnet.Offload.gro) && not unikraft.Simnet.Offload.gro);
  check Alcotest.bool "hermit csum offload" true hermit.Simnet.Offload.tx_checksum;
  check Alcotest.bool "hermit mrg_rxbuf" true hermit.Simnet.Offload.mrg_rxbuf;
  check Alcotest.bool "hermit's non-RPC offloads are checksum_only" true
    (Simnet.Offload.rpc_none hermit = Simnet.Offload.checksum_only);
  check Alcotest.bool "unikraft lacks csum offload" false
    unikraft.Simnet.Offload.tx_checksum;
  check Alcotest.bool "vm has every classic offload" true
    (Simnet.Offload.rpc_none vm = Simnet.Offload.all);
  check Alcotest.bool "vm acks rpc engine except steering" true
    (vm.Simnet.Offload.rpc_framing && vm.Simnet.Offload.rpc_parse
    && vm.Simnet.Offload.rpc_doorbell
    && not vm.Simnet.Offload.rpc_steer)

(* --- simchannel --- *)

let test_simchannel_charges_time () =
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~memory_capacity:(1 lsl 22)
      ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  let channel =
    Unikernel.Simchannel.create ~engine
      ~client:Unikernel.Config.hermit.Unikernel.Config.profile
      ~dispatch:(Cricket.Server.dispatch server) ()
  in
  let client =
    Cricket.Client.create ~transport:(Unikernel.Simchannel.transport channel) ()
  in
  let t0 = Simnet.Engine.now engine in
  ignore (Cricket.Client.get_device_count client);
  let t1 = Simnet.Engine.now engine in
  check Alcotest.bool "call advanced virtual time" true (Time.compare t1 t0 > 0);
  (* plausible RTT: tens of microseconds, not seconds *)
  let rtt_us = Time.to_float_us (Time.sub t1 t0) in
  check Alcotest.bool "plausible RTT" true (rtt_us > 10.0 && rtt_us < 1000.0);
  let stats = Unikernel.Simchannel.stats channel in
  check Alcotest.int "one exchange" 1 stats.Unikernel.Simchannel.messages;
  check Alcotest.bool "bytes counted" true
    (stats.Unikernel.Simchannel.bytes_to_server > 0
    && stats.Unikernel.Simchannel.bytes_from_server > 0)

(* A record the client has not finished writing is not dispatched: the
   channel waits for the rest, so the waiting client sees its
   retransmission timeout; the rest arriving completes the record. A
   header claiming more than a record may hold is refused, typed, before
   anything is allocated for it. *)
let test_simchannel_partial_records () =
  let engine = Simnet.Engine.create () in
  let dispatched = ref [] in
  let channel =
    Unikernel.Simchannel.create ~engine
      ~client:Unikernel.Config.hermit.Unikernel.Config.profile
      ~dispatch:(fun record ->
        dispatched := record :: !dispatched;
        "reply:" ^ record)
      ()
  in
  let tr = Unikernel.Simchannel.transport channel in
  let buf = Bytes.create 64 in
  let expect_timeout what =
    match tr.Oncrpc.Transport.recv buf 0 64 with
    | n -> Alcotest.failf "%s: read %d bytes, expected a timeout" what n
    | exception Oncrpc.Transport.Timeout -> ()
  in
  let wire = Oncrpc.Record.to_wire "0123456789" in
  (* a 2-byte tail: not even a whole header *)
  Oncrpc.Transport.send_string tr (String.sub wire 0 2);
  expect_timeout "2-byte tail";
  (* a header and a short body *)
  Oncrpc.Transport.send_string tr (String.sub wire 2 5);
  expect_timeout "short body";
  check Alcotest.int "nothing dispatched" 0 (List.length !dispatched);
  (* the rest of the record arrives: dispatched once, answered *)
  Oncrpc.Transport.send_string tr (String.sub wire 7 (String.length wire - 7));
  let reply = Oncrpc.Record.read tr in
  check (Alcotest.list Alcotest.string) "dispatched whole" [ "0123456789" ]
    !dispatched;
  check Alcotest.string "reply" "reply:0123456789" reply;
  let s = Unikernel.Simchannel.stats channel in
  check Alcotest.int "timeouts" 2 s.Unikernel.Simchannel.timeouts;
  check Alcotest.int "request bytes counted once" (String.length wire)
    s.Unikernel.Simchannel.bytes_to_server;
  (* an oversized claim *)
  dispatched := [];
  Oncrpc.Transport.send_string tr "\xff\xff\xff\xff";
  (match tr.Oncrpc.Transport.recv buf 0 64 with
  | _ -> Alcotest.fail "expected Oversized"
  | exception Oncrpc.Record.Oversized { claimed; _ } ->
      check Alcotest.int "claimed" 0x7fffffff claimed);
  check Alcotest.int "oversized not dispatched" 0 (List.length !dispatched);
  (* the broken stream was dropped; the next record goes through *)
  Oncrpc.Record.write tr "next";
  check Alcotest.string "after the refusal" "reply:next" (Oncrpc.Record.read tr)

(* --- the record-level channel against the byte-buffer one --- *)

type sim_call = {
  len : int;
  kind : [ `Reply | `Oneway | `Raise ];
  fragment_size : int option;
}

type sim_step = Write of { len : int; vectored : bool } | Read of int

(* A record's first byte says what the server does with it; the empty
   record is answered. *)
let sim_marker = function `Reply -> 'r' | `Oneway -> 'o' | `Raise -> '!'

let sim_dispatch log record =
  log := record :: !log;
  if record = "" then "empty"
  else
    match record.[0] with
    | 'o' -> ""
    | '!' -> failwith "dispatch refused"
    | _ -> "<" ^ record

let sim_wire i { len; kind; fragment_size } =
  Oncrpc.Record.to_wire ?fragment_size
    (String.init len (fun j ->
         if j = 0 then sim_marker kind else Char.chr ((j * 31 + i) land 0xff)))

let gen_sim_plan =
  let open QCheck.Gen in
  let rate = frequency [ (2, return 0.0); (1, float_range 0.0 0.3) ] in
  let* seed = int_bound 10_000 in
  let* drop_rate = rate in
  let* duplicate_rate = rate in
  let* corrupt_rate = rate in
  let* delay_rate = rate in
  let* delay = map Time.us (int_range 1 50) in
  let* crashes =
    frequency
      [ (3, return []);
        ( 1,
          map2
            (fun after_records down_for ->
              [ { Simnet.Fault.after_records; down_for = Time.us down_for } ])
            (int_range 1 12) (int_range 1 500) ) ]
  in
  frequency
    [ (1, return None);
      ( 3,
        return
          (Some
             { Simnet.Fault.none with seed; drop_rate; duplicate_rate;
               corrupt_rate; delay_rate; delay; crashes }) ) ]

(* Empty, one-way and raising records, multi-fragment ones at small
   fragment sizes, and now and then one past a default fragment, whose
   reply takes two; written in cuts anywhere and a few bytes after record
   starts (header tails), read in chunks of any size. *)
let gen_sim_scenario =
  let open QCheck.Gen in
  let call =
    let* len =
      frequency
        [ (2, return 0); (8, int_range 1 64); (4, int_range 0 3000);
          (1, int_range ((1 lsl 20) - 5) ((1 lsl 20) + 5)) ]
    in
    let* kind =
      frequency [ (6, return `Reply); (2, return `Oneway); (1, return `Raise) ]
    in
    let* fragment_size =
      if len > 1 lsl 19 then
        frequency [ (1, return None); (1, map Option.some (int_range 100_000 1_000_000)) ]
      else frequency [ (1, return None); (2, map Option.some (int_range 1 100)) ]
    in
    return { len; kind; fragment_size }
  in
  let* plan = gen_sim_plan in
  let* calls = list_size (int_range 1 8) call in
  let lens = List.mapi (fun i c -> String.length (sim_wire i c)) calls in
  let total = List.fold_left ( + ) 0 lens in
  let starts =
    List.rev (List.fold_left (fun acc l -> (List.hd acc + l) :: acc) [ 0 ] lens)
  in
  let* anywhere = list_size (int_range 0 12) (int_range 0 total) in
  let* near =
    flatten_l
      (List.map
         (fun s ->
           map2 (fun keep d -> if keep then [ min total (s + d) ] else [])
             bool (int_range 1 3))
         starts)
  in
  let cuts = List.sort_uniq compare ((total :: anywhere) @ List.concat near) in
  let read_len =
    frequency [ (3, int_range 1 3); (1, return 4); (3, int_range 1 100_000) ]
  in
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
                    (2, list_size (int_range 1 3) (map (fun n -> Read n) read_len)) ]
              in
              (cut, acc @ [ write; reads ]))
            (0, []) cuts))
  in
  return (plan, calls, List.concat steps)

let print_sim_scenario (plan, calls, steps) =
  let call { len; kind; fragment_size } =
    Printf.sprintf "%d%s%s" len
      (match kind with `Reply -> "" | `Oneway -> " one-way" | `Raise -> " raising")
      (match fragment_size with None -> "" | Some f -> Printf.sprintf " /%d" f)
  in
  let step = function
    | Write { len; vectored } -> Printf.sprintf "w%d%s" len (if vectored then "v" else "")
    | Read n -> Printf.sprintf "r%d" n
  in
  let plan =
    match plan with
    | None -> "no faults"
    | Some p ->
        Printf.sprintf "seed %d drop %.2f dup %.2f corrupt %.2f delay %.2f%s"
          p.Simnet.Fault.seed p.drop_rate p.duplicate_rate p.corrupt_rate
          p.delay_rate
          (match p.crashes with
          | [ c ] -> Printf.sprintf " crash after %d" c.Simnet.Fault.after_records
          | _ -> "")
  in
  plan ^ " | " ^ String.concat ", " (List.map call calls) ^ " | "
  ^ String.concat " " (List.map step steps)

type sim_channel = {
  transport : Oncrpc.Transport.t;
  reconnect : unit -> Oncrpc.Transport.t;
  sim_stats : unit -> Unikernel.Simchannel.stats * Simnet.Fault.stats option;
}

let record_level ~engine ~client ?fault ~dispatch () =
  let ch = Unikernel.Simchannel.create ~engine ~client ?fault ~dispatch () in
  { transport = Unikernel.Simchannel.transport ch;
    reconnect = (fun () -> Unikernel.Simchannel.reconnect ch);
    sim_stats =
      (fun () ->
        (Unikernel.Simchannel.stats ch, Unikernel.Simchannel.fault_stats ch)) }

let byte_buffer ~engine ~client ?fault ~dispatch () =
  let ch = Simchannel_ref.create ~engine ~client ?fault ~dispatch () in
  { transport = Simchannel_ref.transport ch;
    reconnect = (fun () -> Simchannel_ref.reconnect ch);
    sim_stats =
      (fun () -> (Simchannel_ref.stats ch, Simchannel_ref.fault_stats ch)) }

(* What one channel makes of a scenario: the records dispatched, in order;
   what every write and read came to, reads draining the channel at the
   end included; the stats; and the engine clock. A read that finds the
   connection closed by a crash reconnects, backing off 100 µs while the
   server restarts. *)
let run_sim make (plan, calls, steps) =
  let engine = Simnet.Engine.create () in
  let log = ref [] in
  let ch =
    make ~engine ~client:Unikernel.Config.hermit.Unikernel.Config.profile
      ?fault:(Option.map Simnet.Fault.make plan)
      ~dispatch:(sim_dispatch log) ()
  in
  let tr = ch.transport in
  let rec recover () =
    match ch.reconnect () with
    | _ -> ()
    | exception Oncrpc.Transport.Closed ->
        Simnet.Engine.advance engine (Time.us 100);
        recover ()
  in
  let outcome f =
    match f () with
    | v -> Ok v
    | exception Oncrpc.Transport.Closed ->
        recover ();
        Error "Closed"
    | exception e -> Error (Printexc.to_string e)
  in
  let read n =
    outcome (fun () ->
        let buf = Bytes.create n in
        let got = tr.Oncrpc.Transport.recv buf 0 n in
        Bytes.sub_string buf 0 got)
  in
  let stream = String.concat "" (List.mapi sim_wire calls) in
  let pos = ref 0 in
  let results =
    List.map
      (function
        | Write { len; vectored } ->
            let chunk = String.sub stream !pos len in
            pos := !pos + len;
            outcome (fun () ->
                if vectored && len > 1 then
                  Oncrpc.Transport.writev tr
                    [ Xdr.Iovec.slice ~off:0 ~len:(len / 2) chunk;
                      Xdr.Iovec.slice ~off:(len / 2) ~len:(len - (len / 2)) chunk ]
                else Oncrpc.Transport.send_string tr chunk;
                "")
        | Read n -> read n)
      steps
  in
  let rec drain acc =
    match read 65_536 with Error _ as r -> List.rev (r :: acc) | r -> drain (r :: acc)
  in
  (List.rev !log, results @ drain [], ch.sim_stats (), Simnet.Engine.now engine)

let prop_simchannel_matches_reference =
  QCheck.Test.make ~count:120
    ~name:"record-level simchannel == byte-buffer simchannel"
    (QCheck.make ~print:print_sim_scenario gen_sim_scenario)
    (fun scenario -> run_sim record_level scenario = run_sim byte_buffer scenario)

(* The one place the two part: a header claiming more than a record may
   hold, behind complete records written with it. The byte-buffer channel
   walked up to the header, so it served the records ahead of it and then
   dropped their replies; the record-level one refuses the exchange before
   it dispatches anything. Either way the client gets the same
   [Oversized], the same virtual time passes, no exchange is counted and
   the next record goes through. *)
let test_simchannel_oversized_exchange () =
  let run make =
    let engine = Simnet.Engine.create () in
    let log = ref [] in
    let ch =
      make ~engine ~client:Unikernel.Config.hermit.Unikernel.Config.profile
        ?fault:None ~dispatch:(sim_dispatch log) ()
    in
    let tr = ch.transport in
    Oncrpc.Transport.send_string tr
      (Oncrpc.Record.to_wire "r1" ^ Oncrpc.Record.to_wire "r2"
      ^ Oncrpc.Record.encode_header ~last:true
          (Oncrpc.Record.default_max_record_size + 1));
    let refused =
      match Oncrpc.Record.read tr with
      | _ -> "no exception"
      | exception e -> Printexc.to_string e
    in
    let served = List.rev !log in
    let stats, _ = ch.sim_stats () in
    let clock = Simnet.Engine.now engine in
    Oncrpc.Record.write tr "rnext";
    let next = Oncrpc.Record.read tr in
    (refused, served, stats, clock, next)
  in
  let refused, served, stats, clock, next = run record_level in
  let refused', served', stats', clock', next' = run byte_buffer in
  check Alcotest.string "same exception" refused' refused;
  check Alcotest.bool "Oversized" true
    (String.length refused > 24
    && String.sub refused 0 24 = "Oncrpc.Record.Oversized:");
  check (Alcotest.list Alcotest.string) "record-level: nothing served" [] served;
  check (Alcotest.list Alcotest.string) "byte-buffer: records ahead served"
    [ "r1"; "r2" ] served';
  check Alcotest.bool "same stats" true (stats = stats');
  check Alcotest.int "no exchange counted" 0 stats.Unikernel.Simchannel.messages;
  check Alcotest.int64 "same virtual time" clock' clock;
  check Alcotest.string "next record" "<rnext" next;
  check Alcotest.string "next record, byte-buffer" next' next

(* Figure 6 calls over the cost-model channel allocate a fixed number of
   words each, however many are made: the at-most-once cache, the reply
   encoder, the record walk and the stream queue all stay flat. The bounds
   leave room over today's figures (150 words for cudaGetDeviceCount, 383
   for a cudaMalloc + cudaFree pair, 343 for a launch) and sit well under
   what this path used to cost (770, 1634 and 1032). *)
let test_small_call_allocation () =
  let cfg = Unikernel.Config.hermit in
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  Cudasim.Context.set_functional (Cricket.Server.context server) false;
  let channel =
    Unikernel.Simchannel.create ~engine ~client:cfg.Unikernel.Config.profile
      ~dispatch:(Cricket.Server.dispatch server) ()
  in
  let client =
    Cricket.Client.create ~launch_extra_ns:cfg.Unikernel.Config.launch_extra_ns
      ~charge:(fun ns -> Simnet.Engine.advance engine (Time.ns ns))
      ~transport:(Unikernel.Simchannel.transport channel) ()
  in
  let kbuf = Cricket.Client.malloc client 4096 in
  let modul = Apps.Workload.load_standard_module client in
  let fill = Apps.Workload.get_kernel client ~modul Gpusim.Kernels.fill_name in
  let args =
    [| Gpusim.Kernels.Ptr (Int64.to_int kbuf); Gpusim.Kernels.F32 1.0;
       Gpusim.Kernels.I32 1024l |]
  in
  let dim = { Cricket.Client.x = 1; y = 1; z = 1 } in
  let block = { Cricket.Client.x = 256; y = 1; z = 1 } in
  let words_per_call n op =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      op ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  List.iter
    (fun (name, bound, op) ->
      (* past the dup cache's 4096 entries, so the ring has wrapped *)
      ignore (words_per_call 5_000 op);
      let small = words_per_call 1_000 op in
      let large = words_per_call 10_000 op in
      check (Alcotest.float 0.0) (name ^ ": same words per call") small large;
      if large > bound then
        Alcotest.failf "%s: %.2f words per call, bound %.0f" name large bound)
    [
      (* about 10 % over the measured 52, 177 and 173 words (OCaml 5.1),
         each under what the path took before its encoders were lent
         (150, 383 and 343) *)
      ( "cudaGetDeviceCount", 57.,
        fun () -> ignore (Cricket.Client.get_device_count client) );
      ( "cudaMalloc + cudaFree", 195.,
        fun () -> Cricket.Client.free client (Cricket.Client.malloc client 1_048_576) );
      ( "cuLaunchKernel", 190.,
        fun () -> Cricket.Client.launch client fill ~grid:dim ~block args );
    ]

let test_runner_measures () =
  let m =
    Unikernel.Runner.run Unikernel.Config.rust_native (fun env ->
        ignore (Cricket.Client.get_device_count env.Unikernel.Runner.client))
  in
  check Alcotest.int "api calls" 1 m.Unikernel.Runner.api_calls;
  check Alcotest.bool "elapsed > 0" true
    (Time.compare m.Unikernel.Runner.elapsed Time.zero > 0);
  check Alcotest.bool "network time <= elapsed" true
    (Time.compare m.Unikernel.Runner.network_time m.Unikernel.Runner.elapsed <= 0)

let test_runner_rng_cost_differs () =
  let elapsed cfg =
    (Unikernel.Runner.run cfg (fun env -> Unikernel.Runner.charge_rng env (1 lsl 20)))
      .Unikernel.Runner.elapsed
  in
  let c = elapsed Unikernel.Config.c_native in
  let rust = elapsed Unikernel.Config.rust_native in
  check Alcotest.bool "C rng slower" true (Time.compare c rust > 0)

(* --- calibration: the paper's qualitative findings --- *)

let per_call cfg =
  let result = ref Time.zero in
  let (_ : Unikernel.Runner.measurement) =
    Unikernel.Runner.run ~functional:false cfg (fun env ->
        let r = Apps.Micro.run ~calls:2_000 Apps.Micro.Get_device_count env in
        result := r.Apps.Micro.elapsed)
  in
  Time.to_float_us !result /. 2_000.0

let test_fig6_latency_ordering () =
  let native = per_call Unikernel.Config.rust_native in
  let hermit = per_call Unikernel.Config.hermit in
  let unikraft = per_call Unikernel.Config.unikraft in
  let vm = per_call Unikernel.Config.linux_vm in
  (* Fig. 6: native fastest; Hermit the best virtualized config; the Linux
     VM the worst; unikernels need more than double the native time. *)
  check Alcotest.bool "native < hermit" true (native < hermit);
  check Alcotest.bool "hermit < unikraft" true (hermit < unikraft);
  check Alcotest.bool "unikraft < vm" true (unikraft < vm);
  check Alcotest.bool "hermit > 2x native" true (hermit > 2.0 *. native);
  check Alcotest.bool "vm < 4x native" true (vm < 4.0 *. native)

let bandwidth cfg direction =
  let result = ref 0.0 in
  let (_ : Unikernel.Runner.measurement) =
    Unikernel.Runner.run ~functional:false cfg (fun env ->
        let r = Apps.Bandwidth.measure ~total_bytes:(64 lsl 20) direction env in
        result := r.Apps.Bandwidth.mib_per_s)
  in
  !result

let test_fig7_bandwidth_shape () =
  let native_h2d = bandwidth Unikernel.Config.rust_native Apps.Bandwidth.Host_to_device in
  let native_d2h = bandwidth Unikernel.Config.rust_native Apps.Bandwidth.Device_to_host in
  let vm_h2d = bandwidth Unikernel.Config.linux_vm Apps.Bandwidth.Host_to_device in
  let vm_d2h = bandwidth Unikernel.Config.linux_vm Apps.Bandwidth.Device_to_host in
  let hermit_h2d = bandwidth Unikernel.Config.hermit Apps.Bandwidth.Host_to_device in
  let hermit_d2h = bandwidth Unikernel.Config.hermit Apps.Bandwidth.Device_to_host in
  let unikraft_h2d = bandwidth Unikernel.Config.unikraft Apps.Bandwidth.Host_to_device in
  (* VM retains most of native bandwidth; unikernels collapse *)
  check Alcotest.bool "vm >= 65% native (h2d)" true
    (vm_h2d >= 0.65 *. native_h2d);
  check Alcotest.bool "vm >= 65% native (d2h)" true
    (vm_d2h >= 0.65 *. native_d2h);
  check Alcotest.bool "hermit < 20% native" true
    (hermit_h2d < 0.20 *. native_h2d);
  (* hermit's receive path is the bad direction (paper: ~9.8%) *)
  check Alcotest.bool "hermit d2h worse than h2d" true (hermit_d2h < hermit_h2d);
  check Alcotest.bool "hermit d2h ~ 6-13% native" true
    (hermit_d2h > 0.05 *. native_d2h && hermit_d2h < 0.14 *. native_d2h);
  check Alcotest.bool "unikraft collapses" true
    (unikraft_h2d < 0.15 *. native_h2d)

let test_offload_ablation_shape () =
  (* §4.2: disabling TSO/tx-csum/SG in the VM drops H2D to ~924 MiB/s *)
  let vm = Unikernel.Config.linux_vm in
  let crippled =
    { vm with
      Unikernel.Config.profile =
        Simnet.Hostprofile.with_offloads vm.Unikernel.Config.profile
          (Simnet.Offload.disable_bulk
             vm.Unikernel.Config.profile.Simnet.Hostprofile.offloads) }
  in
  let bw = bandwidth crippled Apps.Bandwidth.Host_to_device in
  check Alcotest.bool "ablated VM near 1 GiB/s" true (bw > 600.0 && bw < 1600.0)

let app_elapsed cfg run =
  (Unikernel.Runner.run ~functional:false cfg run).Unikernel.Runner.elapsed

let test_fig5_shapes () =
  (* scaled-down iteration counts keep the test fast; ratios are
     scale-free because per-iteration costs dominate *)
  let mm cfg =
    Time.to_float_s
      (app_elapsed cfg
         (Apps.Matrix_mul.run ~verify:false
            { Apps.Matrix_mul.default with Apps.Matrix_mul.iterations = 2_000 }))
  in
  let native = mm Unikernel.Config.rust_native in
  let hermit = mm Unikernel.Config.hermit in
  let vm = mm Unikernel.Config.linux_vm in
  let unikraft = mm Unikernel.Config.unikraft in
  check Alcotest.bool "matrixMul: hermit ~2x native" true
    (hermit > 1.8 *. native && hermit < 2.6 *. native);
  check Alcotest.bool "matrixMul: unikernels <= vm" true
    (hermit <= vm && unikraft <= vm);
  (* C ~ Rust for matrixMul (minor difference) *)
  let c = mm Unikernel.Config.c_native in
  check Alcotest.bool "matrixMul: C within 15% of Rust" true
    (c < 1.15 *. native);
  (* linear solver: transfer-heavy, hermit overhead much smaller *)
  let ls cfg =
    Time.to_float_s
      (app_elapsed cfg
         (Apps.Linear_solver.run ~verify:false
            { Apps.Linear_solver.default with Apps.Linear_solver.iterations = 30 }))
  in
  let ls_native = ls Unikernel.Config.rust_native in
  let ls_hermit = ls Unikernel.Config.hermit in
  let overhead = (ls_hermit -. ls_native) /. ls_native in
  check Alcotest.bool "solver: hermit overhead ~26.6%" true
    (overhead > 0.15 && overhead < 0.45);
  check Alcotest.bool "solver overhead < matrixMul overhead" true
    (overhead < (hermit -. native) /. native)

let test_fig5c_c_vs_rust () =
  let hist cfg =
    Time.to_float_s
      (app_elapsed cfg
         (Apps.Histogram.run ~verify:false
            { Apps.Histogram.default with Apps.Histogram.iterations = 2_000 }))
  in
  let c = hist Unikernel.Config.c_native in
  let rust = hist Unikernel.Config.rust_native in
  (* paper: Rust ≈37.6 % faster on histogram, driven by init RNG *)
  check Alcotest.bool "C slower on histogram" true (c > 1.2 *. rust);
  let hermit = hist Unikernel.Config.hermit in
  check Alcotest.bool "histogram: hermit ~2x rust" true
    (hermit > 1.7 *. rust && hermit < 2.8 *. rust)

(* --- future-work projections (§5) --- *)

let test_futures_improve_unikernels () =
  let rtt cfg = per_call cfg in
  let base = rtt Unikernel.Config.hermit in
  let vdpa = rtt (Unikernel.Futures.with_vdpa Unikernel.Config.hermit) in
  check Alcotest.bool "vdpa cuts latency" true (vdpa < 0.8 *. base);
  (* vDPA cannot beat native: the guest stack still runs *)
  check Alcotest.bool "vdpa >= native" true
    (vdpa >= per_call Unikernel.Config.rust_native);
  let bw cfg = bandwidth cfg Apps.Bandwidth.Host_to_device in
  let base_bw = bw Unikernel.Config.hermit in
  let tso_bw = bw (Unikernel.Futures.with_tso Unikernel.Config.hermit) in
  let both_bw = bw (Unikernel.Futures.with_tso_and_vdpa Unikernel.Config.hermit) in
  check Alcotest.bool "tso raises bandwidth significantly" true
    (tso_bw > 1.8 *. base_bw);
  check Alcotest.bool "tso+vdpa raises it further" true (both_bw > tso_bw);
  (* TSO must not change small-message latency *)
  let tso_rtt = rtt (Unikernel.Futures.with_tso Unikernel.Config.hermit) in
  check Alcotest.bool "tso latency-neutral" true
    (Float.abs (tso_rtt -. base) /. base < 0.05);
  check Alcotest.int "four variants" 4
    (List.length (Unikernel.Futures.variants Unikernel.Config.hermit))

(* --- multi-tenant sharing (§5) ---

   Tenants share one server and GPU through Tenancy.Core (1 ns quantum,
   unlimited admission), each with its own Hermit RPC channel dispatching
   under its tenant identity; every step is one core item arriving at 0.
   [share] returns the core's result and when each tenant's last step
   finished. *)

let share ~policy tenants =
  let engine = Simnet.Engine.create () in
  let server =
    Cricket.Server.create ~clock:(Cudasim.Context.engine_clock engine) ()
  in
  let spec (name, priority, _) = { Tenancy.Core.name; priority; caps = None } in
  let core =
    Tenancy.Core.create ~engine ~server ~policy ~quantum_ns:1
      ~admission:Tenancy.Admission.unlimited
      ~tenants:(Array.of_list (List.map spec tenants))
      ()
  in
  let cfg = Unikernel.Config.hermit in
  let finished_at = Array.make (List.length tenants) Time.zero in
  let items i (_, _, steps) =
    let channel =
      Unikernel.Simchannel.create ~engine ~client:cfg.Unikernel.Config.profile
        ~dispatch:(Tenancy.Core.dispatch_for core ~tenant:i) ()
    in
    let client =
      Cricket.Client.create ~launch_extra_ns:cfg.Unikernel.Config.launch_extra_ns
        ~charge:(Simnet.Engine.advance_ns engine)
        ~transport:(Unikernel.Simchannel.transport channel)
        ()
    in
    List.map
      (fun step ->
        let work () =
          step client;
          finished_at.(i) <- Simnet.Engine.now engine
        in
        { Tenancy.Core.tenant = i; arrival = Time.zero; work })
      steps
  in
  (Tenancy.Core.run core (List.concat (List.mapi items tenants)), finished_at)

let test_multitenant_policies () =
  let step client =
    Cricket.Client.free client (Cricket.Client.malloc client 4096)
  in
  let tenants =
    [ ("big", 5, List.init 30 (fun _ -> step));
      ("small", 1, List.init 5 (fun _ -> step)) ]
  in
  let fifo, fifo_at = share ~policy:Cricket.Sched.Fifo tenants in
  let rr, rr_at = share ~policy:Cricket.Sched.Round_robin tenants in
  let prio, prio_at = share ~policy:Cricket.Sched.Priority tenants in
  (* all work completes under every policy, same total *)
  List.iter
    (fun (r : Tenancy.Core.result) ->
      check Alcotest.int "tenants" 2 (Array.length r.tenants);
      Array.iter2
        (fun (t : Tenancy.Core.tenant_result) steps ->
          check Alcotest.int "all steps ran" steps t.completed;
          check Alcotest.int "no step failed" 0 t.errors)
        r.tenants [| 30; 5 |])
    [ fifo; rr; prio ];
  (* fifo makes "small" wait behind "big"; rr and priority do not *)
  check Alcotest.bool "rr helps small tenant" true
    (Time.compare rr_at.(1) fifo_at.(1) < 0);
  check Alcotest.bool "priority helps small most" true
    (Time.compare prio_at.(1) rr_at.(1) <= 0);
  (* makespan is policy-independent (work conserving) *)
  check Alcotest.int64 "same makespan" fifo.makespan rr.makespan

let test_multitenant_isolation () =
  (* tenants get distinct allocations on the shared GPU; interleaving must
     not corrupt them *)
  let pattern i = Bytes.make 512 (Char.chr (0x30 + i)) in
  let results = Array.make 3 false in
  let tenants =
    List.init 3 (fun i ->
        ( Printf.sprintf "t%d" i,
          1,
          [
            (fun client ->
              let d = Cricket.Client.malloc client 512 in
              Cricket.Client.memcpy_h2d client ~dst:d (pattern i);
              let back = Cricket.Client.memcpy_d2h client ~src:d ~len:512 in
              results.(i) <- Bytes.equal back (pattern i);
              Cricket.Client.free client d);
          ] ))
  in
  ignore (share ~policy:Cricket.Sched.Round_robin tenants);
  Array.iteri
    (fun i ok -> check Alcotest.bool (Printf.sprintf "tenant %d intact" i) true ok)
    results

(* --- numerics through every configuration --- *)

let test_apps_verify_everywhere () =
  (* a small functional run of each app must verify in every config *)
  List.iter
    (fun cfg ->
      ignore
        (Unikernel.Runner.run ~functional:true cfg
           (Apps.Matrix_mul.run ~verify:true
              { Apps.Matrix_mul.ha = 64; wa = 64; wb = 64; iterations = 2 }));
      ignore
        (Unikernel.Runner.run ~functional:true cfg
           (Apps.Histogram.run ~verify:true
              { Apps.Histogram.data_bytes = 1 lsl 16; iterations = 2 }));
      ignore
        (Unikernel.Runner.run ~functional:true cfg
           (Apps.Linear_solver.run ~verify:true
              { Apps.Linear_solver.n = 48; iterations = 1 }));
      ignore
        (Unikernel.Runner.run ~functional:true cfg (fun env ->
             ignore (Apps.Bandwidth.run env))))
    Unikernel.Config.all

let test_app_call_counts_match_paper () =
  (* §4.1 reports per-app API-call counts; ours must have the same shape:
     matrixMul ≈ iterations + small constant, histogram ≈ 2·iterations. *)
  let m =
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Matrix_mul.run ~verify:false
         { Apps.Matrix_mul.paper with Apps.Matrix_mul.iterations = 1_000 })
  in
  check Alcotest.bool "matrixMul calls ~ iterations + setup" true
    (m.Unikernel.Runner.api_calls >= 1_000
    && m.Unikernel.Runner.api_calls < 1_100);
  let h =
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Histogram.run ~verify:false
         { Apps.Histogram.paper with Apps.Histogram.iterations = 1_000 })
  in
  check Alcotest.bool "histogram calls ~ 2*iterations + setup" true
    (h.Unikernel.Runner.api_calls >= 2_000
    && h.Unikernel.Runner.api_calls < 2_100);
  let ls =
    Unikernel.Runner.run ~functional:false Unikernel.Config.rust_native
      (Apps.Linear_solver.run ~verify:false
         { Apps.Linear_solver.paper with Apps.Linear_solver.iterations = 100 })
  in
  (* ~13 calls/iteration (paper: ≈20) and ~6.5 MB/iteration transferred *)
  check Alcotest.bool "solver calls per iteration" true
    (ls.Unikernel.Runner.api_calls > 800 && ls.Unikernel.Runner.api_calls < 2_200);
  let mb_per_iter =
    Float.of_int ls.Unikernel.Runner.bytes_to_server /. 100.0 /. 1048576.0
  in
  check Alcotest.bool "solver ~6.2 MiB/iteration up" true
    (mb_per_iter > 5.5 && mb_per_iter < 7.0)

let suite =
  [
    Alcotest.test_case "table 1 configurations" `Quick test_table1;
    Alcotest.test_case "unikernel offload gaps" `Quick
      test_unikernel_offload_gaps;
    Alcotest.test_case "simchannel charges time" `Quick
      test_simchannel_charges_time;
    Alcotest.test_case "runner measurement" `Quick test_runner_measures;
    Alcotest.test_case "rng cost differs by language" `Quick
      test_runner_rng_cost_differs;
    Alcotest.test_case "fig6 latency ordering" `Slow test_fig6_latency_ordering;
    Alcotest.test_case "fig7 bandwidth shape" `Slow test_fig7_bandwidth_shape;
    Alcotest.test_case "offload ablation shape" `Slow
      test_offload_ablation_shape;
    Alcotest.test_case "fig5 application shapes" `Slow test_fig5_shapes;
    Alcotest.test_case "fig5c C vs Rust" `Slow test_fig5c_c_vs_rust;
    Alcotest.test_case "futures: tso/vdpa projections" `Slow
      test_futures_improve_unikernels;
    Alcotest.test_case "multi-tenant policies" `Quick test_multitenant_policies;
    Alcotest.test_case "multi-tenant isolation" `Quick
      test_multitenant_isolation;
    Alcotest.test_case "apps verify in every config" `Slow
      test_apps_verify_everywhere;
    Alcotest.test_case "call counts match paper profile" `Slow
      test_app_call_counts_match_paper;
    Alcotest.test_case "simchannel partial and oversized records" `Quick
      test_simchannel_partial_records;
    Alcotest.test_case "small-call allocation is per-call constant" `Quick
      test_small_call_allocation;
    QCheck_alcotest.to_alcotest prop_simchannel_matches_reference;
    Alcotest.test_case "simchannel oversized exchange" `Quick
      test_simchannel_oversized_exchange;
  ]
