module Time = Simnet.Time
module Engine = Simnet.Engine
module O = Simnet.Offload

(* Small-call throughput harness for the RPC engine (the RPCAcc
   experiment): an echo program served over the executable TCP stack,
   driven with a pipelined window of small calls (64-byte opaque args by
   default), under three rx-path modes:

   - [Software]: the engine is present but offers no rpc feature bits, so
     framing, header parse and dispatch routing are all charged as host
     software work per call — the baseline the paper's API-forwarding
     latency figure suffers from;
   - [Device_parse]: the device offers framing + parse + steer; what
     lands depends on what the client profile's driver shim acknowledges;
   - [Device_full]: framing + parse + steer + doorbell batching of both
     calls and replies.

   Every call flows through a {!Tenancy.Admission} gate keyed by the
   steered tenant ident before dispatch, and replies are digested
   (FNV-1a) so the test suite can pin that all three modes produce
   byte-identical reply streams. All numbers are virtual-time, hence
   byte-deterministic. *)

type mode = Software | Device_parse | Device_full

let mode_name = function
  | Software -> "software"
  | Device_parse -> "device-parse"
  | Device_full -> "device-parse+doorbell"

let device_of_mode = function
  | Software -> O.none
  | Device_parse ->
      { O.none with O.rpc_framing = true; rpc_parse = true; rpc_steer = true }
  | Device_full -> O.rpc_all O.none

(* the echo program: proc 1 echoes its opaque argument *)
let echo_prog = 0x2f00_0e01
let echo_vers = 1
let echo_proc = 1

type result = {
  profile : string;
  mode : mode;
  calls : int;
  arg_bytes : int;
  window : int;
  calls_per_sec : float;
  negotiated : O.t;
  rpcdev : Tcpstack.Rpcdev.stats option;
  doorbell : Oncrpc.Doorbell.stats option;
  channel : Tcpchannel.stats;
  reply_digest : int64;
}

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let fnv64 h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let make_server () =
  let srv = Oncrpc.Server.create ~name:"rpcacc-echo" () in
  Oncrpc.Server.set_dup_cache srv;
  Oncrpc.Server.register srv ~prog:echo_prog ~vers:echo_vers
    [
      ( echo_proc,
        fun dec enc ->
          let payload = Xdr.Decode.opaque dec in
          Xdr.Encode.opaque enc payload );
    ];
  srv

let encode_call ~xid payload =
  let enc = Xdr.Encode.create () in
  Oncrpc.Message.encode enc
    (Oncrpc.Message.call ~xid ~prog:echo_prog ~vers:echo_vers ~proc:echo_proc
       ());
  Xdr.Encode.opaque enc (Bytes.unsafe_of_string payload);
  Xdr.Encode.to_string enc

let run ?(calls = 2048) ?(arg_bytes = 64) ?(window = 32) ?obs
    ~profile:(name, (profile : Simnet.Hostprofile.t)) ~mode () =
  let engine = Engine.create () in
  let srv = make_server () in
  let tenant_ident = "tenant-0" in
  let admission =
    Tenancy.Admission.create ~config:Tenancy.Admission.unlimited ~n_tenants:1
      ()
  in
  (* the host dispatch path for device-parsed entries: admission gate on
     the steered tenant ident, then the header-skip fast path; rejections
     answer straight from the device-parsed xid *)
  let dispatch_parsed ~ident:_ (p : Tcpstack.Rpcdev.parsed) record =
    match Tenancy.Admission.offer admission ~tenant:0 with
    | Error reason ->
        let reject =
          match reason with
          | Tenancy.Admission.Over_quota -> `Over_quota
          | Tenancy.Admission.Overloaded -> `Overloaded
          | Tenancy.Admission.Lease_expired -> `Lease_expired
        in
        let enc = Xdr.Encode.create () in
        Oncrpc.Message.encode enc
          (Oncrpc.Message.reply_denied ~xid:p.Tcpstack.Rpcdev.xid
             (Oncrpc.Message.Auth_error
                (Cricket.Server.reject_to_auth_stat reject)));
        Xdr.Encode.to_string enc
    | Ok () ->
        Fun.protect
          ~finally:(fun () -> Tenancy.Admission.complete admission ~tenant:0)
          (fun () ->
            Option.value ~default:""
              (Oncrpc.Server.dispatch_preparsed ~ident:tenant_ident srv
                 ~xid:p.Tcpstack.Rpcdev.xid ~prog:p.Tcpstack.Rpcdev.prog
                 ~vers:p.Tcpstack.Rpcdev.vers ~proc:p.Tcpstack.Rpcdev.proc
                 ~body_off:p.Tcpstack.Rpcdev.body_off record))
  in
  let dispatch request = Oncrpc.Server.dispatch ~ident:tenant_ident srv request in
  let ch =
    Tcpchannel.create ~engine ~client:profile ~rpc:(device_of_mode mode)
      ~ident:tenant_ident ~dispatch_parsed
      ~doorbell_policy:
        { Oncrpc.Doorbell.max_records = window; max_bytes = 256 * 1024;
          deadline_ns = Some (Time.us 100) }
      ~dispatch ()
  in
  Option.iter (Tcpchannel.set_obs ch) obs;
  let transport = Tcpchannel.transport ch in
  let payload = String.make arg_bytes 'x' in
  let digest = ref fnv_offset in
  let sent = ref 0 and received = ref 0 in
  let t0 = Engine.now engine in
  (* windowed bursts: submit [window] calls, then collect their replies —
     the client-side pipelining pattern doorbell batching is built for *)
  while !received < calls do
    let burst = min window (calls - !sent) in
    for _ = 1 to burst do
      incr sent;
      let record = encode_call ~xid:(Int32.of_int !sent) payload in
      Oncrpc.Record.writev transport (Xdr.Iovec.of_string record)
    done;
    for _ = 1 to burst do
      let reply = Oncrpc.Record.read transport in
      digest := fnv64 !digest reply;
      incr received
    done
  done;
  let secs = Time.to_float_s (Time.sub (Engine.now engine) t0) in
  {
    profile = name;
    mode;
    calls;
    arg_bytes;
    window;
    calls_per_sec = (if secs > 0. then float_of_int calls /. secs else 0.);
    negotiated = Tcpchannel.negotiated_rpc ch;
    rpcdev = Tcpchannel.rpcdev_stats ch;
    doorbell = Tcpchannel.doorbell_stats ch;
    channel = Tcpchannel.stats ch;
    reply_digest = !digest;
  }

let modes = [ Software; Device_parse; Device_full ]

(* the four distinct client stacks (C and Rust native share a profile) *)
let profiles () =
  [
    ("native", Config.rust_native.Config.profile);
    ("linux-vm", Config.linux_vm.Config.profile);
    ("rustyhermit", Config.hermit.Config.profile);
    ("unikraft", Config.unikraft.Config.profile);
  ]
