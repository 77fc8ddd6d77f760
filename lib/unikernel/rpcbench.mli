(** Small-call throughput harness for the RPC engine (RPCAcc experiment).

    An echo program served over the executable TCP stack, driven with a
    pipelined window of small calls under three rx-path modes — all-host
    software, device framing/parse/steer, and the full engine with
    doorbell batching. What actually lands per profile depends on the
    client stack's acknowledged {!Simnet.Offload.t} rpc bits, so the sweep
    doubles as the per-configuration ablation. Every call passes a
    {!Tenancy.Admission} gate under its steered tenant ident; replies are
    FNV-1a digested so tests can pin byte-parity across modes. All numbers
    are virtual-time and deterministic. *)

type mode = Software | Device_parse | Device_full

val mode_name : mode -> string
val device_of_mode : mode -> Simnet.Offload.t

val echo_prog : int
val echo_vers : int
val echo_proc : int

type result = {
  profile : string;
  mode : mode;
  calls : int;
  arg_bytes : int;
  window : int;
  calls_per_sec : float;  (** virtual-time throughput *)
  negotiated : Simnet.Offload.t;
  rpcdev : Tcpstack.Rpcdev.stats option;
  doorbell : Oncrpc.Doorbell.stats option;
  channel : Tcpchannel.stats;
  reply_digest : int64;  (** FNV-1a over the reply byte stream *)
}

val run :
  ?calls:int ->
  ?arg_bytes:int ->
  ?window:int ->
  ?obs:Obs.Recorder.t ->
  profile:string * Simnet.Hostprofile.t ->
  mode:mode ->
  unit ->
  result
(** One (profile, mode) cell: defaults 2048 calls, 64-byte args,
    window 32. *)

val modes : mode list

val profiles : unit -> (string * Simnet.Hostprofile.t) list
(** The four distinct client stacks (C/Rust native share a profile). *)
