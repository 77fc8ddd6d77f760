(** RPC-aware offload engine (the RPCAcc direction).

    A device block behind the netdev receive path that understands ONC RPC
    record marking. Per the negotiated {!Simnet.Offload.t} rpc feature
    bits it performs record-mark framing/reassembly ([rpc_framing]), the
    call-header parse ([rpc_parse]) and per-(proc, tenant) dispatch-queue
    steering ([rpc_steer]) in "hardware"; whatever is not negotiated is
    charged as host software work against the engine clock. The module has
    no dependency on [Oncrpc]: its parser is an independent implementation
    of RFC 5531 §8, checked against the software decoder by the test
    suite. *)

type parsed = {
  xid : int32;
  prog : int;
  vers : int;
  proc : int;
  body_off : int;  (** byte offset of the procedure arguments *)
}

type reject =
  | Truncated of int  (** record length at the point the header ran out *)
  | Not_a_call of int32  (** msg_type field was not CALL(0) *)
  | Bad_rpc_version of int  (** rpcvers field was not 2 *)
  | Bad_auth of string  (** credential/verifier violates RFC 5531 §8.2 *)

val reject_to_string : reject -> string

val parse_call_header : string -> (parsed, reject) result
(** The "hardware" header parse: total function, never raises. [Ok p]
    exactly when the software [Oncrpc.Message] decoder accepts the call
    header, with [p.body_off] the decoder position after the verifier. *)

type costs = {
  sw_frame_ns : int;  (** host software per-record framing/reassembly *)
  sw_parse_ns : int;  (** host software header decode per call *)
  sw_route_ns : int;  (** host software dispatch-table routing per call *)
  hw_frame_ns : int;  (** device record completion *)
  hw_parse_ns : int;  (** device header parse *)
  hw_steer_ns : int;  (** device queue steering *)
}

type entry = {
  record : string;
  ident : string;  (** tenant identity the call was steered under *)
  parse : (parsed, reject) result option;
      (** [None] when [rpc_parse] was not negotiated (the host parses);
          [Some (Error _)] when the device punted a malformed header. *)
}

type stats = {
  records : int;
  hw_records : int;
  sw_records : int;
  parse_hits : int;
  parse_rejects : int;
  steered : int;
  queues : int;
  max_queue_depth : int;
  pool_acquires : int;
}

type t

val effective : Simnet.Offload.t -> Simnet.Offload.t
(** Dependency clamps: [rpc_parse] requires [rpc_framing]; [rpc_steer]
    requires [rpc_parse]. *)

val create :
  engine:Simnet.Engine.t ->
  profile:Simnet.Hostprofile.t ->
  features:Simnet.Offload.t ->
  ?costs:costs ->
  ?alloc:(int -> bytes) ->
  ?free:(bytes -> unit) ->
  ?ident:string ->
  unit ->
  t
(** [features] is the negotiated set (clamped via {!effective}).
    [alloc]/[free] supply fragment staging buffers — wire them to an
    [Oncrpc.Pool] so reassembly recycles instead of allocating; [ident]
    is the tenant identity stamped on steered entries
    (see {!set_ident}). *)

val feed : t -> bytes -> unit
(** Push freshly delivered rx bytes through framing; completed records are
    parsed/steered per the negotiated features and queued. Charges device
    or host-software costs on the engine as a side effect. *)

val feed_sub : t -> bytes -> int -> int -> unit
(** [feed_sub t buf off len] is {!feed} over [len] bytes of [buf] from
    [off], so a reader can hand over a reused buffer. Raises
    [Invalid_argument] if [off]/[len] do not fit [buf]. *)

val drain : t -> entry list
(** Dequeue all pending entries, round-robin across steering queues in
    creation order (deterministic). *)

val drain_iter : t -> (entry -> unit) -> unit
(** [drain_iter t f] dequeues the entries in {!drain}'s order and hands
    each to [f] as it is dequeued, building no list. If [f] raises, the
    entries not yet handed over stay queued. *)

val pending : t -> int
val set_ident : t -> string -> unit
val set_obs : t -> Obs.Recorder.t -> unit
val stats : t -> stats
