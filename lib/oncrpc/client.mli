(** Synchronous ONC RPC client.

    One client instance is bound to a transport and a (program, version)
    pair — the shape of Cricket's RPC-Lib client. Calls serialize arguments
    with a user-supplied encoder, send the record (fragmenting as needed),
    block for the matching reply and decode results. Transaction ids are
    sequential; replies with a stale xid (e.g. from an abandoned earlier
    call) are skipped.

    {b Reliability.} With a {!retry_policy} installed, a call that fails
    with {!Transport.Timeout} or {!Transport.Closed} is retransmitted after
    an exponential backoff with deterministic jitter. Backoffs sleep
    through the [sleep] hook ({!set_clock}), so under the simulated network
    they advance virtual time and runs stay bit-reproducible.
    Retransmissions reuse the original xid: paired with
    {!Server.set_dup_cache} this yields {e at-most-once} execution for
    every procedure not registered idempotent, the property that makes
    retrying non-idempotent calls such as [cudaMalloc] safe. A lost connection is re-established through the {!set_reconnect}
    hook; {!set_on_reconnect} lets a session layer (e.g.
    [Cricket.Client]'s recovery protocol) restore server state before the
    failed call is retransmitted.

    Per-client counters record the number of calls and the exact argument /
    result payload bytes — these are the statistics the paper reports per
    application (e.g. matrixMul ≈ 100 041 calls, 1.95 MiB transferred).

    {b Buffers.} A call allocates its request, its reply and its decoded
    results, and nothing per call besides. The request is encoded in an
    encoder lent by a spare that every client shares
    ({!Xdr.Encode.take}); the encoder goes back before the first send, so
    what is sent — and resent on a retry — never aliases it. A request
    without bulk views that fits one fragment leaves as one fresh string,
    record mark included, through the transport's [send]; any other
    request keeps the vectored {!Record.writev} path, its views aliasing
    the caller's buffers until the call returns. Because the spare is
    taken with one atomic exchange, clients on other systhreads or
    domains, and the calls a {!set_on_reconnect} hook issues between two
    attempts of a failing call, each encode in an encoder of their own,
    and a retransmission is byte-identical to its first send. *)

type error =
  | Call_rejected of Message.rejected
  | Call_failed of Message.accept_stat  (** accepted, but not [Success] *)
  | Bad_reply of string  (** reply header or results failed to decode *)
  | Deadline_exceeded of { elapsed_ns : int64 }
      (** the call's virtual-time budget ran out before a reply arrived *)

exception Rpc_error of error

val error_to_string : error -> string

type retry_policy = {
  max_attempts : int;  (** total attempts, including the first *)
  base_backoff_ns : int;  (** backoff before the first retry *)
  max_backoff_ns : int;  (** exponential growth is clamped here *)
  jitter : float;  (** backoff scaled by [1 ± jitter], seeded PRNG *)
  deadline_ns : int option;  (** default per-call budget in virtual time *)
}

val default_retry : retry_policy
(** 8 attempts, 100 µs base, 50 ms cap, 10 % jitter, no deadline. *)

type stats = {
  calls : int;
  bytes_sent : int;  (** argument payload bytes (excl. RPC/record headers) *)
  bytes_received : int;  (** result payload bytes *)
  wire_bytes_received : int;  (** full records incl. headers and fragmentation *)
  retries : int;  (** retransmissions (not counted in [calls]) *)
  timeouts : int;  (** attempts that ended in {!Transport.Timeout} *)
  reconnects : int;  (** successful reconnections after a lost connection *)
}

type t

val create :
  ?cred:Auth.t ->
  ?fragment_size:int ->
  ?first_xid:int32 ->
  ?retry:retry_policy ->
  ?seed:int ->
  transport:Transport.t ->
  prog:int ->
  vers:int ->
  unit ->
  t
(** [retry] defaults to none (failures propagate immediately); [seed]
    drives the jitter PRNG. *)

(** {1 Reliability hooks} *)

val set_retry : t -> retry_policy option -> unit

val set_xid_origin : t -> int32 -> unit
(** Reposition the xid counter. Concurrent clients sharing one server must
    use disjoint xid spaces (real clients randomize their origin): the
    server's at-most-once duplicate-request cache is keyed by xid, so two
    clients counting from the same origin would alias each other's calls. *)

val alloc_xid : t -> int32
(** Reserve the next xid (atomic fetch-and-add): callers on any domain
    get distinct values. Every call allocates through this. *)

val set_clock : t -> now:(unit -> int64) -> sleep:(int64 -> unit) -> unit
(** Install the virtual clock used for deadlines and backoff sleeps. The
    defaults ([now] constant [0], [sleep] a no-op) keep retries functional
    but timeless. *)

val set_obs : ?proc_name:(int -> string) -> t -> Obs.Recorder.t -> unit
(** Attach an observability recorder. Every call opens a ["shim"]-layer
    span named by [proc_name] (default ["proc-<n>"]; Cricket installs its
    RPCL procedure table) covering encode, all transmission attempts,
    backoff and decode; each transmission attempt nests an ["rpc"]-layer
    span named ["call xid=<xid>"], xid-correlated with the server's
    dispatch span. Retry-path counters: ["rpc.timeout"], ["rpc.retry"],
    ["rpc.reconnect"]. Costs one branch per call while the recorder is
    disabled. *)

val set_reconnect : t -> (unit -> Transport.t) -> unit
(** [f ()] must return a fresh transport to the same server or raise
    {!Transport.Closed} if the server is still unreachable (the retry loop
    backs off and tries again). *)

val set_on_reconnect : t -> (unit -> unit) -> unit
(** Runs after every successful reconnection, before the failed call is
    retransmitted. May itself issue RPCs on this client — this is where
    [Cricket]'s checkpoint-restore + replay recovery runs. *)

val set_give_up : t -> (exn -> exn) -> unit
(** Maps the final exception once a retry policy is exhausted (attempts or
    deadline spent, or connection lost with no reconnect hook). Lets a
    session layer substitute its own sticky error. Default: identity. *)

val set_transport : t -> Transport.t -> unit

(** {1 Calls} *)

val call :
  ?deadline_ns:int ->
  t -> proc:int -> (Xdr.Encode.t -> unit) -> (Xdr.Decode.t -> 'a) -> 'a
(** [call t ~proc encode_args decode_results] performs one RPC. Raises
    {!Rpc_error} on protocol-level failure and {!Transport.Closed} /
    {!Transport.Timeout} if the connection fails and no retry policy (or
    an exhausted one) is in place. [deadline_ns] overrides the policy's
    per-call budget. *)

val call_opaque :
  ?deadline_ns:int ->
  t -> proc:int -> (Xdr.Encode.t -> unit) -> len:int ->
  (Xdr.Decode.t -> bytes) -> bytes
(** [call_opaque t ~proc encode_args ~len decode_results] is
    [call t ~proc encode_args decode_results] for a procedure whose results
    are an [int] status and a variable-length opaque, read through. When
    the reply is a success with status 0 and an opaque of [len] bytes, the
    opaque goes from the transport straight into the fresh buffer that is
    returned, crossing fragment headers: no record buffer, no second copy.
    Any other reply is read whole and decoded by [decode_results] exactly
    as {!call} would, stale xids skipped and failures typed. Statistics
    count the same bytes either way. *)

val call_void : ?deadline_ns:int -> t -> proc:int -> (Xdr.Encode.t -> unit) -> unit
(** A call whose result type is [void]. *)

val call_oneway : t -> proc:int -> (Xdr.Encode.t -> unit) -> unit
(** A batched call per RFC 5531 §8: the request record is written but no
    reply is awaited (the server must not send one — see
    {!Server.set_oneway}). One-way calls accumulate in the transport until
    the next synchronous {!call} flushes them, so a pipeline of N one-way
    calls plus one blocking call costs a single round trip. Counted in
    {!stats} like any other call. Under a retry policy, a send that fails
    with {!Transport.Closed} is resent after reconnection. *)

val stats : t -> stats
val close : t -> unit
