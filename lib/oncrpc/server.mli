(** ONC RPC server: program registry and dispatch.

    A server hosts any number of (program, version) services; each service
    maps procedure numbers to handlers. Dispatch is a pure
    request-record → reply-record function, so the same server instance can
    be driven by a real TCP accept loop, the in-process record-level
    loopback of [Cricket.Local], or the simulated-network channels used by
    the benchmarks.

    Error mapping follows RFC 5531: unknown program → [PROG_UNAVAIL],
    version out of range → [PROG_MISMATCH], unknown procedure →
    [PROC_UNAVAIL], argument decode failure → [GARBAGE_ARGS], handler
    exception → [SYSTEM_ERR]. Procedure 0 of every service defaults to the
    conventional NULL procedure when not registered explicitly.

    {b Buffers.} A call header is read field by field, with no message
    value built; credentials are materialised only for an auth hook.
    Handlers write their results into an encoder lent by a spare that all
    servers share ({!Xdr.Encode.take}); the reply is copied out into a
    fresh string before the encoder goes back, so a reply never aliases
    it. The spare is taken with one atomic exchange: the connection
    threads of {!serve_tcp}, servers dispatching on other domains and a
    handler that itself dispatches each get an encoder of their own. A
    handler must not keep its encoder (or its decoder) past its return. *)

type handler = Xdr.Decode.t -> Xdr.Encode.t -> unit
(** [handler args results] decodes arguments and encodes results. *)

type t

val create : ?name:string -> unit -> t

val register :
  ?idempotent:bool -> t -> prog:int -> vers:int -> (int * handler) list ->
  unit
(** Register (or extend) a service. Later registrations of the same
    procedure replace earlier ones. [idempotent] (default [false]) marks
    the procedures of this call as safe to run again on a retransmission:
    their calls bypass the duplicate-request cache (see {!set_dup_cache}).
    The NULL procedure a first registration adds is never idempotent. *)

val set_oneway : t -> prog:int -> vers:int -> int list -> unit
(** Mark procedures of a service as one-way ("batched", RFC 5531 §8):
    their calls never produce a reply record, not even on handler failure
    (failures are logged and dropped). Protocol-level errors that resolve
    before the procedure — unknown program/version/procedure, denied
    credentials — still reply, because the server cannot know the caller
    meant a one-way procedure. *)

val set_auth_check : t -> (Auth.t -> Message.auth_stat option) -> unit
(** Install a credential check; returning [Some stat] denies the call. *)

val set_dup_cache : t -> unit
(** Enable the at-most-once duplicate-request cache for every procedure
    not registered idempotent (see {!register}). Each such call records
    its reply under [(ident, xid, prog, vers, proc)] — the caller's
    connection/tenant identity (see {!dispatch_opt}) plus the RFC 1831
    duplicate key; a retransmission of the same call — the client reuses
    the xid, see {!Client.call} — gets the recorded reply back without
    re-executing the handler. This is what makes retrying non-idempotent
    procedures (allocation, launch, free) safe when a reply record is
    lost, and keying by identity means two tenants reusing the same xid
    space can never collide into each other's cached replies. For cached
    one-way calls the duplicate is swallowed entirely. Calls to an
    idempotent procedure are neither looked up nor stored: a
    retransmission runs the handler again, as Linux nfsd serves READ
    without its reply cache, and the reply is garbage once sent.

    The cache is a {!Dup_cache}: a ring of 4096 slots over int and string
    arrays, found through a chained hash whose links are slot numbers. A
    lookup hashes the ident and walks a chain of at most about one slot; a
    store fills a slot in place. Neither allocates, so a call pays no
    per-entry boxes and nothing of the cache is promoted to the major heap
    but the reply strings themselves. Those are bounded too: replies of
    1 KiB and up hold at most {!Dup_cache.default_max_bytes} (128 MiB)
    between them, or the newest alone when it is larger. Both bounds evict
    in the order calls were first stored: a live retransmission always
    targets a recent xid, so evicting old entries is safe. Smaller replies
    are bounded by the 4096 slots alone, so a large reply never costs
    another ident's cudaMalloc or cudaFree its cached reply before 4096
    later calls. *)

val dup_hits : t -> int
(** Number of calls answered from the duplicate-request cache. *)

val set_observer :
  t -> (prog:int -> vers:int -> proc:int -> arg_bytes:int -> unit) -> unit
(** Called once per successfully-parsed call before the handler runs. The
    Cricket benchmarks use this to charge simulated server CPU time. *)

val set_obs :
  ?proc_name:(prog:int -> vers:int -> proc:int -> string) -> t ->
  Obs.Recorder.t -> unit
(** Attach an observability recorder: each dispatched call gets a
    ["dispatch"]-layer span named ["<proc> xid=<xid>"] (the xid correlates
    it with the client's per-attempt span), and duplicate-cache replays
    bump the ["rpc.dup_hit"] counter. [proc_name] renders procedure
    numbers (default ["proc-<n>"]); Cricket installs its RPCL procedure
    table here. Costs one branch per dispatch while the recorder is
    disabled. *)

type protocol_error =
  | Unparseable_request of string
      (** the request record has no parseable RPC message (detail is the
          decoder error) *)
  | Unexpected_reply of { xid : int32 }
      (** the record parsed as a REPLY, but a server only accepts CALLs *)

exception Protocol_error of protocol_error
(** Raised by {!dispatch_opt} for requests too broken to produce an error
    reply, so callers can match on the cause instead of parsing a
    [Failure] string. *)

val dispatch_opt : ?ident:string -> t -> string -> string option
(** Map one request record to at most one reply record. [ident] (default
    [""]) is the caller's connection/tenant identity, used to scope the
    duplicate-request cache: calls from different identities never share
    cache entries even when their xid spaces overlap. [None] means the
    call resolved to a one-way procedure (see {!set_oneway}) and must not
    be answered. Never raises for malformed or unauthorized calls — those
    become protocol error replies. Raises {!Protocol_error} only if the
    request is too broken to produce a reply (no parseable xid, or a REPLY
    where a CALL belongs). *)

val dispatch : ?ident:string -> t -> string -> string
(** [dispatch t r] is [dispatch_opt t r] with [None] flattened to [""].
    The empty string is unambiguous — a real reply record is ≥ 12 bytes —
    and every transport adapter skips it rather than framing it. *)

val dispatch_preparsed :
  ?ident:string ->
  t ->
  xid:int32 ->
  prog:int ->
  vers:int ->
  proc:int ->
  body_off:int ->
  string ->
  string option
(** Fast path for device-parsed calls (see [Tcpstack.Rpcdev]): the caller
    supplies the already-parsed header fields and the byte offset of the
    procedure arguments within [request], and the server skips the
    software header decode entirely. Semantics — duplicate-request cache,
    one-way suppression, observer, obs span, error replies — and reply
    bytes are identical to {!dispatch_opt} on the same record. When an
    auth hook is installed ({!set_auth_check}) this falls back to the full
    software path, because the device does not parse credentials. *)

val serve_transport : ?ident:string -> t -> Transport.t -> unit
(** Read records and reply until the peer closes. Exceptions other than a
    clean close are logged and terminate the loop. [ident] defaults to a
    fresh per-connection identity ([conn-<n>]), so concurrent connections
    keep separate at-most-once cache entries. *)

(** {1 TCP serving (real sockets)} *)

type tcp_server

val serve_tcp : t -> ?backlog:int -> port:int -> unit -> tcp_server
(** Bind [127.0.0.1:port] (port 0 picks a free port), start an accept loop
    in a background thread, and serve each connection in its own thread. *)

val tcp_port : tcp_server -> int
val shutdown_tcp : tcp_server -> unit
