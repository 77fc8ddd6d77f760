(** Byte-stream transports for ONC RPC.

    A transport is a reliable, ordered, bidirectional byte stream — the
    abstraction RFC 5531 record marking runs on top of. Four families are
    provided:

    - {!pipe}: an in-process duplex pair usable from two threads;
    - {!loopback}: a test fake — a synchronous in-process client endpoint
      whose peer is a callback answering the raw bytes written with raw
      wire bytes. No library code uses it. The in-process way to drive a
      server is the record-level loopback [Cricket.Local], which hands the
      server whole records and never holds a byte stream;
    - {!of_fd} / TCP helpers: real sockets via [Unix];
    - the tcp_sim family ({!Unikernel.Tcpchannel}): a transport whose byte
      stream runs through the executable TCP stack —
      {!Tcpstack.Endpoint} segments and retransmits, {!Tcpstack.Netdev}
      applies negotiated virtio-net offloads — so RPC traffic pays the
      modelled network costs segment by segment. It implements [sendv],
      making the zero-copy gather path end-to-end executable.

    Writes of [n] bytes either succeed completely or raise. Reads return at
    least 1 byte unless the peer closed, in which case they return 0. *)

type t = private {
  send : bytes -> int -> int -> unit;  (** [send buf off len] writes all. *)
  recv : bytes -> int -> int -> int;
      (** [recv buf off len] reads 1..len bytes; 0 means end of stream. *)
  close : unit -> unit;
  sendv : (Xdr.Iovec.t -> unit) option;
      (** Optional gather write: all slices, in order, atomically with
          respect to concurrent senders. Used by {!writev}. *)
  hdr_scratch : bytes;
      (** 4-byte staging buffer for record-marking headers, owned by the
          transport's (single) reader and reused across records so header
          parsing allocates nothing. *)
}

val make :
  ?sendv:(Xdr.Iovec.t -> unit) ->
  send:(bytes -> int -> int -> unit) ->
  recv:(bytes -> int -> int -> int) ->
  close:(unit -> unit) ->
  unit ->
  t
(** Construct a transport. Without [sendv], {!writev} falls back to a
    per-slice loop over [send] — still a single-copy path, just without
    gather batching. *)

val writev : t -> Xdr.Iovec.t -> unit
(** Vectored write of all slices in order. The transport's internal copy
    (socket write / queue append) is the only copy this performs. *)

exception Closed
(** Raised when sending on a transport whose peer is gone. *)

exception Timeout
(** Raised by fault-aware transports (e.g. {!Unikernel.Simchannel} under a
    fault plan) when an expected reply never arrives within the modelled
    retransmission timeout. The connection is still usable: the caller may
    retransmit — {!Client} does so automatically under a retry policy. *)

val send_string : t -> string -> unit
(** Write a whole string. *)

val recv_exact : t -> bytes -> int -> int -> unit
(** Read exactly [len] bytes or raise {!Closed} on premature end of
    stream. *)

val pipe : unit -> t * t
(** Thread-safe in-memory duplex pair: bytes sent on one endpoint become
    readable on the other. Closing either endpoint makes further reads on
    the peer return the buffered data then 0. *)

val loopback : peer:(string -> string) -> t
(** [loopback ~peer] is a client-side transport for strictly
    request/response protocols in a single thread, kept as a test fake for
    tests that inject raw wire bytes. Bytes written are buffered; the first
    [recv] after one or more sends passes the buffered request bytes to
    [peer] and serves its return value as the read data, from a cursor over
    the string: no read copies more than it returns. [peer] receives whole
    request records because the RPC client always writes a complete record
    before reading. *)

val of_fd : Unix.file_descr -> t
(** Transport over a connected socket or pipe fd. [close] closes the fd. *)

type connect_error = Resolution_failed of { host : string; port : int }
(** [Resolution_failed] — the host name did not resolve to any address of
    the requested socket type. *)

exception Connect_error of connect_error
(** Typed connection-establishment failure, so callers can match on the
    cause instead of parsing a [Failure] string. *)

val tcp_connect : host:string -> port:int -> t
(** Connect a TCP socket (with TCP_NODELAY) and wrap it. Raises
    {!Connect_error} when [host] cannot be resolved and [Unix.Unix_error]
    when the connection itself fails. *)
