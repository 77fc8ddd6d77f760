(** RFC 5531 §11 record marking.

    On stream transports every RPC message is sent as a {e record} composed
    of one or more {e fragments}. Each fragment is preceded by a 4-byte
    big-endian header whose most significant bit marks the last fragment of
    the record and whose remaining 31 bits give the fragment length.

    Multi-fragment support is load-bearing here: Cricket transfers GPU
    memory inside RPC arguments, so records routinely exceed any reasonable
    single-fragment limit. (The pre-existing Rust [onc_rpc] crate lacked
    exactly this, which is why the paper built RPC-Lib.)

    The tx path is scatter-gather: {!writev} frames an {!Xdr.Iovec.t}
    message by interleaving header slices with payload {e views}, so bulk
    payloads reach the transport without ever being blitted at this layer.
    The rx path reassembles into a single exactly-sized buffer, staging
    multi-fragment records through {!Pool} buffers. *)

val default_fragment_size : int
(** Fragment payload size used when none is given (1 MiB). *)

val max_fragment_size : int
(** Protocol maximum for one fragment: [2^31 - 1] bytes. *)

val writev : ?fragment_size:int -> Transport.t -> Xdr.Iovec.t -> unit
(** [writev t iov] sends the message described by [iov] as a record,
    splitting it into fragments of at most [fragment_size] bytes. Wire
    bytes are identical to [write t (Xdr.Iovec.concat iov)], but no payload
    byte is copied above the transport. An empty message is sent as a
    single empty last fragment. Raises [Invalid_argument] if
    [fragment_size] is not in [1 .. max_fragment_size]. *)

val write : ?fragment_size:int -> Transport.t -> string -> unit
(** [write t msg] is [writev t (Xdr.Iovec.of_string msg)]. *)

val wirev : ?fragment_size:int -> Xdr.Iovec.t -> Xdr.Iovec.t
(** The wire image {!writev} would send, as an iovec sharing the payload's
    storage (headers are the only fresh allocations). *)

val framed : fragment_size:int -> Xdr.Encode.t -> string
(** The record {!writev} would send for the encoder's message, as one
    fresh string — its record mark, then its bytes — when the message is
    flat ({!Xdr.Encode.is_flat}) and fits one fragment of [fragment_size]
    bytes; [""] otherwise. *)

val wire_length : int -> int
(** [wire_length n] is the size of the record {!to_wire} makes of an
    [n]-byte message at the default fragment size: the message and one
    4-byte header per fragment. *)

val default_max_record_size : int
(** The record size readers accept by default: 1 GiB. *)

exception Oversized of { claimed : int; limit : int }
(** A fragment header claimed a size that would take the record past
    [max_record_size] ({!default_max_record_size} unless a reader takes
    another): [claimed] is the record's size with that fragment. Raised
    from the header alone, {e before} any buffer for the claimed bytes is
    allocated, so an adversarial length field cannot reserve unbounded
    memory. Every reassembler below applies this rule to each header. *)

(** {1 Records crossing to a peer in the same process}

    A peer in the same process — the loopback, or a channel that models
    the wire in virtual time — takes what a client writes record by record
    and answers with whole messages, so neither direction needs a byte
    stream: an {!Inbox} reassembles records as their bytes are written, and
    an {!Outbox} frames replies as they are read. *)

module Inbox : sig
  type t
  (** Records being reassembled from written wire bytes. Between records
      it holds a 4-byte header and the emptied slots completed records
      wait in until {!take}. *)

  val create : unit -> t

  val add : t -> string -> int -> int -> unit
  (** [add t s off len] takes [len] written bytes of [s] from [off]. A
      fragment header's claim is checked against the default limit, as
      {!Oversized} describes, as soon as its fourth byte arrives; its
      payload is then copied once, into a buffer of exactly the claimed
      size. After a refused header, whatever is written is dropped until
      {!take}. *)

  val take : t -> (string -> unit) -> unit
  (** [take t f] applies [f] to each record completed since the last
      [take], in order, and forgets it here; a record whose tail is still
      to come stays. Nothing is allocated per record. If [f] raises, the
      records after that one are forgotten too and the exception goes on.
      If a header was refused meanwhile, raises {!Oversized} instead,
      before [f] sees any record, and forgets everything written up to
      now: the records completed ahead of the refused header and the
      unfinished one. *)

  val next : t -> ('src -> bytes -> int -> int -> int) -> 'src -> string option
  (** [next t recv src] reads the bytes of a stream out of [src] itself:
      [recv src buf off len] moves up to [len] of them into [buf] at [off]
      and returns how many, 0 when [src] has none (as
      [Tcpstack.Endpoint.recv_into] does). Headers are read into the
      inbox's 4-byte scratch and each fragment straight into a buffer of
      exactly its claimed size. Returns the first record completed, as
      soon as it is, or [None] once [src] runs out first; a later call
      goes on from there.

      A header's claim is checked against the default limit, as
      {!Oversized} describes, before anything is allocated for it. A
      refused claim raises {!Oversized} and stays: every later call raises
      it again. An inbox is fed either through [next] or through {!add}
      and {!take}, not both. *)
end

module Outbox : sig
  type t
  (** Messages waiting to be read as wire bytes. *)

  val create : unit -> t

  val push : t -> string -> unit
  (** Queue a message behind the others. *)

  val is_empty : t -> bool
  (** Every queued message has been read through. *)

  val clear : t -> unit
  (** Forget every queued message. *)

  val read : t -> bytes -> int -> int -> int
  (** [read t buf off len] copies up to [len] bytes of the queued
      messages' wire image — each framed as {!to_wire} frames it, one after
      the other — into [buf] at [off], and returns how many: [len], or
      fewer when the queue runs out. Headers come from a 4-byte scratch,
      and payload bytes are blitted from the message itself. A message is
      let go once its last byte has been read. *)
end

val read : ?max_record_size:int -> ?pool:Pool.t -> Transport.t -> string
(** [read t] reassembles the next record into a single exactly-sized
    buffer. Single-fragment records are received directly into their final
    buffer; multi-fragment records stage fragments in [pool] buffers
    (default {!Pool.default}) and are assembled with one blit. Raises
    {!Transport.Closed} on end of stream mid-record (or before any
    fragment), and {!Oversized} if a header-claimed size would exceed
    [max_record_size] (default 1 GiB). *)

val read_opt :
  ?max_record_size:int -> ?pool:Pool.t -> Transport.t -> string option
(** Like {!read} but returns [None] when the stream ends cleanly before the
    first header byte — the normal way a peer hangs up between records. *)

(** {1 Reading a record through}

    A reader that knows where the bytes of a message belong moves them out
    of the transport itself, across fragment headers, instead of landing
    the record in a buffer of its own first. *)

type cursor
(** The record being read: what is left of its current fragment, and
    whether more fragments follow. *)

val open_record : Transport.t -> cursor
(** Read the first fragment header of the next record. Every header is
    bounded by the default limit (1 GiB) when it is read, so {!Oversized}
    comes from the same header {!read} would raise it on.
    Raises {!Transport.Closed} if the stream ends. *)

val take : cursor -> bytes -> int -> int -> int
(** [take c buf off len] reads up to [len] bytes of the message into
    [buf] at [off], crossing fragment headers, and returns how many it
    read: [len], or fewer when the record ends first. *)

val rest : cursor -> string
(** The rest of the message, through its last fragment. *)

(** {1 Pure helpers (unit-testable without transports)} *)

val encode_header : last:bool -> int -> string
(** 4-byte fragment header. *)

val decode_header : string -> bool * int
(** [decode_header s] is [(last, length)]; [s] must be 4 bytes. *)

val add_wire : ?fragment_size:int -> Buffer.t -> string -> unit
(** Append the bytes {!to_wire} returns to a buffer, with no intermediate
    string: the framing a channel uses to queue replies in a reused
    buffer. *)

val to_wire : ?fragment_size:int -> string -> string
(** The exact bytes {!write} would put on the wire, built contiguously.
    This is the pre-vectorisation (copying) framing path, kept as the
    reference implementation: property tests assert {!writev} emits
    byte-identical output, and the datapath benchmarks measure the two
    against each other. *)
