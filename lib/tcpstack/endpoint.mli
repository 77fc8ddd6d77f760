(** Minimal TCP endpoint in the spirit of smoltcp (RustyHermit's stack).

    Implements the RFC 793 state machine over the {!Simnet.Engine} event
    loop: three-way handshake, MSS segmentation, cumulative ACKs, a fixed
    advertised receive window, go-back-N retransmission on a fixed RTO,
    RFC 5681 congestion control (slow start, congestion avoidance, fast
    retransmit on three duplicate ACKs, multiplicative decrease on
    timeout), and the full close sequence (FIN_WAIT_1/2, CLOSING,
    CLOSE_WAIT, LAST_ACK, TIME_WAIT). Out-of-order segments are buffered
    for reassembly (bounded), so a single loss is healed by one fast
    retransmit in roughly one round trip.

    The stack exists to validate mechanisms the closed-form {!Simnet.Netcost}
    model charges for (segment counts, ACK traffic, loss recovery); the
    Cricket benchmarks use the closed form for speed. *)

type state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_received
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Closing
  | Time_wait

val state_to_string : state -> string

type stats = {
  segments_sent : int;
  segments_received : int;
  data_segments_sent : int;  (** segments carrying payload (incl. rexmit) *)
  retransmissions : int;  (** all retransmitted segments (RTO + fast) *)
  fast_retransmissions : int;  (** triggered by triple duplicate ACKs *)
  bytes_sent : int;  (** payload bytes handed to the wire (incl. rexmit) *)
  bytes_received : int;  (** in-order payload bytes delivered to the app *)
}

type t

val create :
  engine:Simnet.Engine.t ->
  name:string ->
  mss:int ->
  iss:Seqnum.t ->
  local_port:int ->
  remote_port:int ->
  ?rcv_window:int ->
  ?rto:Simnet.Time.t ->
  unit ->
  t

val set_tx : t -> (Segment.t -> unit) -> unit
(** Install the wire-output function (done by {!Medium}). Frames are
    materialized via {!Frame.to_segment} — one payload copy per
    transmission, which the byte-wire path needs anyway. *)

val set_tx_frame : t -> (Frame.t -> unit) -> unit
(** Install a scatter-gather output function (done by {!Netdev}); payload
    slices reach the device without flattening. *)

val set_tx_burst : t -> int -> unit
(** Raise the per-segment payload ceiling above the MSS (TSO: the device
    negotiated segmentation offload, so the endpoint may emit
    super-segments the device will cut at wire MSS). Raises
    [Invalid_argument] below the MSS. *)

val set_obs : t -> Obs.Recorder.t -> unit
(** Attach an observability recorder: loss-recovery events bump the
    ["tcp.retransmit"], ["tcp.fast_retransmit"] and ["tcp.rto_backoff"]
    counters. One branch per event while the recorder is disabled. *)

val tx_burst : t -> int
(** Current per-segment payload ceiling (= MSS unless raised). *)

val on_segment : t -> Segment.t -> unit
(** Deliver a segment from the wire. *)

val on_frame : t -> Frame.t -> unit
(** Deliver a scatter-gather frame (the {!Netdev} receive path). *)

val connect : t -> unit
(** Active open: send SYN. *)

val listen : t -> unit
(** Passive open. *)

val send : t -> bytes -> unit
(** Queue application data; segments flow as the window allows. The data
    is copied once into the send ring (the caller may reuse the buffer);
    segmentation then aliases ring slices, so queueing [n] bytes and
    draining them is O(n) total, not O(n²/mss). *)

val sendv : t -> Xdr.Iovec.t -> unit
(** Queue scatter-gather data without copying. The caller must not mutate
    the underlying buffers until the bytes are acknowledged (the
    retransmit queue aliases them). *)

val send_string : t -> string -> unit
(** [sendv] over a whole (immutable) string. *)

val close : t -> unit
(** Queue a FIN after any pending data. *)

val recv : t -> bytes
(** Drain in-order received application data (empty if none). *)

val recv_into : t -> bytes -> int -> int -> int
(** [recv_into t buf off len] moves up to [len] in-order bytes into [buf]
    at [off] and returns how many it moved (0 when nothing is readable).
    The bytes are copied once, straight from the endpoint's receive buffer,
    so a reader that knows how much it wants (a record-marking parser, a
    transport's [recv]) needs no staging buffer of its own. Raises
    [Invalid_argument] if [off]/[len] do not fit [buf]. *)

val recv_length : t -> int
(** Bytes currently readable by {!recv} / {!recv_into}. *)

val state : t -> state
val stats : t -> stats
val unacked : t -> int
(** Bytes in flight (sent, not yet acknowledged). *)

val congestion_window : t -> int
(** Current cwnd in bytes (starts at 10 MSS per RFC 6928). *)
