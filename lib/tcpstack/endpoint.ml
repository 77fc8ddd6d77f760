module Time = Simnet.Time
module Engine = Simnet.Engine

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

let state_to_string = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_received -> "SYN_RECEIVED"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack -> "LAST_ACK"
  | Closing -> "CLOSING"
  | Time_wait -> "TIME_WAIT"

type stats = {
  segments_sent : int;
  segments_received : int;
  data_segments_sent : int;
  retransmissions : int;
  fast_retransmissions : int;
  bytes_sent : int;
  bytes_received : int;
}

(* The retransmit queue: sent-but-unacknowledged segments, seq-ordered
   and oldest first, in parallel arrays used as a ring of [rq_len] slots
   from [rq_head]. A payload is a scatter-gather view aliasing the send
   ring's storage; a popped slot's payload is reset to [[]], so the ring
   does not keep acknowledged data reachable. [rq_ctl] holds a segment's
   SYN ([ctl_syn]) and FIN ([ctl_fin]) bits. *)
let ctl_syn = 1
let ctl_fin = 2

type t = {
  engine : Engine.t;
  name : string;
  mss : int;
  local_port : int;
  remote_port : int;
  rcv_window : int;
  rto : Time.t;
  mutable state : state;
  mutable snd_una : Seqnum.t;
  mutable snd_nxt : Seqnum.t;
  mutable snd_wnd : int;
  mutable rcv_nxt : Seqnum.t;
  mutable tx_burst : int;  (* max payload per emitted segment; mss, or up
                              to 64 KiB when the netdev negotiated TSO *)
  send_buf : Txring.t;  (* app data not yet segmented *)
  recv_buf : Buffer.t;  (* in-order data; bytes before recv_pos are read *)
  mutable recv_pos : int;
  mutable ooo : (Seqnum.t * Xdr.Iovec.t * int) list;
      (* out-of-order segments, sorted by seq *)
  mutable ooo_count : int;
  mutable rq_seq : Seqnum.t array;
  mutable rq_payload : Xdr.Iovec.t array;
  mutable rq_plen : int array;
  mutable rq_ctl : int array;
  mutable rq_head : int;
  mutable rq_len : int;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  mutable tx : Frame.t -> unit;
  mutable rto_generation : int;
  mutable retransmit_count : int;
  mutable rto_backoff : int;  (* RFC 6298 §5.5 exponent; reset on new ACK *)
  mutable cwnd : int;  (* congestion window, bytes *)
  mutable ssthresh : int;
  mutable dup_acks : int;
  mutable fast_retransmits : int;
  mutable segments_sent : int;
  mutable segments_received : int;
  mutable data_segments_sent : int;
  mutable retransmissions : int;
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable obs : Obs.Recorder.t;
}

let max_retransmits = 8

let create ~engine ~name ~mss ~iss ~local_port ~remote_port
    ?(rcv_window = 1 lsl 20) ?(rto = Time.ms 200) () =
  if mss <= 0 then invalid_arg "Endpoint.create: mss";
  {
    engine; name; mss; local_port; remote_port; rcv_window; rto;
    state = Closed;
    snd_una = iss;
    snd_nxt = iss;
    snd_wnd = 0;
    rcv_nxt = 0;
    tx_burst = mss;
    send_buf = Txring.create ();
    recv_buf = Buffer.create 4096;
    recv_pos = 0;
    ooo = [];
    ooo_count = 0;
    rq_seq = Array.make 16 0;
    rq_payload = Array.make 16 [];
    rq_plen = Array.make 16 0;
    rq_ctl = Array.make 16 0;
    rq_head = 0;
    rq_len = 0;
    fin_queued = false;
    fin_sent = false;
    tx = (fun _ -> ());
    rto_generation = 0;
    retransmit_count = 0;
    rto_backoff = 0;
    cwnd = 10 * mss;  (* RFC 6928 initial window *)
    ssthresh = max_int;
    dup_acks = 0;
    fast_retransmits = 0;
    segments_sent = 0;
    segments_received = 0;
    data_segments_sent = 0;
    retransmissions = 0;
    bytes_sent = 0;
    bytes_received = 0;
    obs = Obs.Recorder.null;
  }

let set_obs t obs = t.obs <- obs

let set_tx t fn = t.tx <- (fun f -> fn (Frame.to_segment f))
let set_tx_frame t fn = t.tx <- fn

let set_tx_burst t n =
  if n < t.mss then invalid_arg "Endpoint.set_tx_burst";
  t.tx_burst <- n

let tx_burst t = t.tx_burst
let state t = t.state

let stats t =
  { segments_sent = t.segments_sent; segments_received = t.segments_received;
    data_segments_sent = t.data_segments_sent;
    retransmissions = t.retransmissions;
    fast_retransmissions = t.fast_retransmits; bytes_sent = t.bytes_sent;
    bytes_received = t.bytes_received }

let congestion_window t = t.cwnd

let unacked t = Seqnum.diff t.snd_nxt t.snd_una

let emit t ~payload ~plen ~seq ~flags =
  let f =
    { Frame.src_port = t.local_port; dst_port = t.remote_port; seq;
      ack = t.rcv_nxt; flags; window = t.rcv_window; payload;
      payload_len = plen }
  in
  t.segments_sent <- t.segments_sent + 1;
  if plen > 0 then t.data_segments_sent <- t.data_segments_sent + 1;
  t.bytes_sent <- t.bytes_sent + plen;
  t.tx f

(* The flags of the two segments sent most, shared instead of built per
   segment: a pure ACK and a plain data segment. *)
let ack_flags = { Segment.flags_none with ack = true }
let data_flags = { ack_flags with psh = true }

let send_ack t = emit t ~payload:[] ~plen:0 ~seq:t.snd_nxt ~flags:ack_flags

(* Every segment carries ACK except the initial SYN of an active open
   (which is also what a retransmission must reproduce). *)
let pending_flags t ~plen ~ctl =
  if plen > 0 && ctl = 0 then data_flags
  else
    let syn = ctl land ctl_syn <> 0 in
    { Segment.syn; fin = ctl land ctl_fin <> 0; rst = false; psh = plen > 0;
      ack = not (syn && t.state = Syn_sent) }

(* Put the retransmit queue's slot [i] on the wire. *)
let transmit_pending t i =
  let plen = t.rq_plen.(i) in
  emit t ~payload:t.rq_payload.(i) ~plen ~seq:t.rq_seq.(i)
    ~flags:(pending_flags t ~plen ~ctl:t.rq_ctl.(i))

let max_rto_backoff = 6 (* cap the timer at 64x its base value *)

let rec arm_rto t =
  t.rto_generation <- t.rto_generation + 1;
  let generation = t.rto_generation in
  (* exponential backoff (RFC 6298 §5.5): a spurious timeout — e.g. the
     peer's receive path is the bottleneck and ACKs queue behind it —
     must not fire at the same rate until the retry budget is gone *)
  let rto =
    if t.rto_backoff = 0 then t.rto
    else Int64.shift_left t.rto (min t.rto_backoff max_rto_backoff)
  in
  Engine.schedule_after t.engine rto (fun () -> on_rto t generation)

and on_rto t generation =
  if generation = t.rto_generation && t.rq_len > 0
     && t.state <> Closed
  then begin
    t.retransmit_count <- t.retransmit_count + 1;
    if t.retransmit_count > max_retransmits then t.state <- Closed
    else begin
      t.rto_backoff <- t.rto_backoff + 1;
      Obs.Recorder.incr t.obs "tcp.rto_backoff";
      (* RFC 5681: timeout collapses the window to one segment *)
      t.ssthresh <- max (2 * t.mss) (unacked t / 2);
      t.cwnd <- t.mss;
      t.dup_acks <- 0;
      t.retransmissions <- t.retransmissions + 1;
      Obs.Recorder.incr t.obs "tcp.retransmit";
      transmit_pending t t.rq_head;
      arm_rto t
    end
  end

(* Sequence number just past the segment in slot [i] (SYN and FIN each
   take one). *)
let seg_end t i =
  let ctl = t.rq_ctl.(i) in
  Seqnum.add t.rq_seq.(i)
    (t.rq_plen.(i)
    + (if ctl land ctl_syn <> 0 then 1 else 0)
    + if ctl land ctl_fin <> 0 then 1 else 0)

(* The ring's capacity is a power of two, so an index wraps by masking. *)
let[@inline] rq_wrap t i = i land (Array.length t.rq_seq - 1)

(* Double the retransmit queue's capacity, oldest segment first. *)
let grow_rq t =
  let cap = Array.length t.rq_seq in
  let copy a fill =
    Array.init (2 * cap) (fun k ->
        if k < cap then a.((t.rq_head + k) land (cap - 1)) else fill)
  in
  t.rq_seq <- copy t.rq_seq 0;
  t.rq_payload <- copy t.rq_payload [];
  t.rq_plen <- copy t.rq_plen 0;
  t.rq_ctl <- copy t.rq_ctl 0;
  t.rq_head <- 0

(* Track a new sequence-space-consuming segment, starting at snd_nxt, and
   put it on the wire. *)
let send_pending t ~payload ~plen ~ctl =
  if t.rq_len = Array.length t.rq_seq then grow_rq t;
  let i = rq_wrap t (t.rq_head + t.rq_len) in
  t.rq_seq.(i) <- t.snd_nxt;
  t.rq_payload.(i) <- payload;
  t.rq_plen.(i) <- plen;
  t.rq_ctl.(i) <- ctl;
  t.rq_len <- t.rq_len + 1;
  t.snd_nxt <- seg_end t i;
  transmit_pending t i;
  if t.rq_len = 1 then arm_rto t

(* Pop the oldest segment of the retransmit queue. *)
let pop_pending t =
  t.rq_payload.(t.rq_head) <- [];
  t.rq_head <- rq_wrap t (t.rq_head + 1);
  t.rq_len <- t.rq_len - 1

(* Segment whatever the window allows out of the send ring. [take] hands
   back aliased slice views, so cutting a segment is O(slices touched) —
   the seed rebuilt the whole remaining buffer here, which made bulk sends
   quadratic in the transfer size. *)
let rec pump t =
  match t.state with
  | Established | Close_wait | Fin_wait_1 | Closing | Last_ack ->
      let window_left = (min t.snd_wnd t.cwnd) - unacked t in
      let buffered = Txring.length t.send_buf in
      if buffered > 0 && window_left > 0 then begin
        let len = min (min t.tx_burst buffered) window_left in
        let payload = Txring.take t.send_buf len in
        send_pending t ~payload ~plen:len ~ctl:0;
        pump t
      end
      else if
        buffered = 0 && t.fin_queued && (not t.fin_sent) && window_left > 0
      then begin
        t.fin_sent <- true;
        send_pending t ~payload:[] ~plen:0 ~ctl:ctl_fin;
        match t.state with
        | Established -> t.state <- Fin_wait_1
        | Close_wait -> t.state <- Last_ack
        | _ -> ()
      end
  | Closed | Listen | Syn_sent | Syn_received | Fin_wait_2 | Time_wait -> ()

let connect t =
  if t.state <> Closed then invalid_arg "Endpoint.connect: not closed";
  t.state <- Syn_sent;
  send_pending t ~payload:[] ~plen:0 ~ctl:ctl_syn

let listen t =
  if t.state <> Closed then invalid_arg "Endpoint.listen: not closed";
  t.state <- Listen

let send t data =
  Txring.push_bytes t.send_buf data;
  pump t

let sendv t iov =
  Txring.push_iovec t.send_buf iov;
  pump t

let send_string t s =
  Txring.push_iovec t.send_buf (Xdr.Iovec.of_string s);
  pump t

let close t =
  if not t.fin_queued then begin
    t.fin_queued <- true;
    pump t
  end

let recv_length t = Buffer.length t.recv_buf - t.recv_pos

let recv_into t buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Endpoint.recv_into";
  let n = min len (recv_length t) in
  Buffer.blit t.recv_buf t.recv_pos buf off n;
  t.recv_pos <- t.recv_pos + n;
  if t.recv_pos = Buffer.length t.recv_buf then begin
    Buffer.clear t.recv_buf;
    t.recv_pos <- 0
  end;
  n

let recv t =
  let data = Bytes.create (recv_length t) in
  ignore (recv_into t data 0 (Bytes.length data));
  data

let enter_time_wait t =
  t.state <- Time_wait;
  let generation = t.rto_generation + 1 in
  t.rto_generation <- generation;
  Engine.schedule_after t.engine (Time.add t.rto t.rto) (fun () ->
      if t.rto_generation = generation then t.state <- Closed)

let max_cwnd = 4 lsl 20

(* Process an acceptable ACK: advance snd_una, prune the retransmit queue,
   grow the congestion window (RFC 5681 slow start / congestion
   avoidance), and run fast retransmit on the third duplicate ACK. The
   queue is seq-ordered, so a cumulative ACK covers a prefix of it: pruning
   pops exactly the acknowledged segments, O(1) each. *)
let process_ack t (f : Frame.t) =
  if Seqnum.gt f.Frame.ack t.snd_una && Seqnum.le f.Frame.ack t.snd_nxt
  then begin
    t.snd_una <- f.Frame.ack;
    t.retransmit_count <- 0;
    t.rto_backoff <- 0;
    t.dup_acks <- 0;
    t.cwnd <-
      min max_cwnd
        (if t.cwnd < t.ssthresh then t.cwnd + t.mss (* slow start *)
         else t.cwnd + max 1 (t.mss * t.mss / t.cwnd));
    let fin_was_outstanding = t.fin_sent in
    while t.rq_len > 0 && Seqnum.le (seg_end t t.rq_head) t.snd_una do
      pop_pending t
    done;
    if t.rq_len = 0 then t.rto_generation <- t.rto_generation + 1
    else arm_rto t;
    (* Did this ACK cover our FIN? Everything sent, the FIN included, is
       acknowledged exactly when snd_una has reached snd_nxt. *)
    let fin_acked = fin_was_outstanding && Seqnum.ge t.snd_una t.snd_nxt in
    if fin_acked then begin
      match t.state with
      | Fin_wait_1 -> t.state <- Fin_wait_2
      | Closing -> enter_time_wait t
      | Last_ack -> t.state <- Closed
      | _ -> ()
    end
  end
  else if
    f.Frame.ack = t.snd_una
    && t.rq_len > 0
    && f.Frame.payload_len = 0
    && (not f.Frame.flags.Segment.syn)
    && not f.Frame.flags.Segment.fin
  then begin
    t.dup_acks <- t.dup_acks + 1;
    if t.dup_acks = 3 then begin
      (* fast retransmit: resend the presumed-lost head of the queue
         without waiting for the RTO *)
      t.ssthresh <- max (2 * t.mss) (unacked t / 2);
      t.cwnd <- t.ssthresh + (3 * t.mss);
      t.fast_retransmits <- t.fast_retransmits + 1;
      t.retransmissions <- t.retransmissions + 1;
      Obs.Recorder.incr t.obs "tcp.fast_retransmit";
      Obs.Recorder.incr t.obs "tcp.retransmit";
      transmit_pending t t.rq_head;
      arm_rto t
    end
  end;
  t.snd_wnd <- f.Frame.window

let max_ooo_segments = 256

let rec append_payload t (iov : Xdr.Iovec.t) =
  match iov with
  | [] -> ()
  | s :: rest ->
      Buffer.add_substring t.recv_buf s.Xdr.Iovec.base s.Xdr.Iovec.off
        s.Xdr.Iovec.len;
      append_payload t rest

(* Splice any buffered out-of-order segments that are now in order. *)
let rec drain_ooo t =
  match t.ooo with
  | (seq, payload, plen) :: rest when seq = t.rcv_nxt ->
      append_payload t payload;
      t.rcv_nxt <- Seqnum.add t.rcv_nxt plen;
      t.bytes_received <- t.bytes_received + plen;
      t.ooo <- rest;
      t.ooo_count <- t.ooo_count - 1;
      drain_ooo t
  | (seq, _, _) :: rest when Seqnum.lt seq t.rcv_nxt ->
      (* stale duplicate overtaken by retransmission *)
      t.ooo <- rest;
      t.ooo_count <- t.ooo_count - 1;
      drain_ooo t
  | _ -> ()

(* Insert into the sorted reassembly list in one pass: walk to the
   insertion point, drop the newcomer if a buffered segment already covers
   its range (exact duplicates included), and drop buffered segments the
   newcomer covers. The seed re-sorted the whole list and ran a separate
   duplicate scan on every insert. *)
let buffer_ooo t seq payload plen =
  if t.ooo_count < max_ooo_segments then begin
    let nend = Seqnum.add seq plen in
    (* buffered segments wholly inside the newcomer become redundant *)
    let rec drop_within l =
      match l with
      | (s, _, sl) :: rest
        when Seqnum.le seq s && Seqnum.le (Seqnum.add s sl) nend ->
          t.ooo_count <- t.ooo_count - 1;
          drop_within rest
      | _ -> l
    in
    let rec ins l =
      match l with
      | (s, _, sl) :: _
        when Seqnum.le s seq && Seqnum.le nend (Seqnum.add s sl) ->
          l (* covered by a buffered segment: drop the newcomer *)
      | ((s, _, _) as hd) :: rest when Seqnum.lt s seq -> hd :: ins rest
      | _ ->
          t.ooo_count <- t.ooo_count + 1;
          (seq, payload, plen) :: drop_within l
    in
    t.ooo <- ins t.ooo
  end

let deliver_payload t (f : Frame.t) =
  let len = f.Frame.payload_len in
  if len = 0 then true
  else if f.Frame.seq = t.rcv_nxt then begin
    append_payload t f.Frame.payload;
    t.rcv_nxt <- Seqnum.add t.rcv_nxt len;
    t.bytes_received <- t.bytes_received + len;
    drain_ooo t;
    true
  end
  else if Seqnum.gt f.Frame.seq t.rcv_nxt then begin
    (* a hole: buffer for reassembly, emit a duplicate ACK so the sender's
       fast-retransmit logic learns about the loss *)
    buffer_ooo t f.Frame.seq f.Frame.payload len;
    send_ack t;
    false
  end
  else begin
    (* seq < rcv_nxt: trim the already-received head (RFC 793 §3.9). A
       retransmitted super-segment after a partial ACK starts below
       rcv_nxt but can still carry new bytes past it. *)
    let old = Seqnum.diff t.rcv_nxt f.Frame.seq in
    if old < len then begin
      append_payload t (snd (Xdr.Iovec.split f.Frame.payload old));
      t.rcv_nxt <- Seqnum.add t.rcv_nxt (len - old);
      t.bytes_received <- t.bytes_received + (len - old);
      drain_ooo t;
      true
    end
    else begin
      (* wholly old duplicate: re-ACK what we have *)
      send_ack t;
      false
    end
  end

let handle_fin t (f : Frame.t) in_order =
  if f.Frame.flags.Segment.fin && in_order then begin
    (* FIN occupies one sequence number after the payload *)
    if Seqnum.add f.Frame.seq f.Frame.payload_len = t.rcv_nxt then begin
      t.rcv_nxt <- Seqnum.add t.rcv_nxt 1;
      (match t.state with
      | Established -> t.state <- Close_wait
      | Fin_wait_1 ->
          (* our FIN not yet acked: simultaneous close *)
          t.state <- Closing
      | Fin_wait_2 -> enter_time_wait t
      | s -> ignore s);
      send_ack t
    end
  end

let on_frame t (f : Frame.t) =
  t.segments_received <- t.segments_received + 1;
  if f.Frame.flags.Segment.rst then t.state <- Closed
  else
    match t.state with
    | Closed -> ()
    | Listen ->
        if f.Frame.flags.Segment.syn then begin
          t.rcv_nxt <- Seqnum.add f.Frame.seq 1;
          t.snd_wnd <- f.Frame.window;
          t.state <- Syn_received;
          (* SYN+ACK consumes a sequence number; tracked for retransmit *)
          send_pending t ~payload:[] ~plen:0 ~ctl:ctl_syn
        end
    | Syn_sent ->
        if f.Frame.flags.Segment.syn && f.Frame.flags.Segment.ack
           && f.Frame.ack = t.snd_nxt
        then begin
          t.rcv_nxt <- Seqnum.add f.Frame.seq 1;
          process_ack t f;
          t.state <- Established;
          send_ack t;
          pump t
        end
    | Syn_received ->
        if f.Frame.flags.Segment.ack && f.Frame.ack = t.snd_nxt then begin
          process_ack t f;
          t.state <- Established;
          let in_order = deliver_payload t f in
          if f.Frame.payload_len > 0 && in_order then send_ack t;
          handle_fin t f in_order;
          pump t
        end
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack
      ->
        if f.Frame.flags.Segment.ack then process_ack t f;
        let in_order = deliver_payload t f in
        if f.Frame.payload_len > 0 && in_order then send_ack t;
        handle_fin t f in_order;
        pump t
    | Time_wait ->
        (* retransmitted FIN: re-ACK *)
        if f.Frame.flags.Segment.fin then send_ack t

let on_segment t seg = on_frame t (Frame.of_segment seg)
