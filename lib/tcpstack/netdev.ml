module Engine = Simnet.Engine
module Fault = Simnet.Fault
module Offload = Simnet.Offload
module Hostprofile = Simnet.Hostprofile
module Link = Simnet.Link

(* A virtio-net-style device between two endpoints. Where {!Medium} models
   a raw byte wire (encode, checksum, decode every segment), this models
   the NIC boundary the paper's §4.2 ablation is about: which side of the
   guest/device line does segmentation, checksumming, coalescing and
   copying — and at what cost.

   Feature bits are negotiated per guest (device ∩ driver, virtio 1.1
   §2.2) from the guest's {!Simnet.Hostprofile.t}:

   - [tso]: the endpoint's tx burst is raised to ~64 KiB; the device cuts
     super-frames into wire-MSS segments ({!Frame.sub} aliases, no copy).
   - [tx_checksum]/[rx_checksum]: with the offload the device stamps /
     validates for free; without it the guest pays
     [checksum_ns_per_byte] and the sum is actually computed/verified.
   - [gro]: the device re-coalesces up to {!gro_limit} in-order wire
     segments of one guest frame into a single rx unit.
   - [scatter_gather]: without it the device cannot follow the guest's
     slice list, so transmit pays an extra 0.5-copy staging pass (the
     payload is physically flattened when the frame spans slices).
   - [mrg_rxbuf]: interrupt batches are 4x larger.

   Costs mirror {!Simnet.Netcost}'s closed-form sender/receiver terms
   mechanistically: the same profile fields, charged per frame/segment/rx
   unit as they occur, rather than integrated over a transfer. Timing uses
   three per-direction cursors (guest tx CPU, wire, receiver CPU), each
   advancing [max(ready, cursor) + cost] — a pipeline whose steady-state
   throughput is set by the bottleneck stage, like Netcost's model.
   Syscall/wakeup costs are the socket layer's business, not the NIC's,
   and are charged by {!Unikernel.Tcpchannel}. *)

type stats = {
  guest_tx_frames : int;
  wire_segments : int;
  tso_frames : int;
  rx_units : int;
  gro_merged : int;
  sw_checksum_bytes : int;
  staging_copies : int;
  csum_drops : int;
  fcs_drops : int;
  payload_bytes : int;
}

(* Wire segments coalesced into one rx unit, at most (as in
   {!Simnet.Netcost}'s GRO term). *)
let gro_limit = 8

(* Super-segment ceiling under TSO, rounded down to a whole number of wire
   MSS when applied. *)
let tso_burst_bytes = 65_536

(* virtio dependency clamps: segmentation offload requires the device to
   own transmit checksums, and receive coalescing requires validated
   receive checksums. *)
let effective (f : Offload.t) =
  { f with
    Offload.tso = f.Offload.tso && f.Offload.tx_checksum;
    gro = f.Offload.gro && f.Offload.rx_checksum }

(* The three pipeline cursors of one direction plus the delivery floor,
   in nanoseconds. An all-float record is stored flat, so advancing a
   cursor writes a float in place instead of boxing one. *)
type cursors = {
  mutable tx_free : float;  (* guest tx CPU busy until *)
  mutable wire_free : float;
  mutable rx_free : float;
  mutable last_arrival : float;  (* FIFO floor for deliveries *)
}

(* One transmit direction: sender guest -> device -> wire -> receiver.
   Rx units scheduled for delivery wait in [rxq], a ring of [rxq_len]
   units from [rxq_head] whose capacity is a power of two, and [on_unit]
   (built once) pops the oldest into the receiving endpoint. A direction's
   arrival times strictly increase, so its delivery events fire in the
   order they were scheduled. A popped slot is cleared, so the ring does
   not keep delivered payloads reachable. *)
type dir = {
  peer : Endpoint.t;
  snd : Hostprofile.t;
  rcv : Hostprofile.t;
  feat_tx : Offload.t;  (* negotiated with the sending guest *)
  feat_rx : Offload.t;  (* negotiated with the receiving guest *)
  cur : cursors;
  mutable kick_pending : int;  (* guest frames since last doorbell *)
  mutable irq_pending : int;  (* rx units since last interrupt *)
  mutable rxq : Frame.t array;
  mutable rxq_head : int;
  mutable rxq_len : int;
  on_unit : unit -> unit;
}

type t = {
  engine : Engine.t;
  link : Link.t;
  fault : Fault.t option;
  ab : dir;
  ba : dir;
  (* per-frame scratch, indexed by wire segment: each segment's fault
     decision and wire-done time. Owned by this device, so netdevs on
     different domains never share it. *)
  mutable decisions : Fault.decision array;
  mutable done_at : float array;
  mutable run_first : int;  (* the GRO run being built: its first segment *)
  mutable run_count : int;  (* and how many passing segments it holds *)
  mutable guest_tx_frames : int;
  mutable wire_segments : int;
  mutable tso_frames : int;
  mutable rx_units : int;
  mutable gro_merged : int;
  mutable sw_checksum_bytes : int;
  mutable staging_copies : int;
  mutable csum_drops : int;
  mutable fcs_drops : int;
  mutable payload_bytes : int;
  mutable obs : Obs.Recorder.t;
}

let set_obs t obs = t.obs <- obs

let[@inline] now_ns t = Int64.to_float (Engine.now t.engine)

(* [Float.max] for the cursors' values (never NaN), written here so that
   it is inlined and its float arguments stay unboxed. *)
let[@inline] fmax (a : float) b = if a >= b then a else b

(* --- the rx FIFO -------------------------------------------------------- *)

(* What a free slot of the rx FIFO holds. Written out in full, so that it
   is a static constant rather than a block the heap allocates at start. *)
let no_frame =
  { Frame.src_port = 0; dst_port = 0; seq = 0; ack = 0;
    flags =
      { Segment.syn = false; ack = false; fin = false; rst = false;
        psh = false };
    window = 0; payload = []; payload_len = 0 }

let push_unit d u =
  let cap = Array.length d.rxq in
  if d.rxq_len = cap then begin
    (* double the capacity, oldest unit first *)
    d.rxq <-
      Array.init (2 * cap) (fun k ->
          if k < cap then d.rxq.((d.rxq_head + k) land (cap - 1)) else no_frame);
    d.rxq_head <- 0
  end;
  d.rxq.((d.rxq_head + d.rxq_len) land (Array.length d.rxq - 1)) <- u;
  d.rxq_len <- d.rxq_len + 1

let pop_unit d =
  let u = d.rxq.(d.rxq_head) in
  d.rxq.(d.rxq_head) <- no_frame;
  d.rxq_head <- (d.rxq_head + 1) land (Array.length d.rxq - 1);
  d.rxq_len <- d.rxq_len - 1;
  Endpoint.on_frame d.peer u

(* --- sender side -------------------------------------------------------- *)

(* Charge the guest-side cost of handing one frame to the device and
   return the (possibly staged-flat) frame. *)
let guest_tx t d (f : Frame.t) =
  let n = f.Frame.payload_len in
  let p = d.snd in
  t.guest_tx_frames <- t.guest_tx_frames + 1;
  t.payload_bytes <- t.payload_bytes + n;
  let fn = Float.of_int n in
  let copies =
    p.Hostprofile.tx_copies
    +. if d.feat_tx.Offload.scatter_gather then 0.0 else 0.5
  in
  let cost =
    Float.of_int p.Hostprofile.per_packet_tx_ns
    +. (fn *. p.Hostprofile.copy_ns_per_byte *. copies)
    +.
    if d.feat_tx.Offload.tx_checksum then 0.0
    else begin
      t.sw_checksum_bytes <- t.sw_checksum_bytes + n;
      fn *. p.Hostprofile.checksum_ns_per_byte
    end
  in
  (* doorbell: one vmexit per [kick_batch] frames *)
  let cost =
    if not p.Hostprofile.virtualized then cost
    else begin
      d.kick_pending <- d.kick_pending + 1;
      if d.kick_pending >= p.Hostprofile.kick_batch then begin
        d.kick_pending <- 0;
        cost +. Float.of_int p.Hostprofile.vmexit_ns
      end
      else cost
    end
  in
  d.cur.tx_free <- fmax (now_ns t) d.cur.tx_free +. cost;
  (* without scatter-gather the device needs contiguous staging: it is
     charged for every frame, and the flatten is performed when the frame
     spans slices. A payload of one slice is contiguous already and passes
     through; it then aliases the sender's queued bytes until delivery,
     which the retransmit queue outlives. *)
  if (not d.feat_tx.Offload.scatter_gather) && n > 0 then begin
    t.staging_copies <- t.staging_copies + 1;
    Obs.Recorder.incr t.obs "net.staging_copy";
    match f.Frame.payload with
    | [ _ ] -> f
    | payload ->
        { f with Frame.payload = Xdr.Iovec.of_string (Xdr.Iovec.concat payload) }
  end
  else f

(* --- receiver side ------------------------------------------------------ *)

(* Software checksum verification: recompute over the payload and compare
   with the stamped sum; a corrupted unit gets a byte of a private copy
   flipped first, so the mismatch is detected the way a real stack
   detects it. *)
let sw_verify t (u : Frame.t) ~csum ~corrupt =
  let computed =
    if corrupt then begin
      let b = Bytes.unsafe_of_string (Xdr.Iovec.concat u.Frame.payload) in
      if Bytes.length b > 0 then begin
        let i = Bytes.length b / 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40))
      end;
      Checksum.finish (Checksum.sum b 0 (Bytes.length b))
    end
    else Checksum.finish (Checksum.sum_iovec u.Frame.payload)
  in
  t.sw_checksum_bytes <- t.sw_checksum_bytes + u.Frame.payload_len;
  if computed <> csum then begin
    t.csum_drops <- t.csum_drops + 1;
    false
  end
  else not corrupt

(* Deliver one rx unit whose last wire segment is done at [done_at]:
   charge receiver CPU on the rx cursor and schedule the endpoint callback
   at the cursor's new position. Without rx checksum offload the device
   has stamped the unit and the receiver verifies it in software. *)
let deliver_unit t d ~done_at ~corrupt (u : Frame.t) =
  let p = d.rcv in
  let n = u.Frame.payload_len in
  let c = d.cur in
  t.rx_units <- t.rx_units + 1;
  let cost =
    Float.of_int p.Hostprofile.per_packet_rx_ns
    +. (Float.of_int n *. p.Hostprofile.copy_ns_per_byte
        *. p.Hostprofile.rx_copies)
    +.
    if d.feat_rx.Offload.rx_checksum then 0.0
    else Float.of_int n *. p.Hostprofile.checksum_ns_per_byte
  in
  let irq_batch =
    if d.feat_rx.Offload.mrg_rxbuf then p.Hostprofile.irq_batch * 4
    else p.Hostprofile.irq_batch
  in
  d.irq_pending <- d.irq_pending + 1;
  let cost =
    if d.irq_pending >= irq_batch then begin
      d.irq_pending <- 0;
      cost
      +. Float.of_int
           (p.Hostprofile.interrupt_ns
           + if p.Hostprofile.virtualized then p.Hostprofile.vmexit_ns else 0)
    end
    else cost
  in
  let ready = done_at +. Float.of_int t.link.Link.latency_ns in
  c.rx_free <- fmax ready c.rx_free +. cost;
  let ok =
    if d.feat_rx.Offload.rx_checksum then true
    else
      (* the device stamp: the sum of the unit as sent *)
      let csum = Checksum.finish (Checksum.sum_iovec u.Frame.payload) in
      sw_verify t u ~csum ~corrupt
  in
  if ok then begin
    let arrival = fmax c.rx_free (c.last_arrival +. 1.0) in
    c.last_arrival <- arrival;
    push_unit d u;
    Engine.schedule_at_ns t.engine
      (Int64.to_int (Int64.of_float (Float.round arrival)))
      d.on_unit
  end

(* --- wire --------------------------------------------------------------- *)

(* The sub-frame of wire segments [first, first + count) of [f]. *)
let unit_of f ~mss ~first ~count =
  let n = f.Frame.payload_len in
  let pos = first * mss in
  let stop = min n ((first + count) * mss) in
  if pos = 0 && stop = n then f else Frame.sub f pos (stop - pos)

(* Deliver the current GRO run of [f], if any, as one rx unit. *)
let flush t d f ~mss =
  let merged = t.run_count in
  if merged > 0 then begin
    if merged > 1 then begin
      t.gro_merged <- t.gro_merged + (merged - 1);
      Obs.Recorder.incr t.obs ~by:(merged - 1) "net.gro_merged"
    end;
    let first = t.run_first in
    t.run_count <- 0;
    deliver_unit t d
      ~done_at:t.done_at.(first + merged - 1)
      ~corrupt:false
      (unit_of f ~mss ~first ~count:merged)
  end

(* Cut a guest frame at wire MSS, move every segment across the wire, and
   re-coalesce in-order runs into rx units (GRO). A unit is flushed by
   reaching [gro_limit], by a faulted segment, or by the end of the
   frame; its ready time is the wire-done time of its last segment plus
   propagation latency. A run is tracked as its first segment and its
   length; every segment is wired (fault drawn, wire cursor advanced)
   before the first unit is delivered. *)
let transmit t d (f : Frame.t) =
  let mss = Link.mss t.link in
  let n = f.Frame.payload_len in
  let nsegs = if n <= mss then 1 else (n + mss - 1) / mss in
  if nsegs > 1 then t.tso_frames <- t.tso_frames + 1;
  if nsegs > Array.length t.done_at then begin
    t.decisions <- Array.make nsegs Fault.Pass;
    t.done_at <- Array.make nsegs 0.0
  end;
  let c = d.cur in
  for i = 0 to nsegs - 1 do
    let len = min mss (n - (i * mss)) in
    t.wire_segments <- t.wire_segments + 1;
    let decision =
      match t.fault with
      | None -> Fault.Pass
      | Some fl -> Fault.decide ~now:(Engine.now t.engine) fl
    in
    (* [Link.serialize_ns ~packets:1], written out so that the float
       stays unboxed *)
    let ser =
      (Float.of_int (len + t.link.Link.header_bytes)
       *. 8.0 /. t.link.Link.bandwidth_gbps)
      +. match decision with Fault.Delay x -> Int64.to_float x | _ -> 0.0
    in
    c.wire_free <- fmax c.tx_free c.wire_free +. ser;
    t.decisions.(i) <- decision;
    t.done_at.(i) <- c.wire_free
  done;
  let gro = d.feat_rx.Offload.gro in
  t.run_count <- 0;
  for i = 0 to nsegs - 1 do
    match t.decisions.(i) with
    | Fault.Pass | Fault.Delay _ ->
        if not (gro && t.run_count < gro_limit) then flush t d f ~mss;
        if t.run_count = 0 then t.run_first <- i;
        t.run_count <- t.run_count + 1
    | Fault.Drop ->
        (* the hole breaks coalescing: flush what we have *)
        flush t d f ~mss
    | Fault.Corrupt ->
        flush t d f ~mss;
        if d.feat_rx.Offload.rx_checksum then
          (* the device's FCS/checksum validation catches it before the
             segment reaches a receive buffer: pure loss, no rx CPU *)
          t.fcs_drops <- t.fcs_drops + 1
        else
          deliver_unit t d ~done_at:t.done_at.(i) ~corrupt:true
            (unit_of f ~mss ~first:i ~count:1)
    | Fault.Duplicate ->
        flush t d f ~mss;
        let u = unit_of f ~mss ~first:i ~count:1 in
        deliver_unit t d ~done_at:t.done_at.(i) ~corrupt:false u;
        deliver_unit t d ~done_at:t.done_at.(i) ~corrupt:false u
  done;
  flush t d f ~mss

let on_guest_frame t d (f : Frame.t) =
  let f = guest_tx t d f in
  transmit t d f

(* --- construction ------------------------------------------------------- *)

let connect ~engine ~link ?fault ?(device = Offload.all) ~a:(ea, pa)
    ~b:(eb, pb) () =
  let feat_a =
    effective (Offload.negotiate ~device ~guest:pa.Hostprofile.offloads)
  in
  let feat_b =
    effective (Offload.negotiate ~device ~guest:pb.Hostprofile.offloads)
  in
  let dir peer snd rcv feat_tx feat_rx =
    let rec d =
      { peer; snd; rcv; feat_tx; feat_rx;
        cur =
          { tx_free = 0.0; wire_free = 0.0; rx_free = 0.0;
            last_arrival = 0.0 };
        kick_pending = 0; irq_pending = 0; rxq = Array.make 16 no_frame;
        rxq_head = 0; rxq_len = 0; on_unit = (fun () -> pop_unit d) }
    in
    d
  in
  let t =
    { engine; link; fault;
      ab = dir eb pa pb feat_a feat_b;
      ba = dir ea pb pa feat_b feat_a;
      decisions = [||]; done_at = [||]; run_first = 0; run_count = 0;
      guest_tx_frames = 0; wire_segments = 0; tso_frames = 0; rx_units = 0;
      gro_merged = 0; sw_checksum_bytes = 0; staging_copies = 0;
      csum_drops = 0; fcs_drops = 0; payload_bytes = 0;
      obs = Obs.Recorder.null }
  in
  let mss = Link.mss link in
  let burst = max mss (tso_burst_bytes / mss * mss) in
  if feat_a.Offload.tso then Endpoint.set_tx_burst ea burst;
  if feat_b.Offload.tso then Endpoint.set_tx_burst eb burst;
  Endpoint.set_tx_frame ea (fun f -> on_guest_frame t t.ab f);
  Endpoint.set_tx_frame eb (fun f -> on_guest_frame t t.ba f);
  t

let negotiated_a t = t.ab.feat_tx

let stats t =
  { guest_tx_frames = t.guest_tx_frames; wire_segments = t.wire_segments;
    tso_frames = t.tso_frames; rx_units = t.rx_units;
    gro_merged = t.gro_merged; sw_checksum_bytes = t.sw_checksum_bytes;
    staging_copies = t.staging_copies; csum_drops = t.csum_drops;
    fcs_drops = t.fcs_drops; payload_bytes = t.payload_bytes }

let fault_stats t = Option.map Fault.stats t.fault

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "@[<h>frames=%d wire=%d tso=%d rx_units=%d gro_merged=%d sw_csum=%dB \
     staging=%d csum_drops=%d fcs_drops=%d@]"
    s.guest_tx_frames s.wire_segments s.tso_frames s.rx_units s.gro_merged
    s.sw_checksum_bytes s.staging_copies s.csum_drops s.fcs_drops
