type breakdown = {
  packets : int;
  total : Time.t;
}

(* Every count here is an int: the polymorphic [Stdlib.max] would make
   each stage cost a call into the runtime's generic compare. *)
let max (a : int) b = if a >= b then a else b

let ceil_div a b = (a + b - 1) / b

(* Socket reads/writes move data in 64 KiB chunks (the size RPC-Lib and
   libtirpc use for their buffers). *)
let io_chunk = 65_536

let[@inline] sender_cpu (p : Hostprofile.t) ~packets n =
  let syscalls = max 1 (ceil_div n io_chunk) in
  (* With TSO the guest stack processes 64 KiB super-frames and rings the
     doorbell per super-frame; without it, per TCP segment. *)
  let frames =
    if p.offloads.Offload.tso then max 1 (ceil_div n io_chunk) else packets
  in
  let kicks = max 1 (ceil_div frames p.kick_batch) in
  let copies =
    p.tx_copies
    +. (if p.offloads.Offload.scatter_gather then 0.0 else 0.5)
  in
  Float.of_int (syscalls * (p.syscall_ns + p.context_switch_ns))
  +. (Float.of_int n *. p.copy_ns_per_byte *. copies)
  +. (if p.offloads.Offload.tx_checksum then 0.0
      else Float.of_int n *. p.checksum_ns_per_byte)
  +. Float.of_int (frames * p.per_packet_tx_ns)
  +. (if p.virtualized then Float.of_int (kicks * p.vmexit_ns) else 0.0)

let[@inline] receiver_cpu (p : Hostprofile.t) ~packets n =
  let irq_batch =
    if p.offloads.Offload.mrg_rxbuf then p.irq_batch * 4 else p.irq_batch
  in
  let irqs = max 1 (ceil_div packets irq_batch) in
  let syscalls = max 1 (ceil_div n io_chunk) in
  Float.of_int
    (irqs * (p.interrupt_ns + if p.virtualized then p.vmexit_ns else 0))
  +. Float.of_int p.wakeup_ns
  (* GRO/LRO: the stack sees one aggregate per ~8 wire packets *)
  +. (let rx_units =
        if p.offloads.Offload.gro then max 1 (ceil_div packets 8) else packets
      in
      Float.of_int (rx_units * p.per_packet_rx_ns))
  +. (if p.offloads.Offload.rx_checksum then 0.0
      else Float.of_int n *. p.checksum_ns_per_byte)
  +. (Float.of_int n *. p.copy_ns_per_byte *. p.rx_copies)
  +. Float.of_int (syscalls * (p.syscall_ns + p.context_switch_ns))

(* The pipelined end-to-end time of a message whose three stages cost
   [s], [w] and [r] ns in all. *)
let[@inline] pipelined ~(link : Link.t) ~packets s w r =
  let latency = Float.of_int link.latency_ns in
  if packets = 1 then latency +. s +. w +. r
  else begin
    (* pipeline: one packet through each stage, then the bottleneck *)
    let fp = Float.of_int packets in
    let per_pkt_s = s /. fp and per_pkt_w = w /. fp and per_pkt_r = r /. fp in
    let bottleneck = Float.max per_pkt_s (Float.max per_pkt_w per_pkt_r) in
    latency +. per_pkt_s +. per_pkt_w +. per_pkt_r
    +. ((fp -. 1.0) *. bottleneck)
  end

(* [Link.serialize_ns], written out here so that, inlined, the float
   stays unboxed in {!one_way_ns}. *)
let[@inline] wire_ns ~(link : Link.t) ~packets n =
  Float.of_int (n + (packets * link.header_bytes)) *. 8.0 /. link.bandwidth_gbps

let packets_of ~link n =
  if n < 0 then invalid_arg "Netcost.one_way: negative size";
  max 1 (ceil_div n (Link.mss link))

let one_way ~sender ~receiver ~link n =
  let packets = packets_of ~link n in
  let s = sender_cpu sender ~packets n in
  let w = wire_ns ~link ~packets n in
  let r = receiver_cpu receiver ~packets n in
  { packets; total = Time.of_float_ns (pipelined ~link ~packets s w r) }

(* [one_way]'s total without the breakdown: the stages stay unboxed floats
   and the result is rounded as [Time.of_float_ns] rounds it. *)
let one_way_ns ~sender ~receiver ~link n =
  let packets = packets_of ~link n in
  let s = sender_cpu sender ~packets n in
  let w = wire_ns ~link ~packets n in
  let r = receiver_cpu receiver ~packets n in
  Float.to_int (Float.round (pipelined ~link ~packets s w r))

let one_way_time ~sender ~receiver ~link n =
  Time.ns (one_way_ns ~sender ~receiver ~link n)

let throughput_bytes_per_s ~sender ~receiver ~link n =
  let b = one_way ~sender ~receiver ~link n in
  Float.of_int n /. Time.to_float_s b.total
