(** Point-to-point link model.

    Captures the physical path between the application node and the GPU
    node: bandwidth, propagation + switching latency, MTU and per-packet
    header overhead. The evaluation testbed is 100 Gbit/s Ethernet
    (ConnectX-5 in IPoIB mode) with an IP MTU of 9000. *)

type t = {
  name : string;
  bandwidth_gbps : float;  (** payload-carrying capacity, Gbit/s *)
  latency_ns : int;  (** one-way propagation + switch latency *)
  mtu : int;  (** IP MTU in bytes *)
  header_bytes : int;  (** per-packet Ethernet+IP+TCP header overhead *)
}

val ethernet_100g : t
(** The paper's interconnect: 100 Gbit/s, MTU 9000, ~5 µs one-way. *)

val mss : t -> int
(** TCP maximum segment size — the payload bytes carried per on-wire
    packet ([mtu] minus IP and TCP headers). *)

val serialize_ns : t -> payload:int -> packets:int -> float
(** Time to clock [payload] bytes in [packets] packets onto the wire
    (excluding propagation latency). *)
