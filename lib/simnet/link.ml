type t = {
  name : string;
  bandwidth_gbps : float;
  latency_ns : int;
  mtu : int;
  header_bytes : int;
}

let ethernet_100g =
  { name = "100GbE (IPoIB, MTU 9000)"; bandwidth_gbps = 100.0;
    latency_ns = 12_500; mtu = 9000; header_bytes = 66 }

(* TCP payload per on-wire packet: MTU minus IP (20) and TCP (32 with
   timestamps) headers. *)
let mss t = t.mtu - 52

let serialize_ns t ~payload ~packets =
  let wire_bytes = payload + (packets * t.header_bytes) in
  Float.of_int wire_bytes *. 8.0 /. t.bandwidth_gbps
