module H = Simnet.Hostprofile
module O = Simnet.Offload

type lang = C | Rust
type os = Rocky_native | Fedora_vm | Unikraft_os | Hermit_os

type t = {
  name : string;
  lang : lang;
  os : os;
  hypervisor : string option;
  network : string;
  profile : Simnet.Hostprofile.t;
  rng_ns_per_byte : float;
  launch_extra_ns : int;
}

let link = Simnet.Link.ethernet_100g
let server_profile = H.bare_metal_linux

(* Input generation: the C samples draw bytes through glibc rand(); the
   Rust ports use a fast xorshift-style generator (§4.1: the histogram
   initialization difference). *)
let c_rng_ns_per_byte = 20.0
let rust_rng_ns_per_byte = 0.6

(* The C launch path keeps compatibility with <<<...>>> launches (§4.2:
   Rust is ≈6.3 % faster on launch microbenchmarks). *)
let c_launch_extra_ns = 3_400

(* Native Linux acknowledges the whole RPC-engine feature set: the host
   kernel can map the device's steering queues and doorbell pages
   directly. Whether any rpc bit is actually negotiated still depends on
   the device offering them (a stock NIC does not). *)
let native_profile =
  H.with_offloads H.bare_metal_linux (O.rpc_all O.all)

(* Fedora guest over virtio-net with all offloads negotiated. Guest
   syscalls, scheduler wakeups and interrupt injection through QEMU/KVM
   dominate small-message latency; bulk transfers stay efficient thanks to
   TSO + GRO + checksum offload. *)
let linux_vm_profile =
  {
    H.name = "linux-vm";
    virtualized = true;
    syscall_ns = 1_750;
    context_switch_ns = 600;
    wakeup_ns = 37_500;
    vmexit_ns = 11_250;
    kick_batch = 8;
    irq_batch = 16;
    copy_ns_per_byte = 0.08;
    tx_copies = 1.0;
    rx_copies = 1.0;
    checksum_ns_per_byte = 0.45;
    per_packet_tx_ns = 1_200;
    per_packet_rx_ns = 1_000;
    interrupt_ns = 9_500;
    (* The VM's virtio shim acknowledges framing/parse/doorbell, but not
       steering: the guest cannot map the device's dispatch queues through
       QEMU, so routing stays in guest software. *)
    offloads =
      { (O.rpc_all O.all) with O.rpc_steer = false };
  }

(* RustyHermit with smoltcp: single address space (no syscall/context
   switch), but no TSO/GRO, per-segment smoltcp processing, unbatched VM
   exits, and a slow receive path (§4.2: "significant inefficiencies when
   reading from the network"). MRG_RXBUF and checksum offloads are the
   ones this paper's RustyHermit work implemented. *)
let hermit_profile =
  {
    H.name = "rustyhermit";
    virtualized = true;
    syscall_ns = 250;
    context_switch_ns = 0;
    wakeup_ns = 5_000;
    vmexit_ns = 23_500;
    kick_batch = 6;
    irq_batch = 1;
    copy_ns_per_byte = 0.08;
    tx_copies = 2.0;
    rx_copies = 2.5;
    checksum_ns_per_byte = 0.45;
    per_packet_tx_ns = 2_500;
    per_packet_rx_ns = 7_500;
    interrupt_ns = 3_750;
    (* The paper's RustyHermit checksum offloads. smoltcp's driver shim
       implements the framing and doorbell halves of the RPC engine (they
       sit on the tx/rx ring it already owns) but not header
       parse/steering descriptors. *)
    offloads =
      { O.checksum_only with rpc_framing = true; rpc_doorbell = true };
  }

(* Unikraft with lwIP: a thin syscall shim remains, and checksum offload
   is not supported yet (the lib-lwip PR the paper cites), so software
   checksumming hits bulk transfers on top of per-segment costs. *)
let unikraft_profile =
  {
    H.name = "unikraft";
    virtualized = true;
    syscall_ns = 1_000;
    context_switch_ns = 0;
    wakeup_ns = 6_250;
    vmexit_ns = 23_000;
    kick_batch = 4;
    irq_batch = 2;
    copy_ns_per_byte = 0.08;
    tx_copies = 2.0;
    rx_copies = 2.0;
    checksum_ns_per_byte = 0.45;
    per_packet_tx_ns = 4_500;
    per_packet_rx_ns = 8_500;
    interrupt_ns = 4_500;
    (* lwIP predates the RPC engine entirely: no rpc bits acknowledged,
       every call is framed/parsed/routed in guest software. *)
    offloads =
      { O.tso = false; tx_checksum = false; rx_checksum = false;
        scatter_gather = false; mrg_rxbuf = false; gro = false;
        rpc_framing = false; rpc_parse = false; rpc_steer = false;
        rpc_doorbell = false };
  }

let c_native =
  {
    name = "C";
    lang = C;
    os = Rocky_native;
    hypervisor = None;
    network = "native";
    profile = native_profile;
    rng_ns_per_byte = c_rng_ns_per_byte;
    launch_extra_ns = c_launch_extra_ns;
  }

let rust_native =
  {
    name = "Rust";
    lang = Rust;
    os = Rocky_native;
    hypervisor = None;
    network = "native";
    profile = native_profile;
    rng_ns_per_byte = rust_rng_ns_per_byte;
    launch_extra_ns = 0;
  }

let linux_vm =
  {
    name = "Linux VM";
    lang = Rust;
    os = Fedora_vm;
    hypervisor = Some "QEMU";
    network = "virtio";
    profile = linux_vm_profile;
    rng_ns_per_byte = rust_rng_ns_per_byte;
    launch_extra_ns = 0;
  }

let unikraft =
  {
    name = "Unikraft";
    lang = Rust;
    os = Unikraft_os;
    hypervisor = Some "QEMU";
    network = "virtio";
    profile = unikraft_profile;
    rng_ns_per_byte = rust_rng_ns_per_byte;
    launch_extra_ns = 0;
  }

let hermit =
  {
    name = "Hermit";
    lang = Rust;
    os = Hermit_os;
    hypervisor = Some "QEMU";
    network = "virtio";
    profile = hermit_profile;
    rng_ns_per_byte = rust_rng_ns_per_byte;
    launch_extra_ns = 0;
  }

let all = [ c_native; rust_native; linux_vm; unikraft; hermit ]

let is_unikernel t =
  match t.os with
  | Unikraft_os | Hermit_os -> true
  | Rocky_native | Fedora_vm -> false

let find name =
  let want = String.lowercase_ascii name in
  List.find_opt (fun t -> String.lowercase_ascii t.name = want) all

let os_to_string = function
  | Rocky_native -> "Rocky Linux"
  | Fedora_vm -> "Fedora VM"
  | Unikraft_os -> "Unikraft"
  | Hermit_os -> "Hermit"

let lang_to_string = function C -> "C" | Rust -> "Rust"

let table1_rows () =
  List.map
    (fun t ->
      Printf.sprintf "%-9s %-5s %-12s %-10s %s" t.name (lang_to_string t.lang)
        (os_to_string t.os)
        (match t.hypervisor with Some h -> h | None -> "-")
        t.network)
    all
