type t = {
  name : string;
  virtualized : bool;
  syscall_ns : int;
  context_switch_ns : int;
  wakeup_ns : int;
  vmexit_ns : int;
  kick_batch : int;
  irq_batch : int;
  copy_ns_per_byte : float;
  tx_copies : float;
  rx_copies : float;
  checksum_ns_per_byte : float;
  per_packet_tx_ns : int;
  per_packet_rx_ns : int;
  interrupt_ns : int;
  offloads : Offload.t;
}

let bare_metal_linux =
  {
    name = "native-linux";
    virtualized = false;
    syscall_ns = 1_500;
    context_switch_ns = 0;
    wakeup_ns = 3_000;
    vmexit_ns = 0;
    kick_batch = 1;
    irq_batch = 16;
    copy_ns_per_byte = 0.08;
    tx_copies = 1.0;
    rx_copies = 1.0;
    checksum_ns_per_byte = 0.25;
    per_packet_tx_ns = 250;
    per_packet_rx_ns = 150;
    interrupt_ns = 5_000;
    offloads = Offload.all;
  }

let with_offloads t offloads = { t with offloads }
