(** Per-host CPU cost profile for network I/O.

    A profile quantifies the mechanisms the paper holds responsible for the
    observed overheads: guest syscall entry and context switches (present in
    Linux, absent in single-address-space unikernels), VM exits for virtio
    kicks and interrupt injection (absent when running without a
    hypervisor), data copies through the stack, software checksumming when
    the NIC/virtio feature is missing, and per-segment protocol processing.

    Concrete named profiles for the five evaluated configurations live in
    the [unikernel] library; this module only defines the vocabulary and a
    few generic constructors. *)

type t = {
  name : string;
  virtualized : bool;  (** true ⇒ kicks/interrupts cost a VM exit *)
  syscall_ns : int;  (** one socket-API syscall entry/exit *)
  context_switch_ns : int;  (** guest kernel context switch per blocking op *)
  wakeup_ns : int;  (** scheduler wakeup latency when rx data arrives *)
  vmexit_ns : int;  (** one VM exit/entry round trip *)
  kick_batch : int;  (** tx doorbells amortized over this many frames *)
  irq_batch : int;  (** rx interrupt coalescing factor (packets/interrupt) *)
  copy_ns_per_byte : float;  (** single-core memcpy cost *)
  tx_copies : float;  (** data copies on the transmit path *)
  rx_copies : float;  (** data copies on the receive path *)
  checksum_ns_per_byte : float;  (** software Internet-checksum cost *)
  per_packet_tx_ns : int;  (** per-segment CPU cost in the guest TCP stack *)
  per_packet_rx_ns : int;
  interrupt_ns : int;  (** guest-side cost of taking one rx interrupt *)
  offloads : Offload.t;
}

val bare_metal_linux : t
(** A generic well-tuned native Linux host with full NIC offloads — the
    profile also used for the Cricket-server side in every configuration. *)

val with_offloads : t -> Offload.t -> t
(** Same host, different negotiated feature set (for ablations). *)
