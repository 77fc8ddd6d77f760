(** TCP segment representation and wire codec.

    A 20-byte header (no options) followed by the payload, checksummed
    together with the RFC 793 pseudo-header. The codec is used both by the
    state machine and by tests that corrupt bytes on the wire to check that
    software checksum verification rejects them. *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

val flags_none : flags

type t = {
  src_port : int;
  dst_port : int;
  seq : Seqnum.t;
  ack : Seqnum.t;
  flags : flags;
  window : int;
  payload : bytes;
}

val seq_length : t -> int
(** Sequence-space length: payload bytes plus one for SYN and for FIN. *)

val encode : src_ip:int32 -> dst_ip:int32 -> t -> bytes
(** Serialize with a valid checksum over the pseudo-header. *)

val decode : src_ip:int32 -> dst_ip:int32 -> bytes -> (t, string) result
(** Parse and verify the checksum; [Error] on truncation or corruption. *)
