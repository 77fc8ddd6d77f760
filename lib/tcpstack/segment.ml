type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool }

let flags_none = { syn = false; ack = false; fin = false; rst = false; psh = false }

type t = {
  src_port : int;
  dst_port : int;
  seq : Seqnum.t;
  ack : Seqnum.t;
  flags : flags;
  window : int;
  payload : bytes;
}

let seq_length t =
  Bytes.length t.payload
  + (if t.flags.syn then 1 else 0)
  + (if t.flags.fin then 1 else 0)

let header_len = 20

let flag_bits f =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor (if f.ack then 0x10 else 0)

let bits_flags v =
  {
    fin = v land 0x01 <> 0;
    syn = v land 0x02 <> 0;
    rst = v land 0x04 <> 0;
    psh = v land 0x08 <> 0;
    ack = v land 0x10 <> 0;
  }

let set_u16 b off v =
  Bytes.set b off (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 1) (Char.chr (v land 0xff))

let get_u16 b off =
  (Char.code (Bytes.get b off) lsl 8) lor Char.code (Bytes.get b (off + 1))

let set_u32 b off v =
  set_u16 b off ((v lsr 16) land 0xffff);
  set_u16 b (off + 2) (v land 0xffff)

let get_u32 b off = (get_u16 b off lsl 16) lor get_u16 b (off + 2)

(* RFC 793 pseudo-header: src ip, dst ip, zero, protocol (6), tcp length *)
let pseudo_header_sum ~src_ip ~dst_ip ~tcp_len =
  let ph = Bytes.create 12 in
  set_u32 ph 0 (Int32.to_int src_ip land 0xffffffff);
  set_u32 ph 4 (Int32.to_int dst_ip land 0xffffffff);
  Bytes.set ph 8 '\000';
  Bytes.set ph 9 '\006';
  set_u16 ph 10 tcp_len;
  Checksum.sum ph 0 12

let encode ~src_ip ~dst_ip t =
  let payload_len = Bytes.length t.payload in
  let b = Bytes.create (header_len + payload_len) in
  set_u16 b 0 t.src_port;
  set_u16 b 2 t.dst_port;
  set_u32 b 4 t.seq;
  set_u32 b 8 t.ack;
  (* data offset 5 (20 bytes), reserved 0 *)
  Bytes.set b 12 (Char.chr (5 lsl 4));
  Bytes.set b 13 (Char.chr (flag_bits t.flags));
  set_u16 b 14 (min t.window 0xffff);
  set_u16 b 16 0 (* checksum placeholder *);
  set_u16 b 18 0 (* urgent pointer *);
  Bytes.blit t.payload 0 b header_len payload_len;
  let csum =
    Checksum.finish
      (Checksum.sum
         ~initial:(pseudo_header_sum ~src_ip ~dst_ip ~tcp_len:(Bytes.length b))
         b 0 (Bytes.length b))
  in
  set_u16 b 16 csum;
  b

let decode ~src_ip ~dst_ip b =
  if Bytes.length b < header_len then Error "truncated segment"
  else begin
    let total =
      Checksum.finish
        (Checksum.sum
           ~initial:(pseudo_header_sum ~src_ip ~dst_ip ~tcp_len:(Bytes.length b))
           b 0 (Bytes.length b))
    in
    if total <> 0 then Error "bad checksum"
    else begin
      let data_offset = Char.code (Bytes.get b 12) lsr 4 in
      if data_offset < 5 || data_offset * 4 > Bytes.length b then
        Error "bad data offset"
      else
        Ok
          {
            src_port = get_u16 b 0;
            dst_port = get_u16 b 2;
            seq = get_u32 b 4;
            ack = get_u32 b 8;
            flags = bits_flags (Char.code (Bytes.get b 13));
            window = get_u16 b 14;
            payload =
              Bytes.sub b (data_offset * 4) (Bytes.length b - (data_offset * 4));
          }
    end
  end
