(* A TCP segment whose payload is a scatter-gather view instead of a flat
   byte buffer. This is the representation the endpoint works with
   internally and hands to a {!Netdev}: payload slices alias the sender's
   queued data (or, on receive, the decoded wire bytes), so the guest side
   of the virtio path never copies payload per segment. {!to_segment}
   materializes the flat form for the byte-encoding {!Medium} path.

   Unlike {!Segment.t}'s wire form, [window] is not clamped to 16 bits:
   frames model a stack with window scaling negotiated (as the paper's
   100 GbE testbed stacks do), which a bulk transfer needs to fill the
   link. The clamp still applies when a frame is encoded to wire bytes. *)

type t = {
  src_port : int;
  dst_port : int;
  seq : Seqnum.t;
  ack : Seqnum.t;
  flags : Segment.flags;
  window : int;
  payload : Xdr.Iovec.t;
  payload_len : int;
}

let of_segment (s : Segment.t) =
  {
    src_port = s.Segment.src_port;
    dst_port = s.Segment.dst_port;
    seq = s.Segment.seq;
    ack = s.Segment.ack;
    flags = s.Segment.flags;
    window = s.Segment.window;
    payload =
      (if Bytes.length s.Segment.payload = 0 then []
       else [ Xdr.Iovec.of_bytes s.Segment.payload ]);
    payload_len = Bytes.length s.Segment.payload;
  }

let to_segment t =
  {
    Segment.src_port = t.src_port;
    dst_port = t.dst_port;
    seq = t.seq;
    ack = t.ack;
    flags = t.flags;
    window = t.window;
    payload = Bytes.unsafe_of_string (Xdr.Iovec.concat t.payload);
  }

(* The bytes [pos, pos+len) of [iov] as slices sharing its storage, found
   in one walk; a slice wholly inside the range is reused as it is. *)
let rec range (iov : Xdr.Iovec.t) pos len =
  if len = 0 then []
  else
    match iov with
    | [] -> invalid_arg "Frame.sub"
    | s :: rest ->
        let slen = s.Xdr.Iovec.len in
        if pos >= slen then range rest (pos - slen) len
        else begin
          let n = min len (slen - pos) in
          let piece =
            if pos = 0 && n = slen then s else Xdr.Iovec.sub_slice s pos n
          in
          piece :: range rest 0 (len - n)
        end

(* [sub t pos len] is the data sub-range [pos, pos+len) of [t]'s payload
   as its own frame (sequence number advanced, payload aliased). SYN
   stays on the first byte of the sequence space, FIN on the last. *)
let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.payload_len then
    invalid_arg "Frame.sub";
  let last = pos + len = t.payload_len in
  let f = t.flags in
  let syn = f.Segment.syn && pos = 0
  and fin = f.Segment.fin && last
  and psh = f.Segment.psh && last in
  {
    t with
    seq = Seqnum.add t.seq (pos + if f.Segment.syn && pos > 0 then 1 else 0);
    flags =
      (if syn = f.Segment.syn && fin = f.Segment.fin && psh = f.Segment.psh
       then f
       else { f with Segment.syn; fin; psh });
    payload = range t.payload pos len;
    payload_len = len;
  }
