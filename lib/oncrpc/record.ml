let default_fragment_size = 1 lsl 20
let max_fragment_size = 0x7fffffff
let last_fragment_bit = 0x80000000

let encode_header ~last len =
  if len < 0 || len > max_fragment_size then invalid_arg "Record.encode_header";
  let v = if last then len lor last_fragment_bit else len in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int v);
  Bytes.unsafe_to_string b

let decode_header_fields b0 b1 b2 b3 =
  let v =
    (Char.code b0 lsl 24) lor (Char.code b1 lsl 16) lor (Char.code b2 lsl 8)
    lor Char.code b3
  in
  (v land last_fragment_bit <> 0, v land max_fragment_size)

let decode_header s =
  if String.length s <> 4 then invalid_arg "Record.decode_header";
  decode_header_fields s.[0] s.[1] s.[2] s.[3]

let decode_header_bytes b =
  if Bytes.length b < 4 then invalid_arg "Record.decode_header_bytes";
  decode_header_fields (Bytes.get b 0) (Bytes.get b 1) (Bytes.get b 2)
    (Bytes.get b 3)

let check_fragment_size n =
  if n < 1 || n > max_fragment_size then
    invalid_arg "Record: fragment_size out of range"

(* Iterate over the [(off, len, last)] fragments of a message. *)
let iter_fragments ~fragment_size msg f =
  let total = String.length msg in
  if total = 0 then f 0 0 true
  else begin
    let rec loop off =
      let len = min fragment_size (total - off) in
      let last = off + len >= total in
      f off len last;
      if not last then loop (off + len)
    in
    loop 0
  end

(* The wire image of an iovec message as an iovec: fragment headers
   interleaved with payload subviews. Nothing is blitted — each header is a
   fresh 4-byte string and every payload byte is reached through a view of
   the caller's original buffers. *)
let wirev ?(fragment_size = default_fragment_size) iov =
  check_fragment_size fragment_size;
  let total = Xdr.Iovec.length iov in
  if total = 0 then [ Xdr.Iovec.slice (encode_header ~last:true 0) ]
  else begin
    let rec fragments acc rest remaining =
      let len = min fragment_size remaining in
      let last = len = remaining in
      let payload, rest = Xdr.Iovec.split rest len in
      let acc =
        List.rev_append payload
          (Xdr.Iovec.slice (encode_header ~last len) :: acc)
      in
      if last then List.rev acc else fragments acc rest (remaining - len)
    in
    fragments [] iov total
  end

let writev ?fragment_size t iov = Transport.writev t (wirev ?fragment_size iov)

let write ?fragment_size t msg = writev ?fragment_size t (Xdr.Iovec.of_string msg)

let to_wire ?(fragment_size = default_fragment_size) msg =
  check_fragment_size fragment_size;
  let buf = Buffer.create (String.length msg + 16) in
  iter_fragments ~fragment_size msg (fun off len last ->
      Buffer.add_string buf (encode_header ~last len);
      Buffer.add_substring buf msg off len);
  Buffer.contents buf

let default_max_record_size = 1 lsl 30

exception Oversized of { claimed : int; limit : int }

let () =
  Printexc.register_printer (function
    | Oversized { claimed; limit } ->
        Some
          (Printf.sprintf
             "Oncrpc.Record.Oversized: header claims %d bytes (limit %d)"
             claimed limit)
    | _ -> None)

(* Size-check a header's *claim* before allocating anything: a hostile or
   corrupted header must not be able to reserve unbounded memory. *)
let check_claim ?(max_record_size = default_max_record_size) ~sofar len =
  if len > max_record_size || sofar + len > max_record_size then
    raise (Oversized { claimed = sofar + len; limit = max_record_size })

(* Reassembly allocates once per record in the common single-fragment case:
   the payload is received straight into its final buffer. Multi-fragment
   records stage each fragment in a pooled buffer and blit into an
   exactly-sized result once the last header has fixed the total — no
   Buffer regrowth, no trailing [Buffer.contents] copy. The 4-byte header
   staging buffer lives in the transport and is reused across records. *)
let read_body ~max_record_size ~pool t ~last ~len =
  let hdr = t.Transport.hdr_scratch in
  check_claim ~max_record_size ~sofar:0 len;
  if last then begin
    let b = Bytes.create len in
    Transport.recv_exact t b 0 len;
    Bytes.unsafe_to_string b
  end
  else begin
    (* chunks are (staging buffer, used length), newest first *)
    let chunks : (bytes * int) list ref = ref [] in
    let total = ref 0 in
    let release_all () =
      List.iter (fun (b, _) -> Pool.release pool b) !chunks
    in
    match
      let rec loop last len =
        let frag = Pool.acquire pool len in
        Transport.recv_exact t frag 0 len;
        chunks := (frag, len) :: !chunks;
        total := !total + len;
        if not last then begin
          Transport.recv_exact t hdr 0 4;
          let last, len = decode_header_bytes hdr in
          check_claim ~max_record_size ~sofar:!total len;
          loop last len
        end
      in
      loop last len
    with
    | () ->
        let out = Bytes.create !total in
        let pos = ref !total in
        List.iter
          (fun (b, used) ->
            pos := !pos - used;
            Bytes.blit b 0 out !pos used)
          !chunks;
        release_all ();
        Bytes.unsafe_to_string out
    | exception e ->
        release_all ();
        raise e
  end

let read ?(max_record_size = default_max_record_size) ?(pool = Pool.default) t =
  let hdr = t.Transport.hdr_scratch in
  Transport.recv_exact t hdr 0 4;
  let last, len = decode_header_bytes hdr in
  read_body ~max_record_size ~pool t ~last ~len

let read_opt ?(max_record_size = default_max_record_size) ?(pool = Pool.default)
    t =
  let hdr = t.Transport.hdr_scratch in
  let n = t.Transport.recv hdr 0 4 in
  if n = 0 then None
  else begin
    if n < 4 then Transport.recv_exact t hdr n (4 - n);
    let last, len = decode_header_bytes hdr in
    Some (read_body ~max_record_size ~pool t ~last ~len)
  end
