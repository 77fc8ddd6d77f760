(* Every length here is an int: the polymorphic [Stdlib.min] and [max]
   would make each framing step a call into the runtime's generic
   compare. *)
let min (a : int) b = if a <= b then a else b
let max (a : int) b = if a >= b then a else b

let default_fragment_size = 1 lsl 20
let max_fragment_size = 0x7fffffff
let last_fragment_bit = 0x80000000

let encode_header ~last len =
  if len < 0 || len > max_fragment_size then invalid_arg "Record.encode_header";
  let v = if last then len lor last_fragment_bit else len in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int v);
  Bytes.unsafe_to_string b

let header_word b0 b1 b2 b3 =
  (Char.code b0 lsl 24) lor (Char.code b1 lsl 16) lor (Char.code b2 lsl 8)
  lor Char.code b3

let header_word_of_bytes b =
  header_word (Bytes.get b 0) (Bytes.get b 1) (Bytes.get b 2) (Bytes.get b 3)

let is_last w = w land last_fragment_bit <> 0
let fragment_length w = w land max_fragment_size

let decode_header_fields b0 b1 b2 b3 =
  let w = header_word b0 b1 b2 b3 in
  (is_last w, fragment_length w)

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
  if total <= fragment_size then
    (* one fragment: its header in front of the message, as it is *)
    Xdr.Iovec.slice (encode_header ~last:true total) :: iov
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

let framed ~fragment_size enc =
  let len = Xdr.Encode.length enc in
  if Xdr.Encode.is_flat enc && len <= fragment_size then begin
    let b = Bytes.create (4 + len) in
    Bytes.set_int32_be b 0 (Int32.of_int (len lor last_fragment_bit));
    Xdr.Encode.blit enc b 4;
    Bytes.unsafe_to_string b
  end
  else ""

let write ?fragment_size t msg = writev ?fragment_size t (Xdr.Iovec.of_string msg)

let rec add_fragments buf ~fragment_size msg off =
  let total = String.length msg in
  let len = min fragment_size (total - off) in
  let last = off + len >= total in
  Buffer.add_int32_be buf
    (Int32.of_int (if last then len lor last_fragment_bit else len));
  Buffer.add_substring buf msg off len;
  if not last then add_fragments buf ~fragment_size msg (off + len)

let add_wire ?(fragment_size = default_fragment_size) buf msg =
  check_fragment_size fragment_size;
  add_fragments buf ~fragment_size msg 0

let to_wire ?(fragment_size = default_fragment_size) msg =
  check_fragment_size fragment_size;
  let buf = Buffer.create (String.length msg + 16) in
  iter_fragments ~fragment_size msg (fun off len last ->
      Buffer.add_string buf (encode_header ~last len);
      Buffer.add_substring buf msg off len);
  Buffer.contents buf

let wire_length len =
  len + (4 * max 1 ((len + default_fragment_size - 1) / default_fragment_size))

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
let claim_within ~max_record_size ~sofar len =
  if len > max_record_size || sofar + len > max_record_size then
    raise (Oversized { claimed = sofar + len; limit = max_record_size })

(* A peer in the same process needs no byte stream in either direction.
   What the client writes is parsed as it arrives: each header is checked
   before its fragment's buffer exists, and each payload byte is copied
   once, into a buffer of exactly the claimed size. Replies go out through
   a cursor that makes each header in a 4-byte scratch and blits payload
   bytes from the reply straight into the reader's buffer. *)
module Inbox = struct
  type t = {
    header : bytes;  (* the fragment header being read *)
    mutable header_got : int;  (* its bytes so far: 4 once it is parsed *)
    mutable fragment : bytes;  (* the fragment's payload, exactly sized *)
    mutable fragment_got : int;
    mutable last : bool;  (* the fragment ends its record *)
    mutable parts : string list;  (* earlier fragments, newest first *)
    mutable sofar : int;  (* their bytes *)
    mutable records : string array;  (* complete records, oldest first *)
    mutable count : int;  (* how many of [records] are complete records *)
    mutable refused : exn option;  (* an [Oversized] header claim *)
  }

  let create () =
    { header = Bytes.create 4; header_got = 0; fragment = Bytes.empty;
      fragment_got = 0; last = false; parts = []; sofar = 0;
      records = Array.make 4 ""; count = 0; refused = None }

  (* The fragment is complete. If it ends its record, the record is
     returned; otherwise it is kept with the earlier ones and "" is. *)
  let finish_fragment t =
    let fragment = Bytes.unsafe_to_string t.fragment in
    t.fragment <- Bytes.empty;
    t.header_got <- 0;
    if t.last then begin
      match t.parts with
      | [] -> fragment
      | parts ->
          t.parts <- [];
          t.sofar <- 0;
          String.concat "" (List.rev (fragment :: parts))
    end
    else begin
      t.parts <- fragment :: t.parts;
      t.sofar <- t.sofar + String.length fragment;
      ""
    end

  let keep t record =
    if t.count = Array.length t.records then begin
      let grown = Array.make (2 * t.count) "" in
      Array.blit t.records 0 grown 0 t.count;
      t.records <- grown
    end;
    t.records.(t.count) <- record;
    t.count <- t.count + 1

  let close_fragment t =
    let record = finish_fragment t in
    if t.last then keep t record

  let forget_records t =
    Array.fill t.records 0 t.count "";
    t.count <- 0

  let open_fragment t =
    let w = header_word_of_bytes t.header in
    let len = fragment_length w in
    match
      claim_within ~max_record_size:default_max_record_size ~sofar:t.sofar len
    with
    | () ->
        t.fragment <- Bytes.create len;
        t.fragment_got <- 0;
        t.last <- is_last w;
        if len = 0 then close_fragment t
    | exception (Oversized _ as e) -> t.refused <- Some e

  (* The length of the single-fragment record that starts a write of
     [len] bytes at [off] and ends inside it, or -1. *)
  let whole_at t s off len =
    match t.parts with
    | _ :: _ -> -1
    | [] ->
        if t.header_got > 0 || len < 4 then -1
        else
          let w = header_word s.[off] s.[off + 1] s.[off + 2] s.[off + 3] in
          let flen = fragment_length w in
          if is_last w && flen <= len - 4 && flen <= default_max_record_size
          then flen
          else -1

  (* A write that carries a whole single-fragment record, the usual call,
     copies it out in one step, without the header scratch or a fragment
     buffer. *)
  let rec add t s off len =
    if len > 0 && Option.is_none t.refused then
      let flen = whole_at t s off len in
      if flen >= 0 then begin
        keep t (String.sub s (off + 4) flen);
        add t s (off + 4 + flen) (len - 4 - flen)
      end
      else if t.header_got < 4 then begin
        let n = min len (4 - t.header_got) in
        Bytes.blit_string s off t.header t.header_got n;
        t.header_got <- t.header_got + n;
        if t.header_got = 4 then open_fragment t;
        add t s (off + n) (len - n)
      end
      else begin
        let n = min len (Bytes.length t.fragment - t.fragment_got) in
        Bytes.blit_string s off t.fragment t.fragment_got n;
        t.fragment_got <- t.fragment_got + n;
        if t.fragment_got = Bytes.length t.fragment then close_fragment t;
        add t s (off + n) (len - n)
      end

  (* Each record is let go as it is served, so a bulk record is not kept
     alive by the inbox once its handler is done with it. *)
  let rec serve t f i =
    if i < t.count then begin
      let record = t.records.(i) in
      t.records.(i) <- "";
      f record;
      serve t f (i + 1)
    end

  let take t f =
    match t.refused with
    | None -> (
        match serve t f 0 with
        | () -> t.count <- 0
        | exception e ->
            forget_records t;
            raise e)
    | Some e ->
        t.header_got <- 0;
        t.fragment <- Bytes.empty;
        t.parts <- [];
        t.sofar <- 0;
        forget_records t;
        t.refused <- None;
        raise e

  (* A fragment being read has [header_got = 4] and a buffer of its
     claimed, nonzero size: a fragment of size 0 is finished as soon as it
     is opened. So [header_got = 4] with an empty buffer is a header whose
     claim was refused. *)
  let rec next t recv src =
    if t.header_got < 4 then begin
      t.header_got <-
        t.header_got + recv src t.header t.header_got (4 - t.header_got);
      if t.header_got = 4 then accept t recv src else None
    end
    else if Bytes.length t.fragment = 0 then accept t recv src
    else fill t recv src

  and accept t recv src =
    let w = header_word_of_bytes t.header in
    let len = fragment_length w in
    claim_within ~max_record_size:default_max_record_size ~sofar:t.sofar len;
    t.fragment <- Bytes.create len;
    t.fragment_got <- 0;
    t.last <- is_last w;
    fill t recv src

  and fill t recv src =
    let need = Bytes.length t.fragment - t.fragment_got in
    if need > 0 then
      t.fragment_got <- t.fragment_got + recv src t.fragment t.fragment_got need;
    if t.fragment_got < Bytes.length t.fragment then None
    else
      let record = finish_fragment t in
      if t.last then Some record else next t recv src
end

module Outbox = struct
  type t = {
    header : bytes;  (* the header being served *)
    messages : string Queue.t;  (* the ones after [current] *)
    mutable current : string;
    mutable served : int;  (* wire bytes of [current] already read *)
    mutable busy : bool;  (* [current] has wire bytes left *)
  }

  let create () =
    { header = Bytes.create 4; messages = Queue.create (); current = "";
      served = 0; busy = false }

  let is_empty t = not t.busy

  let push t msg =
    if t.busy then Queue.push msg t.messages
    else begin
      t.current <- msg;
      t.served <- 0;
      t.busy <- true
    end

  let clear t =
    Queue.clear t.messages;
    t.current <- "";
    t.busy <- false

  (* Fragment k of [current] starts [k * (fragment + 4)] wire bytes in:
     where a read stopped says which header or payload byte is next. *)
  let fragment = default_fragment_size

  let rec read t buf off len got =
    if len = 0 || not t.busy then got
    else begin
      let msg = t.current in
      let k = t.served / (fragment + 4) and r = t.served mod (fragment + 4) in
      let start = k * fragment in
      let flen = min fragment (String.length msg - start) in
      let n =
        if r < 4 then begin
          let last = start + flen = String.length msg in
          Bytes.set_int32_be t.header 0
            (Int32.of_int (if last then flen lor last_fragment_bit else flen));
          let n = min len (4 - r) in
          Bytes.blit t.header r buf off n;
          n
        end
        else begin
          let n = min len (flen - (r - 4)) in
          Bytes.blit_string msg (start + r - 4) buf off n;
          n
        end
      in
      t.served <- t.served + n;
      if t.served = wire_length (String.length msg) then begin
        if Queue.is_empty t.messages then begin
          t.current <- "";
          t.busy <- false
        end
        else begin
          t.current <- Queue.take t.messages;
          t.served <- 0
        end
      end;
      read t buf (off + n) (len - n) (got + n)
    end

  let read t buf off len = read t buf off len 0
end

(* Reassembly allocates once per record in the common single-fragment case:
   the payload is received straight into its final buffer. Multi-fragment
   records stage each fragment in a pooled buffer and blit into an
   exactly-sized result once the last header has fixed the total — no
   Buffer regrowth, no trailing [Buffer.contents] copy. The 4-byte header
   staging buffer lives in the transport and is reused across records. *)
let read_body ~max_record_size ~pool t ~last ~len =
  let hdr = t.Transport.hdr_scratch in
  claim_within ~max_record_size ~sofar:0 len;
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
          claim_within ~max_record_size ~sofar:!total len;
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
  let w = header_word_of_bytes hdr in
  read_body ~max_record_size ~pool t ~last:(is_last w) ~len:(fragment_length w)

type cursor = {
  transport : Transport.t;
  mutable left : int;  (* unread bytes of the current fragment *)
  mutable last : bool;  (* the current fragment ends the record *)
  mutable claimed : int;  (* bytes the headers read so far claim *)
}

let next_fragment c =
  let hdr = c.transport.Transport.hdr_scratch in
  Transport.recv_exact c.transport hdr 0 4;
  let w = header_word_of_bytes hdr in
  let len = fragment_length w in
  claim_within ~max_record_size:default_max_record_size ~sofar:c.claimed len;
  c.left <- len;
  c.last <- is_last w;
  c.claimed <- c.claimed + len

let open_record t =
  let c = { transport = t; left = 0; last = false; claimed = 0 } in
  next_fragment c;
  c

let rec take_from c buf off len got =
  if len = 0 then got
  else if c.left > 0 then begin
    let n = min len c.left in
    Transport.recv_exact c.transport buf off n;
    c.left <- c.left - n;
    take_from c buf (off + n) (len - n) (got + n)
  end
  else if c.last then got
  else begin
    next_fragment c;
    take_from c buf off len got
  end

let take c buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Record.take";
  take_from c buf off len 0

let rest c =
  let rec loop acc =
    if c.left > 0 then begin
      let b = Bytes.create c.left in
      ignore (take_from c b 0 c.left 0);
      loop (Bytes.unsafe_to_string b :: acc)
    end
    else if c.last then String.concat "" (List.rev acc)
    else begin
      next_fragment c;
      loop acc
    end
  in
  loop []

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
