(* The encoder is a hybrid of a contiguous buffer (for the many small
   fixed-size fields of a message) and a list of out-of-line slices (for
   bulk opaques). Small items append to [buf]; a large opaque flushes the
   buffer as one slice and then records a zero-copy view of the payload, so
   a 64 MiB memcpy argument is never blitted at the XDR layer. *)

(* A region whose bytes are written only when the message is laid out:
   [write b off] fills [b.[off .. off + len)]. It sits in [parts] as the
   empty [hole] slice, so the slice list stays a plain list. *)
type fill = { len : int; write : bytes -> int -> unit }

type t = {
  buf : Buffer.t;
  mutable parts : Iovec.slice list; (* reverse order *)
  mutable fills : fill list; (* one per [hole] in [parts], same order *)
}

(* Opaques at least this long are recorded as slices instead of being
   copied into the buffer. Below it, the copy is cheaper than carrying an
   extra iovec entry through the datapath. *)
let zero_copy_threshold = 1024

let hole = Iovec.slice ""

let create ?(initial_size = 256) () =
  { buf = Buffer.create initial_size; parts = []; fills = [] }

let rec fills_length acc = function
  | [] -> acc
  | f :: rest -> fills_length (acc + f.len) rest

let length t =
  Iovec.length t.parts + fills_length 0 t.fills + Buffer.length t.buf

let flush t =
  if Buffer.length t.buf > 0 then begin
    let s = Buffer.contents t.buf in
    Buffer.clear t.buf;
    t.parts <- Iovec.slice s :: t.parts
  end

let add_slice t s =
  flush t;
  t.parts <- s :: t.parts

let to_iovec t =
  if t.fills <> [] then invalid_arg "Xdr.Encode.to_iovec: unfilled opaque";
  flush t;
  List.rev t.parts

(* Lay the parts out from the back, each fill in its hole. *)
let rec blit_back b pos parts fills =
  match parts with
  | [] -> ()
  | s :: rest when s == hole -> (
      match fills with
      | f :: fills ->
          let pos = pos - f.len in
          f.write b pos;
          blit_back b pos rest fills
      | [] -> assert false)
  | s :: rest ->
      let pos = pos - s.Iovec.len in
      Bytes.blit_string s.Iovec.base s.Iovec.off b pos s.Iovec.len;
      blit_back b pos rest fills

let to_bytes t =
  match t.parts with
  | [] -> Buffer.to_bytes t.buf
  | _ ->
      flush t;
      let len = length t in
      let b = Bytes.create len in
      blit_back b len t.parts t.fills;
      b

let to_string t =
  match t.parts with
  | [] -> Buffer.contents t.buf
  | _ -> Bytes.unsafe_to_string (to_bytes t)

let reset t =
  Buffer.clear t.buf;
  t.parts <- [];
  t.fills <- []

let is_flat t = t.parts == []

let blit t b off =
  if not (is_flat t) then invalid_arg "Xdr.Encode.blit: message holds views";
  Buffer.blit t.buf 0 b off (Buffer.length t.buf)

(* A spare is a one-encoder slot: [take] empties it with one atomic
   exchange, so exactly one taker owns the encoder until it is given
   back, whatever the domain or thread; a taker that finds the slot empty
   (the encoder is out: a nested call, another thread, another domain)
   gets a fresh encoder. *)
type spare = { slot : t Atomic.t; initial_size : int }

let out = { buf = Buffer.create 0; parts = []; fills = [] }
let spare ~initial_size = { slot = Atomic.make out; initial_size }

let take s =
  let t = Atomic.exchange s.slot out in
  if t == out then create ~initial_size:s.initial_size () else t

(* A buffer that grew past the spare's size goes back to its initial
   one, so a large message does not stay reachable through the slot. The
   buffer never held more than the whole message, which [flush] may have
   moved out of it already. *)
let give_back s t =
  if length t > s.initial_size then Buffer.reset t.buf
  else Buffer.clear t.buf;
  t.parts <- [];
  t.fills <- [];
  Atomic.set s.slot t

let int32 t v = Buffer.add_int32_be t.buf v
let uint32 = int32

(* The low 32 bits of [v], big-endian: [int] and [uint] convert here, next
   to the buffer write, so no [int32] is boxed on the way. *)
let word t v = Buffer.add_int32_be t.buf (Int32.of_int v)

let int t v =
  if v > 0x7fffffff || v < -0x80000000 then
    Types.fail (Types.Size_exceeded { limit = 0x7fffffff; requested = v });
  word t v

let uint t v =
  if v < 0 then Types.fail (Types.Negative_size v);
  if v > 0xffffffff then
    Types.fail (Types.Size_exceeded { limit = 0xffffffff; requested = v });
  word t v

let int64 t v = Buffer.add_int64_be t.buf v
let uint64 = int64
let bool t b = int32 t (if b then 1l else 0l)
let float32 t f = int32 t (Int32.bits_of_float f)
let float64 t f = int64 t (Int64.bits_of_float f)
let enum t v = int t v

let pad t n =
  for _ = 1 to Types.padding_of n do
    Buffer.add_char t.buf '\000'
  done

let opaque_fixed t b =
  if Bytes.length b >= zero_copy_threshold then
    add_slice t (Iovec.of_bytes b)
  else Buffer.add_bytes t.buf b;
  pad t (Bytes.length b)

let check_max ?max len =
  match max with
  | Some m when len > m -> Types.fail (Types.Size_exceeded { limit = m; requested = len })
  | _ -> ()

let opaque_sub ?max t b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Xdr.Encode.opaque_sub";
  check_max ?max len;
  uint t len;
  if len >= zero_copy_threshold then add_slice t (Iovec.of_bytes ~off ~len b)
  else Buffer.add_subbytes t.buf b off len;
  pad t len

let opaque ?max t b = opaque_sub ?max t b 0 (Bytes.length b)

let opaque_fill t len write =
  uint t len;
  if len >= zero_copy_threshold then begin
    flush t;
    t.parts <- hole :: t.parts;
    t.fills <- { len; write } :: t.fills
  end
  else begin
    let b = Bytes.create len in
    write b 0;
    Buffer.add_bytes t.buf b
  end;
  pad t len

let string ?max t s =
  let len = String.length s in
  check_max ?max len;
  uint t len;
  if len >= zero_copy_threshold then add_slice t (Iovec.slice s)
  else Buffer.add_string t.buf s;
  pad t len

let array_fixed t enc a = Array.iter (fun x -> enc t x) a

let array ?max t enc a =
  let len = Array.length a in
  check_max ?max len;
  uint t len;
  array_fixed t enc a

let list ?max t enc l =
  let len = List.length l in
  check_max ?max len;
  uint t len;
  List.iter (fun x -> enc t x) l

let option t enc = function
  | None -> bool t false
  | Some v ->
      bool t true;
      enc t v
