type t = { data : string; limit : int; mutable pos : int }

let of_string ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Xdr.Decode.of_string";
  { data = s; limit = pos + len; pos }

let of_bytes ?pos ?len b = of_string ?pos ?len (Bytes.to_string b)
let pos t = t.pos
let remaining t = t.limit - t.pos

let need t n =
  if remaining t < n then
    Types.fail (Types.Truncated { wanted = n; available = remaining t })

let finish t =
  if remaining t <> 0 then Types.fail (Types.Trailing_bytes (remaining t))

let skip t n =
  need t n;
  t.pos <- t.pos + n

let byte t i = Char.code (String.unsafe_get t.data i)

(* The 32-bit word as an unsigned [int]: [int] and [uint] read through
   this, so they never box an [int32] on the way. *)
let word t =
  need t 4;
  let p = t.pos in
  t.pos <- p + 4;
  (byte t p lsl 24) lor (byte t (p + 1) lsl 16) lor (byte t (p + 2) lsl 8)
  lor byte t (p + 3)

let int32 t = Int32.of_int (word t)
let uint32 = int32
let int t = (word t lxor 0x80000000) - 0x80000000
let uint = word

let int64 t =
  let hi = word t in
  let lo = word t in
  Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

let uint64 = int64

let bool t =
  match word t with
  | 0 -> false
  | 1 -> true
  | v -> Types.fail (Types.Invalid_bool (Int32.of_int v))

let float32 t = Int32.float_of_bits (int32 t)
let float64 t = Int64.float_of_bits (int64 t)

let enum t ~check =
  let v = int t in
  if not (check v) then Types.fail (Types.Invalid_enum (Int32.of_int v));
  v

let void (_ : t) = ()

let check_padding t n =
  let pad = Types.padding_of n in
  need t pad;
  for i = 0 to pad - 1 do
    if byte t (t.pos + i) <> 0 then Types.fail Types.Invalid_padding
  done;
  t.pos <- t.pos + pad

let opaque_fixed t n =
  if n < 0 then Types.fail (Types.Negative_size n);
  need t n;
  let b = Bytes.create n in
  Bytes.blit_string t.data t.pos b 0 n;
  t.pos <- t.pos + n;
  check_padding t n;
  b

let read_size ?max t =
  let n = uint t in
  (match max with
  | Some m when n > m -> Types.fail (Types.Size_exceeded { limit = m; requested = n })
  | _ -> ());
  (* A declared size beyond the remaining input is rejected before any
     allocation proportional to it. *)
  if n > remaining t then
    Types.fail (Types.Truncated { wanted = n; available = remaining t });
  n

let opaque ?max t =
  let n = read_size ?max t in
  opaque_fixed t n

let skip_opaque ?max t =
  let n = read_size ?max t in
  need t n;
  t.pos <- t.pos + n;
  check_padding t n

(* No-copy view of a variable-length opaque: the slice aliases the
   decoder's backing string. A handler holds the record alive anyway, so
   handing out a view instead of fresh bytes removes the decode copy for
   bulk payloads. *)
let opaque_slice ?max t =
  let n = read_size ?max t in
  need t n;
  let s = Iovec.slice ~off:t.pos ~len:n t.data in
  t.pos <- t.pos + n;
  check_padding t n;
  s

let string ?max t =
  let n = read_size ?max t in
  need t n;
  let s = String.sub t.data t.pos n in
  t.pos <- t.pos + n;
  check_padding t n;
  s

let array_fixed t dec n =
  if n < 0 then Types.fail (Types.Negative_size n);
  Array.init n (fun _ -> dec t)

let array ?max t dec =
  let n = read_size ?max t in
  array_fixed t dec n

let list ?max t dec =
  let n = read_size ?max t in
  List.init n (fun _ -> dec t)

let option t dec = if bool t then Some (dec t) else None
