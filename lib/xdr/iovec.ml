type slice = { base : string; off : int; len : int }

type t = slice list

let check_slice base off len =
  if off < 0 || len < 0 || off + len > String.length base then
    invalid_arg "Xdr.Iovec.slice"

let slice ?(off = 0) ?len base =
  let len = match len with Some l -> l | None -> String.length base - off in
  check_slice base off len;
  { base; off; len }

let of_bytes ?(off = 0) ?len b =
  (* Zero-copy view: the slice aliases [b]; the caller must not mutate it
     while the slice is live (i.e. until the message is sent/flattened). *)
  slice ~off ?len (Bytes.unsafe_to_string b)

let of_string s = [ slice s ]

let sub_slice s pos len =
  if pos < 0 || len < 0 || pos + len > s.len then invalid_arg "Xdr.Iovec.sub_slice";
  { base = s.base; off = s.off + pos; len }

let length t = List.fold_left (fun acc s -> acc + s.len) 0 t

let iter f t = List.iter (fun s -> if s.len > 0 then f s) t

let blit_to_bytes t dst dst_off =
  let pos = ref dst_off in
  iter
    (fun s ->
      Bytes.blit_string s.base s.off dst !pos s.len;
      pos := !pos + s.len)
    t

let concat t =
  match t with
  | [] -> ""
  | [ s ] -> String.sub s.base s.off s.len
  | _ ->
      let b = Bytes.create (length t) in
      blit_to_bytes t b 0;
      Bytes.unsafe_to_string b

let slice_to_bytes s = Bytes.sub (Bytes.unsafe_of_string s.base) s.off s.len
let slice_to_string s = String.sub s.base s.off s.len

(* Split [t] into a prefix of exactly [n] bytes and the remainder, sharing
   the underlying storage (no copying). *)
let split t n =
  if n < 0 then invalid_arg "Xdr.Iovec.split";
  let rec loop acc n = function
    | rest when n = 0 -> (List.rev acc, rest)
    | [] -> invalid_arg "Xdr.Iovec.split: not enough bytes"
    | s :: rest when s.len <= n -> loop (s :: acc) (n - s.len) rest
    | s :: rest ->
        (List.rev (sub_slice s 0 n :: acc), sub_slice s n (s.len - n) :: rest)
  in
  loop [] n t
