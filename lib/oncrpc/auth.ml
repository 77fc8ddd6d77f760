type flavor = Auth_none | Auth_sys | Auth_short | Auth_other of int

let flavor_code = function
  | Auth_none -> 0
  | Auth_sys -> 1
  | Auth_short -> 2
  | Auth_other n -> n

let flavor_of_code = function
  | 0 -> Auth_none
  | 1 -> Auth_sys
  | 2 -> Auth_short
  | n -> Auth_other n

type t = { flavor : flavor; body : bytes }

let max_body_length = 400
let none = { flavor = Auth_none; body = Bytes.empty }

type sys_params = {
  stamp : int32;
  machinename : string;
  uid : int;
  gid : int;
  gids : int list;
}

let sys p =
  if String.length p.machinename > 255 then
    invalid_arg "Auth.sys: machinename too long";
  if List.length p.gids > 16 then invalid_arg "Auth.sys: too many gids";
  let enc = Xdr.Encode.create () in
  Xdr.Encode.int32 enc p.stamp;
  Xdr.Encode.string ~max:255 enc p.machinename;
  Xdr.Encode.uint enc p.uid;
  Xdr.Encode.uint enc p.gid;
  Xdr.Encode.list ~max:16 enc Xdr.Encode.uint p.gids;
  { flavor = Auth_sys; body = Xdr.Encode.to_bytes enc }

let sys_params t =
  if t.flavor <> Auth_sys then invalid_arg "Auth.sys_params: not AUTH_SYS";
  let dec = Xdr.Decode.of_bytes t.body in
  let stamp = Xdr.Decode.int32 dec in
  let machinename = Xdr.Decode.string ~max:255 dec in
  let uid = Xdr.Decode.uint dec in
  let gid = Xdr.Decode.uint dec in
  let gids = Xdr.Decode.list ~max:16 dec Xdr.Decode.uint in
  Xdr.Decode.finish dec;
  { stamp; machinename; uid; gid; gids }

let encode enc t =
  if Bytes.length t.body > max_body_length then
    invalid_arg "Auth.encode: body exceeds 400 bytes";
  Xdr.Encode.int enc (flavor_code t.flavor);
  Xdr.Encode.opaque ~max:max_body_length enc t.body

let decode dec =
  let flavor = flavor_of_code (Xdr.Decode.int dec) in
  let body = Xdr.Decode.opaque ~max:max_body_length dec in
  { flavor; body }

let skip dec =
  ignore (Xdr.Decode.int dec);
  Xdr.Decode.skip_opaque ~max:max_body_length dec
