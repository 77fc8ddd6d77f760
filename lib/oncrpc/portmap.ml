let program = 100000
let version = 2

module Proc = struct
  let null = 0
  let set = 1
  let unset = 2
  let getport = 3
  let dump = 4
end

type mapping = { prog : int; vers : int; prot : int; port : int }

let prot_tcp = 6

type t = { mutable mappings : mapping list }

let create () = { mappings = [] }

let same_key a b = a.prog = b.prog && a.vers = b.vers && a.prot = b.prot

let set t m =
  if List.exists (same_key m) t.mappings then false
  else begin
    t.mappings <- m :: t.mappings;
    true
  end

let unset t ~prog ~vers =
  let before = List.length t.mappings in
  t.mappings <-
    List.filter (fun m -> not (m.prog = prog && m.vers = vers)) t.mappings;
  List.length t.mappings <> before

let getport t ~prog ~vers ~prot =
  match
    List.find_opt
      (fun m -> m.prog = prog && m.vers = vers && m.prot = prot)
      t.mappings
  with
  | Some m -> m.port
  | None -> 0

let dump t = List.rev t.mappings

let decode_mapping dec =
  let prog = Xdr.Decode.uint dec in
  let vers = Xdr.Decode.uint dec in
  let prot = Xdr.Decode.uint dec in
  let port = Xdr.Decode.uint dec in
  { prog; vers; prot; port }

let encode_mapping enc m =
  Xdr.Encode.uint enc m.prog;
  Xdr.Encode.uint enc m.vers;
  Xdr.Encode.uint enc m.prot;
  Xdr.Encode.uint enc m.port

let attach t server =
  Server.register server ~prog:program ~vers:version
    [
      ( Proc.set,
        fun dec enc ->
          let m = decode_mapping dec in
          Xdr.Encode.bool enc (set t m) );
      ( Proc.unset,
        fun dec enc ->
          let m = decode_mapping dec in
          Xdr.Encode.bool enc (unset t ~prog:m.prog ~vers:m.vers) );
      ( Proc.getport,
        fun dec enc ->
          let m = decode_mapping dec in
          Xdr.Encode.uint enc (getport t ~prog:m.prog ~vers:m.vers ~prot:m.prot)
      );
      ( Proc.dump,
        fun dec enc ->
          Xdr.Decode.void dec;
          (* The wire format is a linked list: bool "more" then entry. *)
          List.iter
            (fun m ->
              Xdr.Encode.bool enc true;
              encode_mapping enc m)
            (dump t);
          Xdr.Encode.bool enc false );
    ]

let remote_getport client ~prog ~vers ~prot =
  Client.call client ~proc:Proc.getport
    (fun enc -> encode_mapping enc { prog; vers; prot; port = 0 })
    Xdr.Decode.uint
