let rpc_version = 2

type auth_stat =
  | Auth_badcred
  | Auth_rejectedcred
  | Auth_badverf
  | Auth_rejectedverf
  | Auth_tooweak
  | Auth_invalidresp
  | Auth_failed

let auth_stat_code = function
  | Auth_badcred -> 1
  | Auth_rejectedcred -> 2
  | Auth_badverf -> 3
  | Auth_rejectedverf -> 4
  | Auth_tooweak -> 5
  | Auth_invalidresp -> 6
  | Auth_failed -> 7

let auth_stat_of_code = function
  | 1 -> Auth_badcred
  | 2 -> Auth_rejectedcred
  | 3 -> Auth_badverf
  | 4 -> Auth_rejectedverf
  | 5 -> Auth_tooweak
  | 6 -> Auth_invalidresp
  | _ -> Auth_failed

type call = {
  prog : int;
  vers : int;
  proc : int;
  cred : Auth.t;
  verf : Auth.t;
}

type mismatch_info = { low : int; high : int }

type accept_stat =
  | Success
  | Prog_unavail
  | Prog_mismatch of mismatch_info
  | Proc_unavail
  | Garbage_args
  | System_err

type accepted = { verf : Auth.t; stat : accept_stat }
type rejected = Rpc_mismatch of mismatch_info | Auth_error of auth_stat
type reply = Accepted of accepted | Denied of rejected
type body = Call of call | Reply of reply
type t = { xid : int32; body : body }

(* msg_type *)
let msg_call = 0
let msg_reply = 1

(* reply_stat *)
let msg_accepted = 0
let msg_denied = 1

(* The headers of the per-call hot paths, written field by field without
   building a message or boxing the xid ([xid] is its unsigned 32-bit
   value as an [int]); {!encode} writes its CALL and accepted replies
   through them too. *)
let encode_call_header ?(verf = Auth.none) enc ~xid ~prog ~vers ~proc ~cred =
  Xdr.Encode.uint enc xid;
  Xdr.Encode.int enc msg_call;
  Xdr.Encode.uint enc rpc_version;
  Xdr.Encode.uint enc prog;
  Xdr.Encode.uint enc vers;
  Xdr.Encode.uint enc proc;
  Auth.encode enc cred;
  Auth.encode enc verf

(* xid, CALL, rpcvers, prog, vers, proc; the credential; an empty
   verifier *)
let call_header_length ~cred =
  let body = Bytes.length cred.Auth.body in
  24 + 8 + body + Xdr.Types.padding_of body + 8

let encode_accepted_header enc ~xid ~verf =
  Xdr.Encode.uint enc xid;
  Xdr.Encode.int enc msg_reply;
  Xdr.Encode.int enc msg_accepted;
  Auth.encode enc verf

let encode_accept_stat enc = function
  | Success -> Xdr.Encode.int enc 0
  | Prog_unavail -> Xdr.Encode.int enc 1
  | Prog_mismatch { low; high } ->
      Xdr.Encode.int enc 2;
      Xdr.Encode.uint enc low;
      Xdr.Encode.uint enc high
  | Proc_unavail -> Xdr.Encode.int enc 3
  | Garbage_args -> Xdr.Encode.int enc 4
  | System_err -> Xdr.Encode.int enc 5

let encode_success_header ?(verf = Auth.none) enc ~xid =
  encode_accepted_header enc ~xid ~verf;
  encode_accept_stat enc Success

let success_header_length = 24

let encode enc t =
  let xid = Int32.to_int t.xid land 0xffffffff in
  match t.body with
  | Call c ->
      encode_call_header ~verf:c.verf enc ~xid ~prog:c.prog ~vers:c.vers
        ~proc:c.proc ~cred:c.cred
  | Reply (Accepted { verf; stat }) ->
      encode_accepted_header enc ~xid ~verf;
      encode_accept_stat enc stat
  | Reply (Denied d) -> begin
      Xdr.Encode.uint enc xid;
      Xdr.Encode.int enc msg_reply;
      Xdr.Encode.int enc msg_denied;
      match d with
      | Rpc_mismatch { low; high } ->
          Xdr.Encode.int enc 0;
          Xdr.Encode.uint enc low;
          Xdr.Encode.uint enc high
      | Auth_error stat ->
          Xdr.Encode.int enc 1;
          Xdr.Encode.int enc (auth_stat_code stat)
    end

let decode_accept_stat dec =
  match Xdr.Decode.int dec with
  | 0 -> Success
  | 1 -> Prog_unavail
  | 2 ->
      let low = Xdr.Decode.uint dec in
      let high = Xdr.Decode.uint dec in
      Prog_mismatch { low; high }
  | 3 -> Proc_unavail
  | 4 -> Garbage_args
  | 5 -> System_err
  | n -> Xdr.Types.fail (Xdr.Types.Invalid_union (Int32.of_int n))

let decode_auth ~auth dec =
  if auth then Auth.decode dec
  else begin
    Auth.skip dec;
    Auth.none
  end

(* A CALL's header after its msg_type. *)
let decode_call_body ~auth dec =
  let rpcvers = Xdr.Decode.uint dec in
  if rpcvers <> rpc_version then
    Xdr.Types.fail (Xdr.Types.Invalid_enum (Int32.of_int rpcvers));
  let prog = Xdr.Decode.uint dec in
  let vers = Xdr.Decode.uint dec in
  let proc = Xdr.Decode.uint dec in
  let cred = decode_auth ~auth dec in
  let verf = decode_auth ~auth dec in
  { prog; vers; proc; cred; verf }

let decode dec =
  let xid = Xdr.Decode.uint32 dec in
  let mtype = Xdr.Decode.int dec in
  if mtype = msg_call then
    { xid; body = Call (decode_call_body ~auth:true dec) }
  else if mtype = msg_reply then begin
    let rstat = Xdr.Decode.int dec in
    if rstat = msg_accepted then begin
      let verf = Auth.decode dec in
      let stat = decode_accept_stat dec in
      { xid; body = Reply (Accepted { verf; stat }) }
    end
    else if rstat = msg_denied then begin
      match Xdr.Decode.int dec with
      | 0 ->
          let low = Xdr.Decode.uint dec in
          let high = Xdr.Decode.uint dec in
          { xid; body = Reply (Denied (Rpc_mismatch { low; high })) }
      | 1 ->
          let stat = auth_stat_of_code (Xdr.Decode.int dec) in
          { xid; body = Reply (Denied (Auth_error stat)) }
      | n -> Xdr.Types.fail (Xdr.Types.Invalid_union (Int32.of_int n))
    end
    else Xdr.Types.fail (Xdr.Types.Invalid_union (Int32.of_int rstat))
  end
  else Xdr.Types.fail (Xdr.Types.Invalid_union (Int32.of_int mtype))

exception Not_a_call

let decode_call ~auth dec =
  let xid = Xdr.Decode.uint dec in
  if Xdr.Decode.int dec <> msg_call then raise Not_a_call;
  (xid, decode_call_body ~auth dec)

let word s off = Int32.to_int (String.get_int32_be s off) land 0xffffffff

(* Exactly the records {!decode} reads as an accepted SUCCESS reply to
   [xid] with an empty verifier body, which is every success reply a
   server here sends; anything else needs the full decoder. *)
let is_success_reply s ~xid =
  String.length s >= success_header_length
  && word s 0 = xid
  && word s 4 = msg_reply
  && word s 8 = msg_accepted
  && word s 16 = 0
  && word s 20 = 0

let call ?(cred = Auth.none) ?(verf = Auth.none) ~xid ~prog ~vers ~proc () =
  { xid; body = Call { prog; vers; proc; cred; verf } }

let reply_success ?(verf = Auth.none) ~xid () =
  { xid; body = Reply (Accepted { verf; stat = Success }) }

let reply_error ~xid stat =
  { xid; body = Reply (Accepted { verf = Auth.none; stat }) }

let reply_denied ~xid rejected = { xid; body = Reply (Denied rejected) }

let pp_accept_stat ppf = function
  | Success -> Format.pp_print_string ppf "SUCCESS"
  | Prog_unavail -> Format.pp_print_string ppf "PROG_UNAVAIL"
  | Prog_mismatch { low; high } ->
      Format.fprintf ppf "PROG_MISMATCH(low=%d,high=%d)" low high
  | Proc_unavail -> Format.pp_print_string ppf "PROC_UNAVAIL"
  | Garbage_args -> Format.pp_print_string ppf "GARBAGE_ARGS"
  | System_err -> Format.pp_print_string ppf "SYSTEM_ERR"

let pp_rejected ppf = function
  | Rpc_mismatch { low; high } ->
      Format.fprintf ppf "RPC_MISMATCH(low=%d,high=%d)" low high
  | Auth_error s -> Format.fprintf ppf "AUTH_ERROR(%d)" (auth_stat_code s)
