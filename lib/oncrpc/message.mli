(** RPC message structures and codecs (RFC 5531 §9).

    A message is a header followed by a procedure-specific payload (call
    arguments or reply results). The codecs here handle only the header; the
    payload is appended to / decoded from the same XDR stream by the caller,
    exactly as generated rpcgen code does. *)

val rpc_version : int
(** Always 2. *)

val msg_call : int
(** The msg_type of a CALL: 0. *)

type auth_stat =
  | Auth_badcred
  | Auth_rejectedcred
  | Auth_badverf
  | Auth_rejectedverf
  | Auth_tooweak
  | Auth_invalidresp
  | Auth_failed

val auth_stat_code : auth_stat -> int
val auth_stat_of_code : int -> auth_stat

type call = {
  prog : int;
  vers : int;
  proc : int;
  cred : Auth.t;
  verf : Auth.t;
}

type mismatch_info = { low : int; high : int }

(** Why a call was accepted-but-failed, per [accept_stat]. [Success] carries
    no payload here; results follow in the stream. *)
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

val encode : Xdr.Encode.t -> t -> unit
(** Encode the header; the payload (args/results) must be appended by the
    caller when [body] is a [Call] or an [Accepted]/[Success] reply. *)

val decode : Xdr.Decode.t -> t
(** Decode the header, leaving the decoder positioned at the payload. *)

(** {1 Per-call fast paths}

    The common call and reply headers without a message record: [xid] is
    the unsigned 32-bit transaction id as an [int] (what
    [Int32.to_int x land 0xffffffff] gives), so nothing is boxed. *)

val encode_call_header :
  ?verf:Auth.t -> Xdr.Encode.t -> xid:int -> prog:int -> vers:int ->
  proc:int -> cred:Auth.t -> unit
(** The bytes {!encode} writes for
    [call ~cred ?verf ~xid ~prog ~vers ~proc ()] ([verf] defaults to
    {!Auth.none}). *)

val call_header_length : cred:Auth.t -> int
(** The length of that header with an empty verifier, where the arguments
    start. *)

val encode_success_header : ?verf:Auth.t -> Xdr.Encode.t -> xid:int -> unit
(** The bytes {!encode} writes for [reply_success ?verf ~xid ()]; results
    follow. *)

val success_header_length : int
(** 24: the length of that header with an empty verifier, where the
    results start. *)

exception Not_a_call

val decode_call : auth:bool -> Xdr.Decode.t -> int * call
(** The header {!decode} reads from a CALL, as [(xid, call)], for a server
    that only accepts calls. With [~auth:false] the credential and the
    verifier are stepped over, failing where {!decode} would, and read as
    {!Auth.none}. Raises [Not_a_call] if the message type is not CALL
    (the decoder is then past the xid and the type; {!decode} on a fresh
    decoder tells a REPLY from garbage), and [Xdr.Types.Error] wherever
    {!decode} would. *)

val is_success_reply : string -> xid:int -> bool
(** Whether a reply record starts with exactly the header
    {!encode_success_header} writes for [xid], give or take the
    verifier's flavor. When it does, {!decode} would return an accepted
    [Success] reply to [xid] with the results at {!success_header_length};
    any other record (another xid, a denial, an error, a verifier with a
    body, a truncated header) answers [false] and needs {!decode}. *)

(** {1 Convenience constructors} *)

val call : ?cred:Auth.t -> ?verf:Auth.t -> xid:int32 -> prog:int -> vers:int ->
  proc:int -> unit -> t

val reply_success : ?verf:Auth.t -> xid:int32 -> unit -> t
val reply_error : xid:int32 -> accept_stat -> t
val reply_denied : xid:int32 -> rejected -> t

val pp_accept_stat : Format.formatter -> accept_stat -> unit
val pp_rejected : Format.formatter -> rejected -> unit
