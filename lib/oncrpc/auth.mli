(** RPC authentication (RFC 5531 §8–9).

    Only the flavors Cricket uses are fully modelled: [AUTH_NONE] (the
    default) and [AUTH_SYS] (RFC 5531 appendix A). Unknown flavors are
    carried opaquely so a server can reject them with [AUTH_BADCRED] instead
    of failing to parse the message. *)

type flavor = Auth_none | Auth_sys | Auth_short | Auth_other of int

val flavor_code : flavor -> int
val flavor_of_code : int -> flavor

type t = { flavor : flavor; body : bytes }
(** An [opaque_auth]: flavor discriminant plus up to 400 bytes of body. *)

val max_body_length : int
(** 400, per RFC 5531. *)

val none : t
(** [AUTH_NONE] with an empty body. *)

type sys_params = {
  stamp : int32;
  machinename : string;  (** max 255 bytes *)
  uid : int;
  gid : int;
  gids : int list;  (** max 16 entries *)
}
(** The [authsys_parms] structure. *)

val sys : sys_params -> t
(** Build an [AUTH_SYS] credential from parameters. *)

val sys_params : t -> sys_params
(** Parse an [AUTH_SYS] body. Raises [Xdr.Types.Error] on malformed body or
    [Invalid_argument] if the flavor is not [Auth_sys]. *)

val encode : Xdr.Encode.t -> t -> unit
val decode : Xdr.Decode.t -> t

val skip : Xdr.Decode.t -> unit
(** Step over an [opaque_auth], failing exactly where {!decode} would,
    without materialising it. *)
