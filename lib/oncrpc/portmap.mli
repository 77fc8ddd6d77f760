(** Minimal portmapper (RFC 1833 version 2 subset, program 100000).

    Cricket clients conventionally locate the server's RPC program through
    the portmapper. We implement the subset used for that: SET, UNSET,
    GETPORT, DUMP, and the NULL procedure. The registry is in-memory and can
    be attached to any {!Server.t}. *)

val program : int
(** 100000. *)

val version : int
(** 2. *)

type mapping = { prog : int; vers : int; prot : int; port : int }

val prot_tcp : int
(** IPPROTO_TCP = 6. *)

type t
(** The registry. *)

val create : unit -> t

val set : t -> mapping -> bool
(** Register; false if an identical (prog,vers,prot) entry exists. *)

val unset : t -> prog:int -> vers:int -> bool
val getport : t -> prog:int -> vers:int -> prot:int -> int
(** 0 when unregistered, per the protocol. *)

val attach : t -> Server.t -> unit
(** Register the portmapper service on an RPC server. *)

(** {1 Client-side helpers} *)

val remote_getport :
  Client.t -> prog:int -> vers:int -> prot:int -> int
(** Query a remote portmapper through an existing client bound to
    [program]/[version]. *)
