(** CUDA error codes, as carried in every Cricket RPC result.

    The numeric values match the [cuda_error] enum in the RPCL
    specification (and the corresponding [cudaError_t] values). *)

type t =
  | Success
  | Invalid_value
  | Memory_allocation
  | Invalid_device
  | Invalid_handle
  | Not_found
  | Not_ready
  | Launch_failure
  | Unknown

val code : t -> int
val of_code : int -> t
(** Unknown codes map to {!Unknown}. *)

val to_string : t -> string
exception Cuda_error of t
(** Raised by the client-side API wrappers on a non-[Success] result. *)

val check : t -> unit
(** Raise {!Cuda_error} unless [Success]. *)
