type error =
  | Truncated of { wanted : int; available : int }
  | Size_exceeded of { limit : int; requested : int }
  | Invalid_bool of int32
  | Invalid_enum of int32
  | Invalid_union of int32
  | Invalid_padding
  | Trailing_bytes of int
  | Invalid_utf8
  | Negative_size of int

exception Error of error

let error_to_string = function
  | Truncated { wanted; available } ->
      Printf.sprintf "truncated input: wanted %d bytes, %d available" wanted
        available
  | Size_exceeded { limit; requested } ->
      Printf.sprintf "size limit exceeded: requested %d, limit %d" requested
        limit
  | Invalid_bool v -> Printf.sprintf "invalid boolean value %ld" v
  | Invalid_enum v -> Printf.sprintf "invalid enum discriminant %ld" v
  | Invalid_union v -> Printf.sprintf "invalid union discriminant %ld" v
  | Invalid_padding -> "non-zero padding bytes"
  | Trailing_bytes n -> Printf.sprintf "%d trailing bytes after decode" n
  | Invalid_utf8 -> "string is not valid UTF-8"
  | Negative_size n -> Printf.sprintf "negative size %d" n

let fail e = raise (Error e)

let padding_of n =
  match n land 3 with 0 -> 0 | r -> 4 - r

let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Xdr.Types.Error: %s" (error_to_string e))
    | _ -> None)
