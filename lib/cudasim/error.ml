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

let code = function
  | Success -> 0
  | Invalid_value -> 1
  | Memory_allocation -> 2
  | Invalid_device -> 101
  | Invalid_handle -> 400
  | Not_found -> 500
  | Not_ready -> 600
  | Launch_failure -> 719
  | Unknown -> 999

let of_code = function
  | 0 -> Success
  | 1 -> Invalid_value
  | 2 -> Memory_allocation
  | 101 -> Invalid_device
  | 400 -> Invalid_handle
  | 500 -> Not_found
  | 600 -> Not_ready
  | 719 -> Launch_failure
  | _ -> Unknown

let to_string = function
  | Success -> "cudaSuccess"
  | Invalid_value -> "cudaErrorInvalidValue"
  | Memory_allocation -> "cudaErrorMemoryAllocation"
  | Invalid_device -> "cudaErrorInvalidDevice"
  | Invalid_handle -> "cudaErrorInvalidResourceHandle"
  | Not_found -> "cudaErrorNotFound"
  | Not_ready -> "cudaErrorNotReady"
  | Launch_failure -> "cudaErrorLaunchFailure"
  | Unknown -> "cudaErrorUnknown"

exception Cuda_error of t

let () =
  Printexc.register_printer (function
    | Cuda_error e -> Some ("Cudasim.Error.Cuda_error: " ^ to_string e)
    | _ -> None)

let check = function Success -> () | e -> raise (Cuda_error e)
