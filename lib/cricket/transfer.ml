type t =
  | Rpc_arguments
  | Parallel_tcp of int
  | Infiniband_rdma
  | Shared_memory

exception Unsupported of { strategy : t; reason : string }

let to_string = function
  | Rpc_arguments -> "rpc-arguments"
  | Parallel_tcp n -> Printf.sprintf "parallel-tcp(%d)" n
  | Infiniband_rdma -> "infiniband-rdma"
  | Shared_memory -> "shared-memory"

let () =
  Printexc.register_printer (function
    | Unsupported { strategy; reason } ->
        Some
          (Printf.sprintf "Cricket.Transfer.Unsupported(%s): %s"
             (to_string strategy) reason)
    | _ -> None)

let supported_by_unikernel = function
  | Rpc_arguments -> true
  | Parallel_tcp _ | Infiniband_rdma | Shared_memory -> false

let check_available ~unikernel strategy =
  match strategy with
  | _ when not unikernel -> ()
  | Rpc_arguments -> ()
  | Parallel_tcp _ ->
      raise
        (Unsupported
           { strategy;
             reason = "unikernel network stacks are single-queue; no \
                       multithreaded transfers" })
  | Infiniband_rdma ->
      raise
        (Unsupported
           { strategy; reason = "no InfiniBand drivers in the unikernel" })
  | Shared_memory ->
      raise
        (Unsupported
           { strategy;
             reason = "no shared memory between host and unikernel guest" })

(* How many times each payload byte is staged between the application
   buffer and the NIC (tx) under each strategy, now that the RPC-arguments
   path is scatter-gather: the XDR/record layers pass views and the
   transport performs the single staging copy. Matches the DESIGN.md
   datapath table; the paper's §4.2 offload discussion is exactly about
   losing this property in unikernels. *)
let staging_copies = function
  | Rpc_arguments -> 1 (* one transport copy; XDR + record marking are zero-copy *)
  | Parallel_tcp _ -> 2 (* per-connection split staging plus transport copy *)
  | Infiniband_rdma -> 0 (* HCA reads the registered buffer directly *)
  | Shared_memory -> 0 (* peer maps the same pages *)

let bandwidth_multiplier = function
  | Rpc_arguments -> 1.0
  | Parallel_tcp n ->
      (* staging buffer still serializes; diminishing returns past 4 *)
      let n = Float.of_int (max 1 n) in
      Float.min 3.2 (1.0 +. (0.75 *. (n -. 1.0) /. (1.0 +. (0.25 *. (n -. 1.0)))))
  | Infiniband_rdma -> 4.5 (* wire-rate, no staging copy *)
  | Shared_memory -> 6.0
