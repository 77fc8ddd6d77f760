(** Port of the CUDA-samples bandwidthTest (Fig. 7).

    Measures host↔device memory transfer bandwidth through the Cricket
    RPC-argument path. The paper's configuration moves 512 MiB per
    direction; we stream it in 64 MiB chunks (per-byte behaviour on the
    RPC-args path is identical, and it bounds host RAM). *)

type direction = Host_to_device | Device_to_host

val direction_to_string : direction -> string

type result = {
  direction : direction;
  bytes : int;
  elapsed : Simnet.Time.t;
  mib_per_s : float;
}

val measure :
  ?total_bytes:int ->
  ?chunk_bytes:int ->
  direction ->
  Unikernel.Runner.env ->
  result
(** Defaults: 512 MiB total in 64 MiB chunks. *)

val run : Unikernel.Runner.env -> result * result
(** Round-trips a pattern and checks its integrity, then measures both
    directions (H2D, D2H) at the defaults. *)
