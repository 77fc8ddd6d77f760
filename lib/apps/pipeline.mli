(** Pipeline-depth ablation: the same upload+launch workload executed
    synchronously (one blocking RPC per call) and through the {!Cricket.Stream}
    command queue at several pipeline depths.

    Each round uploads a deterministic input vector and launches saxpy
    into an accumulator; the async variant synchronizes only every [depth]
    rounds, so [depth] rounds' worth of one-way RPCs share one network
    round trip. The final accumulator digest must be identical across all
    modes — stream ordering preserves the synchronous semantics exactly
    (device memory effects are applied eagerly in submission order). *)

type mode = Sync | Async of int  (** depth between synchronize points *)

val mode_name : mode -> string

type params = { rounds : int; elements : int  (** f32s per vector *) }

val default : params
(** 64 rounds of 4096-element (16 KiB) vectors. *)

type result = {
  mode : mode;
  rounds : int;
  elapsed : Simnet.Time.t;  (** virtual time for the measured loop *)
  api_calls : int;
  calls_per_s : float;  (** modeled API-call throughput *)
  digest : string;  (** MD5 of the final accumulator (bit-exactness) *)
}

val measure : ?params:params -> mode -> Unikernel.Config.t -> result
(** Fresh engine + server + client per call, so modes don't share clocks. *)
