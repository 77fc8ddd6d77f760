(** Exhaustive shortest-program superoptimizer — the fleet-scale workload.

    A tiny accumulator ISA over unsigned bytes (8 opcodes: INC, DEC, NOT,
    NEG, SHL, SHR, ROL, SWAP) and a specification given as a 256-entry
    truth table. The search enumerates every program of length 1, 2, … up
    to a bound, in index order, and returns the first (therefore shortest,
    lowest-numbered) program whose behaviour matches the table on all 256
    inputs — classic superoptimization, in the spirit of exhaustive
    Z80/6502 sequence searches.

    Candidates are evaluated on the GPU fleet: each batch of consecutive
    candidate indices is one kernel launch ([superoptKernel]), routed to a
    compatible device by {!Fleet.Cluster}; the kernel interprets each
    candidate against the truth table and writes a per-candidate match
    flag. A search at length 6 evaluates 8^1 + … + 8^6 = 299,592 candidate
    programs — hundreds of launches of thousands of simulated kernel
    threads each, which is what gives the fleet benchmark its load. *)

val program_to_string : int list -> string

val table_of_program : int list -> bytes
(** The 256-entry truth table a reference program induces — the spec. *)

val kernel_name : string
(** ["superoptKernel"], registered in {!Gpusim.Kernels} at module init.
    Params: [Ptr table; Ptr flags; I64 base; I32 batch; I32 len]. Thread
    [c] interprets candidate [base+c] of length [len] against the
    256-entry table at [table] and writes [flags+c] ← 1 on a full match.
    The cost model charges the full 256-input interpretation per thread
    (warps do not early-exit), so virtual cost is data-independent. *)

val fatbin : archs:(int * int) list -> unit -> string
(** A serialized fat binary carrying the superopt kernel for each listed
    compute capability — what a build system targeting the fleet's
    architectures would emit. *)

type spec = { spec_name : string; reference : int list }
(** A search problem: find the shortest program equivalent to
    [reference]. *)

val demo_specs : spec list
(** Searches with known shorter answers: [NOT;INC] (two's complement, ≡
    NEG), [ROL;ROL;ROL;ROL] (≡ SWAP), and longer sequences that force the
    search through full levels. *)

type search_result = {
  program : int list option;  (** shortest equivalent, if found in bound *)
  candidates : int;  (** candidate programs evaluated (kernel threads) *)
  launches : int;  (** kernel launches issued to the fleet *)
}

val search :
  cluster:Fleet.Cluster.t ->
  ?batch:int ->
  max_len:int ->
  spec ->
  (search_result, Fleet.Cluster.error) result
(** Run the exhaustive search on the fleet: loads {!fatbin} built for the
    fleet's own architectures, uploads the spec table to every eligible
    device, then sweeps each length level in batches of [batch] (default
    256) candidates per launch, with a fleet barrier between levels. Every
    reported match is re-verified host-side against the full table. *)
