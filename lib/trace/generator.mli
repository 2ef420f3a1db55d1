(** Turns a {!Benchmark.t} spec into a deterministic instruction/reference
    stream.

    Two generators created with the same seed and offset produce identical
    streams, which is what lets the single-core profiling runs and the
    detailed multi-core simulations observe the same program (paper: same
    1B-instruction SimPoint trace everywhere).

    The data stream is delivered as {!Op.t} blocks via {!next}; the
    instruction-fetch stream is delivered line by line via {!next_fetch}
    (the simulator issues one fetch per [instructions_per_fetch] retired
    instructions). *)

type t
(** A generator: the benchmark spec plus its RNG streams and cursors. *)

val instructions_per_fetch : int
(** Retired instructions covered by one fetched line (64B line / ~4B per
    x86-ish instruction = 16). *)

val create : ?offset:int -> seed:int -> Benchmark.t -> t
(** [create ~offset ~seed benchmark] validates the benchmark and builds a
    fresh generator.  [offset] (default 0) displaces the whole address
    space; the multi-core simulator gives each co-running program a
    distinct, page-randomized offset so independent programs never share
    lines yet still conflict in the shared cache's sets. *)

val benchmark : t -> Benchmark.t
(** The spec this generator was created from. *)

val retired : t -> int
(** Instructions retired through {!next} so far. *)

val next : t -> cap:int -> Op.t
(** [next t ~cap] produces the next block, retiring at most [cap]
    instructions ([cap >= 1]).  Blocks never span a phase boundary, so the
    caller can cut profile intervals exactly.  A wrapper over {!emit} that
    packages the block as an {!Op.t}. *)

val emit : t -> cap:int -> int  (* mppm: unit _ -> cap:insns -> insns *)
(** [emit t ~cap] produces the same block {!next} would and returns its
    instruction count, leaving its data reference in {!emitted_kind} and
    {!emitted_addr} instead of allocating an {!Op.t}: the simulator's
    per-block path. *)

val emitted_kind : t -> int  (* mppm: unit _ -- access-kind code *)
(** Access code of the latest {!emit}ted block: [0] = pure compute,
    [1] = ends in a load, [2] = ends in a store. *)

val emitted_addr : t -> int  (* mppm: unit bytes *)
(** Byte address of the latest {!emit}ted block's data reference; only
    meaningful when {!emitted_kind} is nonzero. *)

val next_fetch : t -> int
(** The next instruction-cache line (byte address) touched by the fetch
    stream: sequential within the code footprint with occasional jumps. *)

val current_phase : t -> Benchmark.phase
(** The phase the next instruction belongs to. *)

val address_space_bytes : t -> int
(** Bytes of address space spanned (code + all regions, page aligned),
    before the offset is applied. *)
