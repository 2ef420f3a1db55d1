(** Statistical benchmark models: the stand-in for SPEC CPU2006.

    A benchmark is a cyclic schedule of {e phases}; each phase fixes an
    instruction mix (memory-operation ratio, store fraction), a base CPI
    for the non-memory pipeline, a memory-level-parallelism factor, and a
    set of {e regions} — address ranges accessed with given weights and
    patterns.  The region structure determines the stack-distance profile
    (and hence cache behaviour at every level); the phase schedule provides
    the time-varying behaviour MPPM's per-interval profiles are designed to
    capture (paper Sec. 2.1). *)

type pattern =
  | Uniform
      (** uniformly random lines within the region: working-set behaviour
          with a miss-rate knee at the region size *)
  | Sequential
      (** a streaming pointer advancing line by line, wrapping: classic
          streaming behaviour, no temporal reuse beyond the line *)
  | Strided of int
      (** pointer advancing by a fixed byte stride, wrapping: strided
          numeric kernels; stride below the line size yields spatial
          locality, above it behaves like a sparser stream *)

type region = {
  region_name : string;
  size_bytes : int;  (** footprint of the region *)
  weight : float;  (** relative probability of an access landing here *)
  region_pattern : pattern;
}

type phase = {
  phase_name : string;
  base_cpi : float;
      (** CPI of the non-memory pipeline (instruction delivery, execution,
          branches folded in: the paper's cores have perfect branch
          prediction) *)
  mem_ratio : float;  (** fraction of instructions that access data memory *)
  store_fraction : float;  (** fraction of data accesses that are stores *)
  mlp : float;
      (** memory-level parallelism: how many long-latency accesses overlap
          on average; divides the exposed stall of off-core accesses *)
  regions : region list;  (** must be non-empty with positive total weight *)
}

type t = {
  name : string;
  description : string;
  schedule : (phase * int) list;
      (** cyclic phase schedule: (phase, duration in instructions); total
          duration must be positive.  A single entry means a stationary
          benchmark. *)
  code_bytes : int;  (** static code footprint (cold code reachable) *)
  hot_code_bytes : int;
      (** the loop working set: fetches cycle through this region and hit
          L1I to the extent it fits; must not exceed [code_bytes] *)
  cold_fetch_rate : float;
      (** probability per fetched line of an excursion to a uniformly
          random line of the full code footprint (calls into cold code);
          models the front-end misses of big-code benchmarks *)
}

val validate : t -> unit
(** Raises [Invalid_argument] describing the first malformed field. *)

val schedule_period : t -> int
(** Total instructions of one pass through the phase schedule. *)

val data_footprint : t -> int
(** Largest total region footprint over the phases (bytes). *)

val mean_mem_ratio : t -> float
(** Schedule-weighted average memory-operation ratio. *)

val pp : Format.formatter -> t -> unit
(** One-line summary. *)
