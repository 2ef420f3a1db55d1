(** The out-of-order core timing abstraction shared by the single-core and
    multi-core simulators.

    The paper's CMP$im cores (Table 1: 4-wide, 8-stage, 128-entry ROB,
    perfect branch prediction) are modelled as a base CPI for the
    non-memory pipeline plus an exposed-stall model for the memory
    hierarchy: an access that hits level X exposes a level-dependent
    fraction of X's latency (the rest is hidden by out-of-order execution),
    and off-core accesses are further divided by the workload's
    memory-level parallelism.  Both simulators use exactly this model, so
    the "detailed" reference and MPPM's single-core inputs are mutually
    consistent — the same relationship CMP$im has to itself in the paper. *)

type params = {
  width : int;  (** pipeline width (descriptive; Table 1: 4) *)  (* mppm: unit insns/cycles *)
  rob_entries : int;  (** ROB size (descriptive; Table 1: 128) *)
  l2_exposure : float;  (* mppm: unit 1 *)
      (** fraction of an L2 hit's extra latency the core cannot hide *)
  llc_exposure : float;  (** same for LLC hits *)  (* mppm: unit 1 *)
  memory_exposure : float;  (** same for memory accesses (LLC misses) *)  (* mppm: unit 1 *)
  fetch_exposure : float;  (* mppm: unit 1 *)
      (** fraction of miss latency exposed on the fetch path (front-end
          stalls are harder to hide than data stalls) *)
}

val default : params  (* mppm: unit params *)
(** Calibrated defaults for the Table 1 core. *)

(** Exposed-stall numerators per hierarchy level code
    ({!Mppm_cache.Hierarchy.access}: [0] = L1 ... [3] = memory), computed
    once per core.  An access that hits level X exposes a fraction of X's
    latency beyond the pipelined L1 hit: [exposure * (latency - 1)].  L1
    hits stall nothing (their latency is folded into the base CPI). *)
type stalls = {
  data : float array;  (* mppm: unit cycles *)
      (** data-access numerators by level code.  The off-core entries
          (LLC, memory: codes 2 and 3) are divided by the phase's
          memory-level parallelism at use; L2 stalls are not. *)
  fetch : float array;  (* mppm: unit cycles *)
      (** instruction-fetch stalls by level code (never divided by MLP:
          front-end stalls are harder to hide) *)
  fetch_miss_extra : float;  (* mppm: unit cycles *)
      (** the part of a fetch's memory stall an LLC hit would not have
          suffered: [fetch_exposure * memory_latency] *)
}

val stalls : params -> Mppm_cache.Hierarchy.config -> stalls  (* mppm: unit stalls *)
(** [stalls params config] precomputes the numerators for a core with
    [params] in front of [config].  The memory-CPI counter (Eyerman et
    al.) charges a data access that missed the LLC
    [data.(3) /. mlp -. data.(2) /. mlp] beyond what an LLC hit would have
    cost; by construction that equals the two-run (perfect-vs-real LLC)
    difference. *)

val pp : Format.formatter -> params -> unit
(** Human-readable rendering of the core parameters. *)
