(** The co-phase matrix method (Van Biesbrouck et al., ISPASS 2004), built
    as a related-work baseline.

    Idea: a mix's execution decomposes into {e co-phases} — combinations of
    the programs' current phases.  Each co-phase's per-program rates are
    measured {e once} with a short detailed simulation window and cached in
    a matrix; the mix's overall execution is then reconstructed
    analytically by walking the phase schedules, drawing rates from the
    matrix.  This saves a lot of detailed simulation compared to a full
    run, but (the paper's Sec. 7 point) the matrix is built {e per mix}:
    unlike MPPM, the method still needs detailed co-simulation windows for
    every new workload combination, so it cannot address the population
    explosion. *)

type config = {
  hierarchy : Mppm_cache.Hierarchy.config;
  window_instructions : int;  (* mppm: unit insns *)
      (** instructions (per program) of the detailed window used to measure
          one co-phase's rates; measurement runs 2x this and keeps the warm
          second half, so cold caches do not bias the rates *)
}

val config :  (* mppm: unit config *)
  ?window_instructions:int ->
  Mppm_cache.Hierarchy.config ->
  config
(** Default window: 100K instructions. *)

type program_spec = {
  benchmark : Mppm_trace.Benchmark.t;
  seed : int;  (* mppm: unit 1 *)
  offset : int;  (* mppm: unit bytes *)
}
(** One co-scheduled program: its benchmark, workload seed and starting
    instruction offset. *)

type result = {
  cpi_multi : float array;  (* mppm: unit cycles/insns *)
      (** predicted multi-core CPI over each program's first
          [trace_instructions] instructions *)
  cycles : float array;  (** predicted completion cycle per program *)  (* mppm: unit cycles *)
  co_phases_measured : int;  (** distinct matrix entries filled *)
  detailed_instructions : int;  (* mppm: unit insns *)
      (** total instructions of detailed simulation spent building the
          matrix — the method's cost *)
}

type t
(** A co-phase matrix bound to one mix. *)

val create : config -> programs:program_spec array -> t
(** An empty matrix for the given mix; entries fill on demand during
    {!predict}. *)

val predict : t -> trace_instructions:int -> result  (* mppm: unit _ -> trace_instructions:insns -> result *)
(** [predict t ~trace_instructions] walks the phase schedules, measuring
    co-phases on demand, and reconstructs per-program completion times.
    Matrix entries persist across calls (more traces reuse the matrix). *)

val matrix_size : t -> int
(** Co-phases measured so far. *)
