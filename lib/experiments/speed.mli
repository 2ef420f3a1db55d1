(** Sec. 4.3: MPPM speed versus detailed simulation.

    The paper: single-core profiling costs ~1 hour per benchmark (one-time);
    MPPM then predicts a mix in sub-second time while detailed simulation of
    an 8-core mix takes ~12 hours — up to five orders of magnitude.  At our
    scale both sides shrink by the same trace factor, so the {e ratios} are
    the reproducible quantity. *)

type t = {
  profile_seconds : float;  (** wall seconds per single-core profiling run *)  (* mppm: unit seconds *)
  one_time_cost_seconds : float;  (** profiling the whole 29-benchmark suite *)  (* mppm: unit seconds *)
  detailed_seconds_per_mix : (int * float) list;
      (** (cores, wall seconds) per detailed multi-core simulation *)
  mppm_seconds_per_mix : float;  (* mppm: unit seconds *)
  speedup_model_only : (int * float) list;
      (** (cores, detailed/MPPM) once profiles exist *)
  speedup_study_150 : (int * float) list;
      (** (cores, speedup) for a 150-mix study including the one-time
          profiling cost — the paper's 62x number for 8 cores *)
}

val measure : Context.t -> clock:(unit -> float) -> t
(** [measure ctx ~clock] times a fresh profiling run, 3 detailed
    simulations per core count (2, 4 and 8) and 50 MPPM predictions.
    [clock] returns seconds; the caller injects it (e.g.
    [Unix.gettimeofday] for the wall seconds reported here) so lib/ never
    reads a clock itself. *)

val pp : Format.formatter -> t -> unit
(** The Sec. 4.3 timing table: costs, then speedups per core count. *)
