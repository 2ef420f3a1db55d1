(** Drawing workload-mix populations.

    Two sampling regimes matter in the paper: {e current practice} draws a
    small number of random mixes (each core slot filled independently at
    random, possibly within categories), while {e MPPM-style evaluation}
    draws a very large sample.  Category-constrained mixes come from
    {!Category.random_mix}. *)

val random_mixes :
  Mppm_util.Rng.t -> cores:int -> count:int -> Mix.t array
(** [random_mixes rng ~cores ~count] draws [count] mixes over the suite,
    each slot independently uniform over the 29 benchmarks (duplicates
    across draws are possible, as in practice). *)

val distinct_random_mixes :
  Mppm_util.Rng.t -> cores:int -> count:int -> Mix.t array
(** Like {!random_mixes} but rejects duplicate mixes, drawing until [count]
    distinct ones exist.  Requires [count] not to exceed the population. *)
