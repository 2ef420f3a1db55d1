(** Counting and drawing multi-program workload mixes.

    A mix of [m] programs drawn from [n] benchmarks (order irrelevant,
    repetition allowed) is a multiset: there are C(n+m-1, m) of them.  The
    paper's introduction counts 435 dual-core, 35,960 quad-core and more
    than 30.2 million eight-core mixes for 29 SPEC CPU2006 benchmarks. *)

val binomial : int -> int -> float
(** [binomial n k] is the binomial coefficient C(n, k) as a float (exact for
    values representable in 53 bits).  Returns [0.] when [k < 0] or
    [k > n]. *)

val multisets_count : n:int -> m:int -> float
(** [multisets_count ~n ~m] is the number of size-[m] multisets over [n]
    elements: C(n+m-1, m). *)

val random_selection_with_repetition : Rng.t -> n:int -> m:int -> int array
(** [random_selection_with_repetition rng ~n ~m] draws [m] elements
    independently and uniformly from [\[0, n)] and sorts them: the
    distribution over *multisets* that arises when an architect picks each
    slot of the mix at random, which is how "random workload mixes" are
    built in current practice (and in this paper). *)
