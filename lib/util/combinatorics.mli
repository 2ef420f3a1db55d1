(** Counting and enumerating multi-program workload mixes.

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

val enumerate_multisets : n:int -> m:int -> int array list
(** [enumerate_multisets ~n ~m] lists every size-[m] multiset over
    [\[0, n)], each as a sorted (non-decreasing) index array, in
    lexicographic order.  Intended for small populations (e.g. all 435
    two-program mixes); raises [Invalid_argument] if the count exceeds
    10 million. *)

val random_multiset : Rng.t -> n:int -> m:int -> int array
(** [random_multiset rng ~n ~m] draws uniformly from all C(n+m-1, m)
    multisets (not by sampling elements independently, which would bias
    toward mixes with repeats ordered differently).  Result is sorted. *)

val random_selection_with_repetition : Rng.t -> n:int -> m:int -> int array
(** [random_selection_with_repetition rng ~n ~m] draws [m] elements
    independently and uniformly from [\[0, n)] and sorts them: the
    distribution over *multisets* that arises when an architect picks each
    slot of the mix at random, which is how "random workload mixes" are
    built in current practice (and in this paper). *)

val rank_multiset : n:int -> int array -> float
(** [rank_multiset ~n mix] is the lexicographic rank of the sorted multiset
    [mix] among all multisets of its size over [n] elements; inverse of
    {!unrank_multiset}. *)

val unrank_multiset : n:int -> m:int -> float -> int array
(** [unrank_multiset ~n ~m r] is the sorted multiset of rank [r] (0-based)
    among all C(n+m-1, m) multisets.  Used to sample uniformly without
    materializing the population. *)
