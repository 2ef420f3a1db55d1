(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    a xorshift128+ variant over native 63-bit integers (the simulators draw
    once or more per instruction block, so the core must not box), seeded
    through a splitmix-style mixer. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed]. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val save : t -> (int -> unit) -> unit
(** [save t put] hands the generator's state to [put], as two ints. *)

val restore : t -> (unit -> int) -> unit
(** [restore t get] sets [t] to a state {!save} produced, read through
    [get], so [t] goes on drawing exactly what the saved generator would
    have. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t].  Streams
    obtained by successive splits are statistically independent; use one
    split per benchmark / per experiment arm so that changing the number of
    draws in one arm does not perturb the others. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in t ~lo ~hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val bits53 : t -> int
(** [bits53 t] is the low 53 bits of the next draw, uniform in
    [\[0, 2^53)].  [float t bound] is
    [float_of_int (bits53 t) *. 0x1p-53 *. bound]; hot loops in other
    modules compute that product themselves so that no float crosses the
    module boundary (a boxed return value would allocate per draw). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from an exponential distribution. *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly random element of [a], which must be
    non-empty. *)

val pick_weighted : t -> weights:float array -> int
(** [pick_weighted t ~weights] is an index drawn with probability
    proportional to [weights.(i)].  Weights must be non-negative with a
    positive sum. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val sample_without_replacement : t -> n:int -> k:int -> int array
(** [sample_without_replacement t ~n ~k] is [k] distinct indices drawn
    uniformly from [\[0, n)], in random order.  Requires [k <= n]. *)
