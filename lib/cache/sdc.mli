(** Stack Distance Counters (Mattson et al. 1970), the per-program cache
    profile MPPM feeds to its contention model.

    For an A-way set-associative LRU cache an SDC holds A+1 counters
    C_1 ... C_A, C_{>A}: an access that hits at depth i of its set's LRU
    stack increments C_i; a miss increments C_{>A}.  Counters are floats so
    profiles can be scaled and merged without overflow concerns. *)

type t
(** An SDC histogram; immutable size (associativity), mutable counters. *)

val create : assoc:int -> t  (* mppm: unit assoc:ways -> sdc *)
(** [create ~assoc] is an all-zero SDC for an [assoc]-way cache. *)

val assoc : t -> int  (* mppm: unit ways *)
(** The associativity [A] this SDC was created for. *)

val record : t -> depth:int -> unit  (* mppm: unit _ -> depth:ways -> _ *)
(** [record t ~depth] increments the counter for an access that hit at
    1-based LRU depth [depth]; [depth > assoc t] (e.g. [max_int]) records a
    miss. *)

val counter : t -> int -> float  (* mppm: unit _ -> ways -> accesses *)
(** [counter t i] is C_i for [1 <= i <= assoc], and C_{>A} for
    [i = assoc + 1]. *)

val accesses : t -> float  (* mppm: unit accesses *)
(** Total accesses: sum of all counters, left to right. *)

val counters : t -> float array
(** The live counters C_1, ..., C_A, C_{>A}, not a copy: a write through
    the array changes [t].  For hot loops that accumulate SDCs in place
    without a float crossing a call (a float passed to or returned from a
    function in another module is boxed); keep every counter
    non-negative. *)

(** {2 Queries into float array cells}

    The [_into] forms store their answer in [dst.(i)] instead of returning
    a float, so they allocate nothing.  Each equals its returning form bit
    for bit. *)

val accesses_into : t -> float array -> int -> unit
(** [accesses_into t dst i] stores [accesses t] in [dst.(i)]. *)

val misses_into : t -> float array -> int -> unit
(** [misses_into t dst i] stores [misses t] in [dst.(i)]. *)

val misses_with_ways_into : t -> ways:float array -> float array -> int -> unit
(** [misses_with_ways_into t ~ways dst i] stores
    [misses_with_ways t ~ways:ways.(i)] in [dst.(i)]; [ways] and [dst]
    may be the same array. *)

val hits : t -> float  (* mppm: unit accesses *)
(** Accesses with depth <= associativity. *)

val misses : t -> float  (* mppm: unit accesses *)
(** The C_{>A} counter. *)

val miss_rate : t -> float  (* mppm: unit 1 *)
(** [misses / accesses]; 0 if there are no accesses. *)

val copy : t -> t  (* mppm: unit _ -> sdc *)
(** An independent SDC with the same counter values. *)

val add : t -> t -> t  (* mppm: unit _ -> _ -> sdc *)
(** [add a b] is the element-wise sum; both must have equal associativity.
    Summing per-interval SDCs is how MPPM builds the SDC for an arbitrary
    instruction window (paper Sec. 2.2). *)

val add_into : dst:t -> t -> unit
(** In-place accumulate. *)

val scale : t -> float -> t  (* mppm: unit _ -> 1 -> sdc *)
(** [scale t k] multiplies every counter by [k]; used to take a fractional
    part of an interval's SDC when an instruction window cuts an interval. *)

val reduce_associativity : t -> assoc:int -> t  (* mppm: unit _ -> assoc:ways -> sdc *)
(** [reduce_associativity t ~assoc] derives the SDC the same access stream
    would produce on a cache of lower associativity with the same set count:
    counters beyond the new depth fold into the miss counter (inclusion
    property of LRU).  This is the paper's Sec. 2 parenthetical — profiling
    once at 16 ways serves 8-way studies for free.  Requires
    [assoc <= assoc t]. *)

val misses_with_ways : t -> ways:float -> float  (* mppm: unit _ -> ways:ways -> accesses *)
(** [misses_with_ways t ~ways] is the miss count if the program only owned
    [ways] ways of each set, interpolated linearly between integer depths.
    [ways >= assoc t] gives [misses t]; [ways = 0.] means every access
    misses.  This is the FOA contention model's core query. *)

val to_list : t -> float list
(** Counters in order C_1, ..., C_A, C_{>A}. *)

val of_list : assoc:int -> float list -> t
(** Inverse of {!to_list}; the list must have length [assoc + 1]. *)

val pp : Format.formatter -> t -> unit
(** Compact one-line rendering of the counters. *)
