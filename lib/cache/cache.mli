(** A set-associative cache model with pluggable replacement.

    The model tracks only tags (no data), which is all a timing/contention
    study needs.  Every access reports its LRU-stack depth on a hit, so a
    single pass both simulates the cache and yields the stack-distance
    profile.

    Outcomes are int-coded so the per-access path allocates nothing: [0]
    is a miss and [d >= 1] a hit at 1-based recency depth [d] of the set
    ([1] = most recently used).  For non-LRU policies the depth is still
    the recency depth, maintained alongside the policy. *)

type t
(** A mutable cache instance. *)

val create : ?policy:Replacement.t -> ?partition:int array -> Geometry.t -> t
(** [create ~policy ~partition geometry] is an empty (all-invalid) cache.
    Default policy is {!Replacement.Lru}.

    [partition], when given, way-partitions every set among owners:
    [partition.(o)] is owner [o]'s way quota.  An owner at or above its
    quota evicts its own LRU line; an owner below it steals the LRU line of
    an over-quota owner (global LRU if nobody is over).  Quotas must be
    positive and sum to at most the associativity; partitioning requires
    the LRU policy.  Accesses then go through {!access_as}. *)

val geometry : t -> Geometry.t
(** The geometry this cache was created with. *)

val access : t -> int -> int  (* mppm: unit ways *)
(** [access t addr] looks up the line containing byte address [addr],
    updates replacement state, fills the line on a miss, and updates the
    statistics counters.  Returns the outcome code: [0] on a miss, the hit
    depth otherwise.  Equivalent to [access_as t ~owner:0 addr]. *)

val access_as : t -> owner:int -> int -> int  (* mppm: unit ways *)
(** [access_as t ~owner addr] is {!access} on behalf of [owner] (a core
    index); only meaningful for partitioned caches, where the owner selects
    the victim policy described at {!create}.  [owner] must be within the
    partition array when one exists. *)

val owner_lines : t -> owner:int -> int  (* mppm: unit sets*ways *)
(** Number of currently valid lines inserted by [owner] (0 for
    unpartitioned caches unless owner is 0). *)

val probe : t -> int -> bool
(** [probe t addr] is [true] iff the line is present; no state change. *)

val accesses : t -> int  (* mppm: unit accesses *)
(** Total lookups since creation or the last {!reset_stats}. *)

val hits : t -> int  (* mppm: unit accesses *)
(** Hits among {!accesses}. *)

val misses : t -> int  (* mppm: unit accesses *)
(** Misses among {!accesses}. *)

val miss_rate : t -> float  (* mppm: unit 1 *)
(** Misses over accesses; 0 if no accesses. *)

val reset_stats : t -> unit
(** Clears the statistics counters, keeping cache contents. *)

val clear : t -> unit
(** Invalidates every line and clears statistics. *)

val resident_lines : t -> int  (* mppm: unit sets*ways *)
(** Number of currently valid lines (for occupancy assertions). *)

val save : t -> (int -> unit) -> unit
(** [save t put] hands the cache's whole state (contents, replacement
    state and statistics) to [put], int by int. *)

val restore : t -> (unit -> int) -> unit
(** [restore t get] puts [t], a cache of the same geometry, policy and
    partition, into a state {!save} produced, read through [get]. *)

