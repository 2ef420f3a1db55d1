(** A set-associative LRU cache model, optionally way-partitioned.

    The model tracks only tags (no data), which is all a timing/contention
    study needs.  Every access reports its LRU-stack depth on a hit, so a
    single pass both simulates the cache and yields the stack-distance
    profile.

    Outcomes are int-coded so the per-access path allocates nothing: [0]
    is a miss and [d >= 1] a hit at 1-based recency depth [d] of the set
    ([1] = most recently used). *)

type t
(** A mutable cache instance. *)

val create : ?partition:int array -> Geometry.t -> t
(** [create ~partition geometry] is an empty (all-invalid) LRU cache.

    [partition], when given, way-partitions every set among owners:
    [partition.(o)] is owner [o]'s way quota.  An owner at or above its
    quota evicts its own LRU line; an owner below it steals the LRU line of
    an over-quota owner (global LRU if nobody is over).  Quotas must be
    positive and sum to at most the associativity.  Accesses then go
    through {!access_as}. *)

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
(** Total lookups since creation; {!restore} sets it to the saved count. *)

val hits : t -> int  (* mppm: unit accesses *)
(** Hits among {!accesses}. *)

val misses : t -> int  (* mppm: unit accesses *)
(** Misses among {!accesses}. *)

val resident_lines : t -> int  (* mppm: unit sets*ways *)
(** Number of currently valid lines (for occupancy assertions). *)

val save : t -> (int -> unit) -> unit
(** [save t put] hands the cache's whole state to [put], int by int: the
    three statistics, each set's valid-way count, the tags of every set in
    recency order and, when partitioned, the owner of every line.  That is
    [3 + sets + sets * ways] ints, plus [sets * ways] when partitioned. *)

val restore : t -> (unit -> int) -> unit
(** [restore t get] puts [t], a cache of the same geometry and partition,
    into a state {!save} produced, read through [get]. *)

