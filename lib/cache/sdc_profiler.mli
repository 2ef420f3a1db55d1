(** Per-interval stack-distance profiling of an access stream.

    Drives a private LRU image of the target cache and histograms every
    access's LRU depth into the current interval's {!Sdc.t}.  The
    single-core profiling run cuts an interval every 20M instructions
    (scaled), producing the per-interval SDCs MPPM consumes. *)

type t
(** A profiler: a private cache image plus the interval in progress. *)

val create : Geometry.t -> t  (* mppm: unit _ -> profiler *)
(** [create geometry] profiles a cache of the given geometry (always LRU:
    stack distances are defined against the LRU stack).  The private cache
    image is allocated on the first {!access}, so a profiler fed only
    through {!record} costs no cache memory. *)

val access : t -> int -> int  (* mppm: unit _ -> _ -> ways *)
(** [access t addr] simulates the access, records its depth in the current
    interval, and reports the {!Cache.access} outcome code ([0] = miss,
    [d >= 1] = hit at depth [d]). *)

val record : t -> int -> unit  (* mppm: unit _ -> ways -> _ *)
(** [record t code] histograms an outcome code ([0] = miss, [d >= 1] = hit
    at depth [d]) observed on an *external* cache of the same geometry,
    without touching the internal image.  Used when the profiled cache is
    simulated elsewhere. *)

val cut_interval : t -> Sdc.t  (* mppm: unit sdc *)
(** [cut_interval t] returns the SDC accumulated since the previous cut
    (or creation) and starts a fresh interval. *)

val current : t -> Sdc.t  (* mppm: unit sdc *)
(** The (live) SDC of the interval in progress.  The returned value aliases
    internal state; copy it if you need a snapshot. *)

val lifetime_total : t -> Sdc.t  (* mppm: unit sdc *)
(** Sum over all completed intervals plus the current one. *)
