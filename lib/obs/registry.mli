(** The process-wide metrics registry: one global table of named,
    float-valued counters.

    Instrumentation points that have no natural handle to thread (profile
    cache hits, end-of-run simulator aggregates) accumulate here.  Writes
    happen only at coarse boundaries — per profile load, per simulation
    end — never inside per-access hot loops, and reads never feed back
    into the model, so the registry cannot perturb results.  Counter
    names are dotted, e.g. ["profile_cache.hits"],
    ["simcore.llc.misses"]. *)

val add : string -> float -> unit
(** Accumulate onto a named counter (creating it at 0).  Raises
    [Invalid_argument "Registry.add: ..."] on a non-finite delta. *)

val incr : string -> unit
(** Add 1 to a named counter. *)

val add_all : prefix:string -> (string * float) list -> unit
(** [add_all ~prefix pairs] accumulates each [(name, v)] onto
    ["prefix.name"]. *)

val get : string -> float
(** Current value; 0 when never touched. *)

val snapshot_prefix : string -> (string * float) list
(** Counters whose name starts with ["prefix."], sorted. *)

val reset : unit -> unit
(** Clear the registry (tests). *)
