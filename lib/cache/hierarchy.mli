(** The private portion of a core's cache hierarchy plus its (possibly
    shared) last-level cache, with the latency model of the paper's Table 1:
    L1 I/D 1 cycle, private L2 10 cycles, shared L3 per Table 2, memory 200
    cycles.

    One {!t} exists per core.  In single-core runs the LLC is owned; in the
    detailed multi-core simulator one LLC {!Cache.t} is created and every
    core's hierarchy is built around it with [~llc]. *)

type level = {
  geometry : Geometry.t;
  latency : int;  (* mppm: unit cycles *)
}
(** One cache level: geometry plus access latency in cycles. *)

type config = {
  l1i : level;
  l1d : level;
  l2 : level;
  llc : level;
  memory_latency : int;  (* mppm: unit cycles *)
}
(** Full hierarchy parameters. *)

type access_kind = Fetch | Load | Store
(** Instruction fetch vs. data read vs. data write. *)

type t
(** One core's view of the hierarchy. *)

val create :
  ?llc:Cache.t -> ?llc_owner:int -> ?perfect_llc:bool -> config -> t
(** [create ?llc ?llc_owner ?perfect_llc config] builds the hierarchy.
    [llc], if given, is the shared LLC instance (its geometry must match
    [config.llc.geometry]); [llc_owner] (default 0) is the owner identity
    this core presents to a way-partitioned shared LLC.  [perfect_llc]
    (default [false]) makes every access that reaches the LLC hit — the
    paper's "perfect LLC" run used to isolate the memory CPI component. *)

val config : t -> config
(** The parameters this hierarchy was built from. *)

val llc : t -> Cache.t
(** The (possibly shared) last-level cache instance. *)

val access : t -> kind:access_kind -> addr:int -> int  (* mppm: unit _ *)
(** Simulates the access through L1 (instruction or data side per [kind]),
    then L2, then LLC, then memory, and returns the level code of where it
    was satisfied: [0] = L1, [1] = L2, [2] = LLC, [3] = memory (an LLC
    miss).  The LLC's own outcome is left in {!llc_depth}.  Nothing is
    allocated per access. *)

val llc_depth : t -> int  (* mppm: unit ways *)
(** The LLC outcome code of the latest {!access}: [-1] if it never reached
    the LLC, [0] if it missed there, [d >= 1] if it hit at recency depth
    [d] (always [1] under [perfect_llc]).  This is what profilers
    histogram into stack-distance counters. *)

val level_latency : config -> kind:access_kind -> int -> int  (* mppm: unit _ -> kind:_ -> _ -> cycles *)
(** [level_latency config ~kind level] is the latency in cycles of an
    access of [kind] satisfied at level code [level] (as returned by
    {!access}); memory costs the LLC latency plus [memory_latency]. *)

val llc_accesses : t -> int  (* mppm: unit accesses *)
(** LLC lookups issued by this core's hierarchy. *)

val llc_misses : t -> int  (* mppm: unit accesses *)
(** LLC misses suffered by this core's hierarchy (0 under [perfect_llc]). *)

val counters : t -> (string * float) list
(** Per-level aggregate counters as observability pairs:
    [l1i.*]/[l1d.*]/[l2.*] from the private caches' statistics, plus this
    core's own [llc.accesses]/[llc.hits]/[llc.misses] (correct even when
    the LLC instance is shared).  Ready for
    [Mppm_obs.Registry.add_all]. *)

val pp_config : Format.formatter -> config -> unit
(** Human-readable rendering of a hierarchy configuration. *)
