(** One core executing one program against a cache hierarchy: the engine
    shared by the single-core profiler and the detailed multi-core
    simulator.

    The engine pulls blocks from a generator ({!Mppm_trace.Generator.emit}),
    charges base CPI for every retired instruction, issues one instruction
    fetch per {!Mppm_trace.Generator.instructions_per_fetch} instructions,
    sends
    data references through the hierarchy, and accounts exposed stalls per
    {!Core_model}.  It additionally maintains a memory-CPI counter in the
    style of Eyerman et al.'s CPI-stack counter architecture: every access
    that misses the LLC adds the stall it suffered {e beyond} what an LLC
    hit would have cost.

    The per-block path allocates nothing: cache outcomes and hierarchy
    levels come back as int codes, the generator leaves each block in its
    own fields, and the cycle counters live in an all-float {!clock}. *)

type t
(** A core bound to its generator and hierarchy, with running counters. *)

type clock = private {
  mutable cycles : float;  (** total cycles consumed *)  (* mppm: unit cycles *)
  mutable memory_stall_cycles : float;  (* mppm: unit cycles *)
      (** cycles attributed to LLC misses by the counter architecture *)
}
(** The engine's running cycle counters, updated in place by {!step}.
    Reading a field is a plain load with no call and no boxing, which is
    how the multi-core scheduler compares the cores' clocks per op. *)

val create :
  ?sdc_profiler:Mppm_cache.Sdc_profiler.t ->
  ?memory_channel:Memory_channel.t ->
  ?compute_scale:float ->
  params:Core_model.params ->
  hierarchy:Mppm_cache.Hierarchy.t ->
  generator:Mppm_trace.Generator.t ->
  unit ->
  t
(** [create ~sdc_profiler ~memory_channel ~params ~hierarchy ~generator ()]
    wires a core.  If [sdc_profiler] is given, the LLC outcome of every
    access (data and fetch) is recorded into it — this is how single-core
    profiling collects SDCs without a second cache image.  If
    [memory_channel] is given, every LLC miss requests the channel and its
    queueing delay is exposed like the rest of the miss latency (shared
    channels model bandwidth contention; a private channel models a
    program's self-queueing).

    [compute_scale] (default 1.0) models a heterogeneous "little" core: it
    multiplies every cycle cost {e except} the LLC-miss-attributable stall
    (off-chip latency does not change with core strength).  This matches
    the profile transformation little cores get on the MPPM side: compute
    cycles scale, memory-stall cycles do not. *)

val step : t -> cap:int -> int  (* mppm: unit cap:insns -> insns *)
(** [step t ~cap] executes the next op block, retiring at most [cap]
    instructions, and returns the number retired.  Advances the cycle and
    counter state. *)

val retired : t -> int  (* mppm: unit insns *)
(** Total instructions retired. *)

val hierarchy : t -> Mppm_cache.Hierarchy.t
(** The hierarchy this core drives, e.g. for
    {!Mppm_cache.Hierarchy.counters} observability snapshots. *)

val clock : t -> clock
(** The live counters of this core (aliases the engine's state). *)

val cycles : t -> float  (* mppm: unit cycles *)
(** Total cycles consumed. *)

val memory_stall_cycles : t -> float  (* mppm: unit cycles *)
(** Cycles attributed to LLC misses by the counter architecture. *)

val llc_accesses : t -> int  (* mppm: unit accesses *)
(** LLC lookups issued by this core. *)

val llc_misses : t -> int  (* mppm: unit accesses *)
(** LLC misses suffered by this core. *)

(** Snapshot of the running counters, used to compute per-interval or
    per-pass deltas. *)
type snapshot = {
  s_retired : int;
  s_cycles : float;
  s_memory_stall_cycles : float;
  s_llc_accesses : int;
  s_llc_misses : int;
}

val snapshot : t -> snapshot  (* mppm: unit snapshot *)
(** The counters as of now. *)

val since : t -> snapshot -> snapshot  (* mppm: unit snapshot *)
(** [since t s] is the counter delta between now and snapshot [s]. *)
