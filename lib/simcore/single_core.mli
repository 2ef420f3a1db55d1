(** Single-core simulation: isolated runs and MPPM profile collection
    (paper Sec. 2.1, the "one-time cost" box of Fig. 1).

    The profiling run executes the benchmark alone on the full hierarchy
    and records, per interval: cycles, the memory-CPI counter, LLC
    accesses/misses, and the LLC stack-distance counters. *)

type run_config = {
  hierarchy : Mppm_cache.Hierarchy.config;
  core : Core_model.params;
  perfect_llc : bool;
      (** make every LLC access hit: the paper's alternative way of
          isolating the memory CPI component (two-run method) *)
  bandwidth : float option;  (* mppm: unit cycles *)
      (** cycles of memory-channel occupancy per line transfer; [Some _]
          gives the isolated run a private channel so its profile carries
          self-queueing ([None] = unlimited bandwidth, the paper's
          machine) *)
}

val config :  (* mppm: unit run_config *)
  ?core:Core_model.params ->
  ?perfect_llc:bool ->
  ?bandwidth:float ->
  Mppm_cache.Hierarchy.config ->
  run_config
(** Convenience constructor; [core] defaults to {!Core_model.default},
    [perfect_llc] to [false], [bandwidth] to unlimited. *)

(** Aggregate counters of one isolated run. *)
type totals = {
  instructions : int;  (* mppm: unit insns *)
  cycles : float;  (* mppm: unit cycles *)
  cpi : float;  (* mppm: unit cycles/insns *)
  memory_stall_cycles : float;  (* mppm: unit cycles *)
  memory_cpi : float;  (* mppm: unit cycles/insns *)
  llc_accesses : int;  (* mppm: unit accesses *)
  llc_misses : int;  (* mppm: unit accesses *)
}

val run :  (* mppm: unit offset:bytes -> seed:1 -> instructions:insns -> totals *)
  ?offset:int ->
  ?compute_scale:float ->
  run_config ->
  benchmark:Mppm_trace.Benchmark.t ->
  seed:int ->
  instructions:int ->
  totals
(** [run config ~benchmark ~seed ~instructions] executes the benchmark in
    isolation for [instructions] instructions and returns aggregate
    numbers.  With [perfect_llc = true], [memory_cpi] and [llc_misses] are
    zero by construction.  [compute_scale] models a heterogeneous "little"
    core and [offset] (line-aligned) displaces the program's addresses at
    the LLC (see {!Core_engine.create}). *)

val profile :  (* mppm: unit offset:bytes -> seed:1 -> trace_instructions:insns -> interval_instructions:insns -> profile *)
  ?offset:int ->
  ?compute_scale:float ->
  ?replay:Private_stream.reader ->
  ?record:Private_stream.recorder ->
  run_config ->
  benchmark:Mppm_trace.Benchmark.t ->
  seed:int ->
  trace_instructions:int ->
  interval_instructions:int ->
  Mppm_profile.Profile.t
(** [profile config ~benchmark ~seed ~trace_instructions
    ~interval_instructions] collects the per-interval MPPM profile.
    [trace_instructions] must be a positive multiple of
    [interval_instructions].  [config.perfect_llc] must be [false] (a
    perfect-LLC profile has no SDC content).

    [record] tees the run's private stream into a recorder of length
    [trace_instructions]; [replay] builds the profile from such a stream
    instead of the generator and private caches, with the same result bit
    for bit (see {!Core_engine.create}). *)

val memory_cpi_two_run :  (* mppm: unit offset:bytes -> seed:1 -> instructions:insns -> cycles/insns *)
  ?offset:int ->
  ?compute_scale:float ->
  run_config ->
  benchmark:Mppm_trace.Benchmark.t ->
  seed:int ->
  instructions:int ->
  float
(** The paper's two-run method: CPI with the real LLC minus CPI with a
    perfect LLC.  Agrees with the counter-based [memory_cpi] of {!run} (the
    generators are deterministic, so both runs see the same stream). *)
