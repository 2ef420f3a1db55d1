(** The detailed multi-core reference simulator (the CMP$im stand-in).

    N cores, each with private L1I/L1D/L2, share one LLC.  Cores execute
    their programs concurrently; interleaving at the shared LLC follows the
    cores' cycle clocks (the core with the smallest clock executes next),
    so cache contention emerges from actual timing, exactly the behaviour
    MPPM tries to predict analytically.

    Per-program multi-core CPI is measured over the program's first full
    trace; programs that finish early keep running (their generators cycle)
    so the slower programs stay under contention — the Tuck & Tullsen /
    FAME re-iteration methodology the paper also follows. *)

type config = {
  hierarchy : Mppm_cache.Hierarchy.config;
  llc_partition : int array option;  (* mppm: unit ways *)
      (** way quotas per core for a way-partitioned shared LLC; length must
          cover the mix size.  [None] = fully shared LRU (the paper's
          machine). *)
  bandwidth : float option;  (* mppm: unit cycles *)
      (** memory-channel occupancy (cycles per line transfer) of one
          channel shared by all cores; [None] = unlimited bandwidth (the
          paper's machine) *)
}

val config :  (* mppm: unit config *)
  ?llc_partition:int array ->
  ?bandwidth:float ->
  Mppm_cache.Hierarchy.config ->
  config
(** Convenience constructor; defaults are the paper's machine (fully
    shared LRU LLC, unlimited bandwidth).  Every core is
    {!Mppm_simcore.Core_model.default}. *)

type program_spec = {
  benchmark : Mppm_trace.Benchmark.t;
  seed : int;  (** generator seed; use the profiling seed to match traces *)  (* mppm: unit 1 *)
  offset : int;  (** address-space displacement for this program instance *)  (* mppm: unit bytes *)
}

type program_result = {
  name : string;
  instructions : int;  (** first-pass length *)  (* mppm: unit insns *)
  cycles : float;  (** cycle at which the first pass completed *)  (* mppm: unit cycles *)
  multicore_cpi : float;  (** [cycles / instructions] *)  (* mppm: unit cycles/insns *)
  llc_accesses : int;  (** during the first pass *)  (* mppm: unit accesses *)
  llc_misses : int;  (** during the first pass *)  (* mppm: unit accesses *)
  total_retired : int;  (** including re-iterations, at simulation end *)  (* mppm: unit insns *)
}

type result = {
  programs : program_result array;
  wall_cycles : float;  (** cycle at which the last first-pass completed *)  (* mppm: unit cycles *)
  llc_total_accesses : int;  (* mppm: unit accesses *)
  llc_total_misses : int;  (* mppm: unit accesses *)
}

val post_pass_cap : int  (* mppm: unit insns *)
(** The block cap of a core past its first pass: large, so the step loop
    stays cheap, while blocks stay bounded by the program's memory gaps. *)

val run :  (* mppm: unit result *)
  ?compute_scales:float array ->
  ?replays:Mppm_simcore.Private_stream.reader option array ->
  config ->
  programs:program_spec array ->
  trace_instructions:int ->
  result
(** [run config ~programs ~trace_instructions] simulates the mix until
    every program has completed [trace_instructions] instructions.
    [compute_scales], when given, makes the machine heterogeneous: core
    [i]'s non-memory cycle costs are multiplied by [compute_scales.(i)]
    (1.0 = the baseline "big" core; see {!Mppm_simcore.Core_engine}).

    Each program's offset is applied at the LLC boundary
    ({!Mppm_simcore.Core_engine.create} [~llc_offset]), so it must be
    line-aligned, as {!default_offsets} are.  [replays.(i)], when [Some],
    is a chained reader ({!Mppm_simcore.Private_stream.chained}) of
    program [i]'s private stream, whose segments are [trace_instructions]
    long: core [i] replays its first pass and every re-iteration past it,
    crossing segments as it goes, with results bit-identical to a live
    run.  [run] closes every reader it is given.  The end-of-run counters
    [multicore.replayed_instructions] and [multicore.live_instructions]
    split the retired instructions by source, core by core. *)

val default_offsets : ?seed:int -> int -> int array  (* mppm: unit seed:1 -> programs -> bytes *)
(** [default_offsets ~seed n] is [n] address-space offsets that (a) are
    far enough apart that program instances never share lines, and (b)
    carry a per-instance page-granular randomization so co-running copies
    of the same benchmark do not collide set-for-set pathologically. *)
