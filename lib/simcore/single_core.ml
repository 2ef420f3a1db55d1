module Hierarchy = Mppm_cache.Hierarchy
module Sdc_profiler = Mppm_cache.Sdc_profiler
module Generator = Mppm_trace.Generator
module Profile = Mppm_profile.Profile
module Registry = Mppm_obs.Registry

(* End-of-run aggregate counters.  Pushed once per run/profile (a coarse
   boundary), never from the per-access hot path; reading the registry
   cannot perturb results because nothing here feeds back into timing. *)
let push_run_counters engine =
  Registry.add "simcore.instructions"
    (float_of_int (Core_engine.retired engine));
  Registry.add "simcore.cycles" (Core_engine.cycles engine);
  Registry.add_all ~prefix:"simcore"
    (Hierarchy.counters (Core_engine.hierarchy engine))

type run_config = {
  hierarchy : Hierarchy.config;
  core : Core_model.params;
  perfect_llc : bool;
  bandwidth : float option;
}

let config ?(core = Core_model.default) ?(perfect_llc = false) ?bandwidth
    hierarchy =
  { hierarchy; core; perfect_llc; bandwidth }

type totals = {
  instructions : int;
  cycles : float;
  cpi : float;
  memory_stall_cycles : float;
  memory_cpi : float;
  llc_accesses : int;
  llc_misses : int;
}

let build_engine ?sdc_profiler ?offset ?compute_scale ?replay ?record cfg
    ~benchmark ~seed =
  let generator = Generator.create ~seed benchmark in
  let hierarchy = Hierarchy.create ~perfect_llc:cfg.perfect_llc cfg.hierarchy in
  let memory_channel =
    Option.map
      (fun transfer_cycles -> Memory_channel.create ~transfer_cycles)
      cfg.bandwidth
  in
  Core_engine.create ?sdc_profiler ?memory_channel ?compute_scale
    ?llc_offset:offset ?replay ?record ~params:cfg.core ~hierarchy ~generator
    ()

let run ?offset ?compute_scale cfg ~benchmark ~seed ~instructions =
  if instructions <= 0 then invalid_arg "Single_core.run: instructions <= 0";
  let engine = build_engine ?offset ?compute_scale cfg ~benchmark ~seed in
  let remaining = ref instructions in
  while !remaining > 0 do
    remaining := !remaining - Core_engine.step engine ~cap:!remaining
  done;
  let cycles = Core_engine.cycles engine in
  let stall = Core_engine.memory_stall_cycles engine in
  Registry.incr "simcore.runs";
  push_run_counters engine;
  {
    instructions;
    cycles;
    cpi = cycles /. float_of_int instructions;
    memory_stall_cycles = stall;
    memory_cpi = stall /. float_of_int instructions;
    llc_accesses = Core_engine.llc_accesses engine;
    llc_misses = Core_engine.llc_misses engine;
  }

let profile ?offset ?compute_scale ?replay ?record cfg ~benchmark ~seed
    ~trace_instructions ~interval_instructions =
  if cfg.perfect_llc then
    invalid_arg "Single_core.profile: profiling requires a real LLC";
  if
    interval_instructions <= 0
    || trace_instructions <= 0
    || trace_instructions mod interval_instructions <> 0
  then
    invalid_arg
      "Single_core.profile: trace length must be a positive multiple of the \
       interval length";
  let sdc_profiler = Sdc_profiler.create cfg.hierarchy.Hierarchy.llc.geometry in
  let engine =
    build_engine ~sdc_profiler ?offset ?compute_scale ?replay ?record cfg
      ~benchmark ~seed
  in
  let n_intervals = trace_instructions / interval_instructions in
  let intervals =
    Array.init n_intervals (fun _ ->
        let start = Core_engine.snapshot engine in
        let remaining = ref interval_instructions in
        while !remaining > 0 do
          remaining := !remaining - Core_engine.step engine ~cap:!remaining
        done;
        let delta = Core_engine.since engine start in
        {
          Profile.instructions = delta.Core_engine.s_retired;
          cycles = delta.Core_engine.s_cycles;
          memory_stall_cycles = delta.Core_engine.s_memory_stall_cycles;
          llc_accesses = float_of_int delta.Core_engine.s_llc_accesses;
          llc_misses = float_of_int delta.Core_engine.s_llc_misses;
          sdc = Sdc_profiler.cut_interval sdc_profiler;
        })
  in
  Registry.incr "simcore.profiles";
  push_run_counters engine;
  (* Lifetime stack-distance summary of the profiled LLC stream. *)
  let total = Sdc_profiler.lifetime_total sdc_profiler in
  Registry.add "cache.sdc.mass" (Mppm_cache.Sdc.accesses total);
  Registry.add "cache.sdc.hits" (Mppm_cache.Sdc.hits total);
  Registry.add "cache.sdc.misses" (Mppm_cache.Sdc.misses total);
  (let hits = Mppm_cache.Sdc.hits total in
   if hits > 0.0 then begin
     let weighted = ref 0.0 in
     for d = 1 to Mppm_cache.Sdc.assoc total do
       weighted := !weighted +. (float_of_int d *. Mppm_cache.Sdc.counter total d)
     done;
     Registry.add "cache.sdc.hit_depth_mass" !weighted
   end);
  Profile.make ~benchmark:benchmark.Mppm_trace.Benchmark.name
    ~interval_instructions
    ~llc_assoc:cfg.hierarchy.Hierarchy.llc.geometry.Mppm_cache.Geometry.associativity
    intervals

let memory_cpi_two_run ?offset ?compute_scale cfg ~benchmark ~seed
    ~instructions =
  let real =
    run ?offset ?compute_scale { cfg with perfect_llc = false } ~benchmark
      ~seed ~instructions
  in
  let perfect =
    run ?offset ?compute_scale { cfg with perfect_llc = true } ~benchmark
      ~seed ~instructions
  in
  real.cpi -. perfect.cpi
