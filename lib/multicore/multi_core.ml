module Hierarchy = Mppm_cache.Hierarchy
module Cache = Mppm_cache.Cache
module Core_model = Mppm_simcore.Core_model
module Core_engine = Mppm_simcore.Core_engine
module Generator = Mppm_trace.Generator
module Private_stream = Mppm_simcore.Private_stream

type config = {
  hierarchy : Hierarchy.config;
  core : Core_model.params;
  llc_partition : int array option;
  bandwidth : float option;
}

let config ?(core = Core_model.default) ?llc_partition ?bandwidth hierarchy =
  { hierarchy; core; llc_partition; bandwidth }

type program_spec = {
  benchmark : Mppm_trace.Benchmark.t;
  seed : int;
  offset : int;
}

type program_result = {
  name : string;
  instructions : int;
  cycles : float;
  multicore_cpi : float;
  llc_accesses : int;
  llc_misses : int;
  total_retired : int;
}

type result = {
  programs : program_result array;
  wall_cycles : float;
  llc_total_accesses : int;
  llc_total_misses : int;
}

type core_state = {
  engine : Core_engine.t;
  spec : program_spec;
  mutable first_pass_done : bool;
  mutable completion : Core_engine.snapshot option;
}

(* Cap for ops of cores that already finished their first pass: keeps the
   step loop cheap without affecting measurement (their per-op block size
   is bounded by the generator's memory gaps anyway). *)
let post_pass_cap = 1 lsl 20

(* Index of the core with the smallest cycle clock, the first on ties.
   Reads the engines' live clocks directly: no closure, no float refs. *)
let rec earliest (clocks : Core_engine.clock array) i best =
  if i >= Array.length clocks then best
  else if clocks.(i).Core_engine.cycles < clocks.(best).Core_engine.cycles then
    earliest clocks (i + 1) i
  else earliest clocks (i + 1) best

let run ?compute_scales ?replays cfg ~programs ~trace_instructions =
  let replay slot = match replays with Some r -> r.(slot) | None -> None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (Array.iter (Option.iter Private_stream.close)) replays)
  @@ fun () ->
  (match replays with
  | Some r
    when Array.length r <> Array.length programs
         || Array.exists
              (function
                | Some r ->
                    (not (Private_stream.chained r))
                    || Private_stream.recorded_end r <> trace_instructions
                | None -> false)
              r ->
      invalid_arg "Multi_core.run: replays do not match the mix"
  | Some _ | None -> ());
  if Array.length programs = 0 then invalid_arg "Multi_core.run: no programs";
  (match compute_scales with
  | Some scales when Array.length scales < Array.length programs ->
      invalid_arg "Multi_core.run: compute_scales smaller than the mix"
  | Some _ | None -> ());
  if trace_instructions <= 0 then
    invalid_arg "Multi_core.run: trace_instructions <= 0";
  (match cfg.llc_partition with
  | Some quotas when Array.length quotas < Array.length programs ->
      invalid_arg "Multi_core.run: partition smaller than the mix"
  | Some _ | None -> ());
  let shared_llc =
    Cache.create ?partition:cfg.llc_partition
      cfg.hierarchy.Hierarchy.llc.geometry
  in
  let memory_channel =
    Option.map
      (fun transfer_cycles ->
        Mppm_simcore.Memory_channel.create ~transfer_cycles)
      cfg.bandwidth
  in
  let cores =
    Array.mapi
      (fun slot spec ->
        let generator = Generator.create ~seed:spec.seed spec.benchmark in
        let hierarchy =
          Hierarchy.create ~llc:shared_llc ~llc_owner:slot cfg.hierarchy
        in
        let compute_scale =
          match compute_scales with Some s -> Some s.(slot) | None -> None
        in
        {
          engine =
            Core_engine.create ?memory_channel ?compute_scale
              ~llc_offset:spec.offset ?replay:(replay slot) ~params:cfg.core
              ~hierarchy ~generator ();
          spec;
          first_pass_done = false;
          completion = None;
        })
      programs
  in
  let clocks = Array.map (fun core -> Core_engine.clock core.engine) cores in
  let unfinished = ref (Array.length cores) in
  while !unfinished > 0 do
    (* The core with the smallest cycle clock executes its next op: this
       orders LLC accesses by (approximate) time. *)
    let core = cores.(earliest clocks 1 0) in
    let cap =
      if core.first_pass_done then post_pass_cap
      else trace_instructions - Core_engine.retired core.engine
    in
    let _retired = Core_engine.step core.engine ~cap in
    if
      (not core.first_pass_done)
      && Core_engine.retired core.engine >= trace_instructions
    then begin
      core.first_pass_done <- true;
      core.completion <- Some (Core_engine.snapshot core.engine);
      decr unfinished
    end
  done;
  let programs =
    Array.map
      (fun core ->
        let completion =
          match core.completion with Some s -> s | None -> assert false
        in
        {
          name = core.spec.benchmark.Mppm_trace.Benchmark.name;
          instructions = trace_instructions;
          cycles = completion.Core_engine.s_cycles;
          multicore_cpi =
            completion.Core_engine.s_cycles /. float_of_int trace_instructions;
          llc_accesses = completion.Core_engine.s_llc_accesses;
          llc_misses = completion.Core_engine.s_llc_misses;
          total_retired = Core_engine.retired core.engine;
        })
      cores
  in
  let wall_cycles =
    Array.fold_left (fun acc p -> Float.max acc p.cycles) 0.0 programs
  in
  (* End-of-run aggregates only: a coarse boundary, never the hot path. *)
  let module Registry = Mppm_obs.Registry in
  let replayed =
    Array.fold_left (fun acc core -> acc + Core_engine.replayed core.engine) 0 cores
  in
  let retired =
    Array.fold_left (fun acc p -> acc + p.total_retired) 0 programs
  in
  Registry.incr "multicore.runs";
  Registry.add "multicore.replayed_instructions" (float_of_int replayed);
  Registry.add "multicore.live_instructions" (float_of_int (retired - replayed));
  Registry.add "multicore.wall_cycles" wall_cycles;
  Registry.add "multicore.shared_llc.accesses"
    (float_of_int (Cache.accesses shared_llc));
  Registry.add "multicore.shared_llc.misses"
    (float_of_int (Cache.misses shared_llc));
  Array.iter
    (fun core ->
      Registry.add_all ~prefix:"multicore"
        (Hierarchy.counters (Core_engine.hierarchy core.engine)))
    cores;
  {
    programs;
    wall_cycles;
    llc_total_accesses = Cache.accesses shared_llc;
    llc_total_misses = Cache.misses shared_llc;
  }

let default_offsets ?(seed = 0x0ff5e75) n =
  let rng = Mppm_util.Rng.create ~seed in
  Array.init n (fun i ->
      (* 64GB apart, plus up to 16MB of page-granular jitter. *)
      ((i + 1) * (1 lsl 36)) + (Mppm_util.Rng.int rng 4096 * 4096))
