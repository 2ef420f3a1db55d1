module Benchmark = Mppm_trace.Benchmark
module Multi_core = Mppm_multicore.Multi_core

type config = {
  hierarchy : Mppm_cache.Hierarchy.config;
  window_instructions : int;
}

let config ?(window_instructions = 100_000) hierarchy =
  if window_instructions <= 0 then
    invalid_arg "Co_phase.config: window_instructions <= 0";
  { hierarchy; window_instructions }

type program_spec = {
  benchmark : Mppm_trace.Benchmark.t;
  seed : int;
  offset : int;
}

type result = {
  cpi_multi : float array;
  cycles : float array;
  co_phases_measured : int;
  detailed_instructions : int;
}

(* Per-program schedule view: the phase entries as arrays for O(1) access. *)
type schedule = {
  phases : Benchmark.phase array;
  durations : int array;
}

type t = {
  cfg : config;
  programs : program_spec array;
  schedules : schedule array;
  (* co-phase key (current entry index per program) -> per-program rates in
     instructions per cycle *)
  matrix : (int list, float array) Hashtbl.t;
  mutable detailed_instructions : int;
}

let schedule_of_benchmark b =
  let entries = Array.of_list b.Benchmark.schedule in
  {
    phases = Array.map fst entries;
    durations = Array.map snd entries;
  }

let create cfg ~programs =
  if Array.length programs = 0 then invalid_arg "Co_phase.create: no programs";
  {
    cfg;
    programs;
    schedules =
      Array.map (fun spec -> schedule_of_benchmark spec.benchmark) programs;
    matrix = Hashtbl.create ~random:false 16;
    detailed_instructions = 0;
  }

(* A single-phase stand-in benchmark: the co-phase window simulates each
   program pinned to its current phase. *)
let pinned_benchmark (spec : program_spec) (phase : Benchmark.phase) =
  {
    spec.benchmark with
    Benchmark.name = spec.benchmark.Benchmark.name ^ "@" ^ phase.Benchmark.phase_name;
    schedule = [ (phase, max_int / 2) ];
  }

(* Measure one co-phase with short detailed co-simulations.  Cold caches
   would bias the rates (cold misses dominate short windows), so the rate
   is taken over the warm second half of a doubled window: two
   deterministic runs of w and 2w instructions see identical streams, and
   their cycle difference isolates instructions w..2w. *)
let measure t key =
  let specs =
    Array.mapi
      (fun p entry_idx ->
        let phase = t.schedules.(p).phases.(entry_idx) in
        {
          Multi_core.benchmark = pinned_benchmark t.programs.(p) phase;
          seed = t.programs.(p).seed;
          offset = t.programs.(p).offset;
        })
      (Array.of_list key)
  in
  let run trace_instructions =
    let detail =
      Multi_core.run
        (Multi_core.config t.cfg.hierarchy)
        ~programs:specs ~trace_instructions
    in
    t.detailed_instructions <-
      t.detailed_instructions
      + Array.fold_left
          (fun acc p -> acc + p.Multi_core.total_retired)
          0 detail.Multi_core.programs;
    Array.map (fun p -> p.Multi_core.cycles) detail.Multi_core.programs
  in
  let cold = run t.cfg.window_instructions in
  let full = run (2 * t.cfg.window_instructions) in
  Array.mapi
    (fun p c2 ->
      float_of_int t.cfg.window_instructions /. (c2 -. cold.(p)))
    full

let rates t key =
  match Hashtbl.find_opt t.matrix key with
  | Some r -> r
  | None ->
      let r = measure t key in
      Hashtbl.add t.matrix key r;
      r

let predict t ~trace_instructions =
  if trace_instructions <= 0 then
    invalid_arg "Co_phase.predict: trace_instructions <= 0";
  let n = Array.length t.programs in
  (* Walk state: per program, the current schedule entry, instructions left
     in it, total retired, and the recorded completion cycle. *)
  let entry = Array.make n 0 in
  let left =
    Array.init n (fun p -> float_of_int t.schedules.(p).durations.(0))
  in
  let retired = Array.make n 0.0 in
  let completion = Array.make n nan in
  let clock = ref 0.0 in
  let unfinished = ref n in
  while !unfinished > 0 do
    let key = Array.to_list entry in
    let r = rates t key in
    (* Advance until the first phase boundary among the programs. *)
    let dt =
      Array.to_list left
      |> List.mapi (fun p remaining -> remaining /. r.(p))
      |> List.fold_left Float.min infinity
    in
    Array.iteri
      (fun p _ ->
        let advance = r.(p) *. dt in
        let before = retired.(p) in
        retired.(p) <- before +. advance;
        (* Did this program cross its first-trace completion? *)
        if
          Float.is_nan completion.(p)
          && retired.(p) >= float_of_int trace_instructions
        then begin
          completion.(p) <-
            !clock +. ((float_of_int trace_instructions -. before) /. r.(p));
          decr unfinished
        end;
        left.(p) <- left.(p) -. advance;
        if left.(p) <= 1e-6 then begin
          let s = t.schedules.(p) in
          entry.(p) <- (entry.(p) + 1) mod Array.length s.phases;
          left.(p) <- float_of_int s.durations.(entry.(p))
        end)
      entry;
    clock := !clock +. dt
  done;
  {
    cpi_multi =
      Array.map (fun c -> c /. float_of_int trace_instructions) completion;
    cycles = completion;
    co_phases_measured = Hashtbl.length t.matrix;
    detailed_instructions = t.detailed_instructions;
  }

let matrix_size t = Hashtbl.length t.matrix
