module Hierarchy = Mppm_cache.Hierarchy
module Sdc_profiler = Mppm_cache.Sdc_profiler
module Generator = Mppm_trace.Generator
module Benchmark = Mppm_trace.Benchmark
module Invariant = Mppm_util.Invariant

(* All-float, so its fields are stored flat and updating them boxes
   nothing. *)
type clock = { mutable cycles : float; mutable memory_stall_cycles : float }

type t = {
  params : Core_model.params;
  hierarchy : Hierarchy.t;
  generator : Generator.t;
  sdc_profiler : Sdc_profiler.t option;
  memory_channel : Memory_channel.t option;
  compute_scale : float;
  stalls : Core_model.stalls;
  clock : clock;
  mutable fetch_debt : int;
}

let create ?sdc_profiler ?memory_channel ?(compute_scale = 1.0) ~params
    ~hierarchy ~generator () =
  if compute_scale <= 0.0 then
    invalid_arg "Core_engine.create: compute_scale <= 0";
  {
    params;
    hierarchy;
    generator;
    sdc_profiler;
    memory_channel;
    compute_scale;
    stalls = Core_model.stalls params (Hierarchy.config hierarchy);
    clock = { cycles = 0.0; memory_stall_cycles = 0.0 };
    fetch_debt = 0;
  }

(* Hands the LLC outcome of an access that reached the LLC (level code 2
   or 3) to the SDC profiler, if any. *)
let note_llc t level =
  if level >= 2 then
    match t.sdc_profiler with
    | Some profiler ->
        Sdc_profiler.record profiler (Hierarchy.llc_depth t.hierarchy)
    | None -> ()

(* Queueing delay of an LLC miss on the shared memory channel, exposed the
   same way the raw miss latency is. *)
let channel_delay t =
  match t.memory_channel with
  | None -> 0.0
  | Some channel -> Memory_channel.request channel ~now:t.clock.cycles

(* mppm: hot — inner fetch loop of the simulator step *)
let issue_fetches t count =
  t.fetch_debt <- t.fetch_debt + count;
  let clock = t.clock and stalls = t.stalls in
  while t.fetch_debt >= Generator.instructions_per_fetch do
    t.fetch_debt <- t.fetch_debt - Generator.instructions_per_fetch;
    let addr = Generator.next_fetch t.generator in
    let level = Hierarchy.access t.hierarchy ~kind:Hierarchy.Fetch ~addr in
    note_llc t level;
    match level with
    | 3 ->
        (* Split the stall: the part an LLC hit would also have suffered
           scales with the core; the off-chip extra and the channel's
           queueing do not, and both count as memory stall. *)
        let stall = stalls.Core_model.fetch.(3) in
        let miss_extra = stalls.Core_model.fetch_miss_extra in
        let queueing =
          t.params.Core_model.fetch_exposure *. channel_delay t
        in
        clock.cycles <-
          clock.cycles
          +. (t.compute_scale *. (stall -. miss_extra))
          +. miss_extra +. queueing;
        clock.memory_stall_cycles <-
          clock.memory_stall_cycles +. miss_extra +. queueing
    | _ ->
        clock.cycles <-
          clock.cycles +. (t.compute_scale *. stalls.Core_model.fetch.(level))
  done

(* mppm: hot — per-instruction simulator step *)
let step t ~cap =
  let clock = t.clock in
  let cycles_before = clock.cycles in
  let phase = Generator.current_phase t.generator in
  let instructions = Generator.emit t.generator ~cap in
  clock.cycles <-
    clock.cycles
    +. (t.compute_scale
       *. float_of_int instructions
       *. phase.Benchmark.base_cpi);
  issue_fetches t instructions;
  (match Generator.emitted_kind t.generator with
  | 0 -> ()
  | kind ->
      let kind = match kind with 2 -> Hierarchy.Store | _ -> Hierarchy.Load in
      let addr = Generator.emitted_addr t.generator in
      let level = Hierarchy.access t.hierarchy ~kind ~addr in
      note_llc t level;
      let data = t.stalls.Core_model.data in
      let mlp = phase.Benchmark.mlp in
      (match level with
      | 0 | 1 -> clock.cycles <- clock.cycles +. (t.compute_scale *. data.(level))
      | 2 -> clock.cycles <- clock.cycles +. (t.compute_scale *. (data.(2) /. mlp))
      | _ ->
          let stall = data.(3) /. mlp in
          let miss_extra = stall -. (data.(2) /. mlp) in
          let queueing =
            t.params.Core_model.memory_exposure *. channel_delay t /. mlp
          in
          clock.cycles <-
            clock.cycles
            +. (t.compute_scale *. (stall -. miss_extra))
            +. miss_extra +. queueing;
          clock.memory_stall_cycles <-
            clock.memory_stall_cycles +. miss_extra +. queueing));
  if Invariant.enabled () then begin
    Invariant.checkf "simcore.cycles_monotone" (clock.cycles >= cycles_before)
      (fun () ->
        Printf.sprintf "cycle count fell from %g to %g" cycles_before clock.cycles);
    Invariant.check "simcore.cycles_finite" (Float.is_finite clock.cycles);
    Invariant.check "simcore.memory_stall_nonneg"
      (clock.memory_stall_cycles >= 0.0
      && clock.memory_stall_cycles <= clock.cycles)
  end;
  instructions

let retired t = Generator.retired t.generator
let hierarchy t = t.hierarchy
let clock t = t.clock
let cycles t = t.clock.cycles
let memory_stall_cycles t = t.clock.memory_stall_cycles
let llc_accesses t = Hierarchy.llc_accesses t.hierarchy
let llc_misses t = Hierarchy.llc_misses t.hierarchy

type snapshot = {
  s_retired : int;
  s_cycles : float;
  s_memory_stall_cycles : float;
  s_llc_accesses : int;
  s_llc_misses : int;
}

let snapshot t =
  {
    s_retired = retired t;
    s_cycles = t.clock.cycles;
    s_memory_stall_cycles = t.clock.memory_stall_cycles;
    s_llc_accesses = llc_accesses t;
    s_llc_misses = llc_misses t;
  }

let since t s =
  {
    s_retired = retired t - s.s_retired;
    s_cycles = t.clock.cycles -. s.s_cycles;
    s_memory_stall_cycles = t.clock.memory_stall_cycles -. s.s_memory_stall_cycles;
    s_llc_accesses = llc_accesses t - s.s_llc_accesses;
    s_llc_misses = llc_misses t - s.s_llc_misses;
  }
