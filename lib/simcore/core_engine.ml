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
  llc_offset : int;
  tally : int array;  (* the hierarchy's, counting replayed outcomes *)
  (* The front end's source: a replayed private stream, else the generator
     and the private caches, teeing into a recorder until its recorded
     length. *)
  replay : Private_stream.reader option;
  mutable record : Private_stream.recorder option;
  mutable stream_end : int;  (* where the source stops; max_int if it does not *)
  mutable retired : int;
  sdc_profiler : Sdc_profiler.t option;
  memory_channel : Memory_channel.t option;
  compute_scale : float;
  stalls : Core_model.stalls;
  clock : clock;
  mutable fetch_debt : int;
}

let create ?sdc_profiler ?memory_channel ?(compute_scale = 1.0)
    ?(llc_offset = 0) ?replay ?record ~params ~hierarchy ~generator () =
  if compute_scale <= 0.0 then
    invalid_arg "Core_engine.create: compute_scale <= 0";
  let config = Hierarchy.config hierarchy in
  let benchmark = Generator.benchmark generator in
  let aligned (level : Hierarchy.level) =
    llc_offset mod level.Hierarchy.geometry.Mppm_cache.Geometry.line_bytes = 0
  in
  if
    not
      (aligned config.Hierarchy.l1i && aligned config.Hierarchy.l1d
     && aligned config.Hierarchy.l2)
  then invalid_arg "Core_engine.create: llc_offset is not line-aligned";
  (match (replay, record) with
  | Some _, Some _ -> invalid_arg "Core_engine.create: both replay and record"
  | Some r, None ->
      if not (Private_stream.matches r ~benchmark ~hierarchy:config) then
        invalid_arg "Core_engine.create: stream of another benchmark or hierarchy"
  | None, Some w ->
      if Private_stream.recorded_start w <> 0 then
        invalid_arg "Core_engine.create: a core records segment 0 only"
  | None, None -> ());
  if
    (Option.is_some replay || Option.is_some record)
    && Generator.retired generator <> 0
  then
    invalid_arg "Core_engine.create: a streamed core needs a fresh generator";
  {
    params;
    hierarchy;
    generator;
    llc_offset;
    tally = Hierarchy.tally hierarchy;
    replay;
    record;
    stream_end =
      (match (replay, record) with
      | Some r, _ when Private_stream.chained r -> max_int
      | Some r, _ -> Private_stream.recorded_end r
      | None, Some w -> Private_stream.recorded_length w
      | None, None -> max_int);
    retired = Generator.retired generator;
    sdc_profiler;
    memory_channel;
    compute_scale;
    stalls = Core_model.stalls params config;
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

(* The shared half of an access that missed the private levels: the slot
   offset applies here, so private state is the same at every slot. *)
(* mppm: unit _ -- level code: 2 = LLC hit, 3 = memory *)
let llc_level t addr =
  let level = Hierarchy.access_llc t.hierarchy ~addr:(addr + t.llc_offset) in
  note_llc t level;
  level

(* mppm: unit _ -- level code: 0 = L1, 1 = L2, 2 = LLC, 3 = memory *)
let fetch_level t =
  match t.replay with
  | Some r -> (
      let level = Private_stream.take_fetch r in
      t.tally.(level) <- t.tally.(level) + 1;
      match level with 2 -> llc_level t (Private_stream.addr r) | level -> level)
  | None -> (
      let addr = Generator.next_fetch t.generator in
      let level =
        Hierarchy.access_private t.hierarchy ~kind:Hierarchy.Fetch ~addr
      in
      (match t.record with
      | Some w -> Private_stream.record_fetch w ~level ~addr
      | None -> ());
      match level with 2 -> llc_level t addr | level -> level)

(* mppm: unit _ -- level code: 0 = L1, 1 = L2, 2 = LLC, 3 = memory *)
let data_level t kind =
  match t.replay with
  | Some r -> (
      let level = Private_stream.take_access r in
      t.tally.(3 + level) <- t.tally.(3 + level) + 1;
      match level with 2 -> llc_level t (Private_stream.addr r) | level -> level)
  | None -> (
      let addr = Generator.emitted_addr t.generator in
      let level =
        Hierarchy.access_private t.hierarchy
          ~kind:(match kind with 2 -> Hierarchy.Store | _ -> Hierarchy.Load)
          ~addr
      in
      (match t.record with
      | Some w ->
          Private_stream.record_access w ~position:t.retired
            ~store:(Int.equal kind 2) ~level ~addr
      | None -> ());
      match level with 2 -> llc_level t addr | level -> level)

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
    match fetch_level t with
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
    | level ->
        clock.cycles <-
          clock.cycles +. (t.compute_scale *. stalls.Core_model.fetch.(level))
  done

(* At its recorded length a recorder gets the engine's state as its
   trailer and the core goes on live; a replay without a next segment
   ends there. *)
let end_of_stream t =
  match (t.record, t.replay) with
  | Some w, _ ->
      t.record <- None;
      t.stream_end <- max_int;
      Private_stream.finish_recording w ~trailer:(fun put ->
          put t.fetch_debt;
          Generator.save t.generator put;
          Hierarchy.save_private t.hierarchy put)
  | None, Some r -> Private_stream.close r
  | None, None -> ()

(* mppm: hot — per-instruction simulator step *)
let step t ~cap =
  let clock = t.clock in
  let cycles_before = clock.cycles in
  let phase =
    match t.replay with
    | Some r -> Private_stream.current_phase r
    | None -> Generator.current_phase t.generator
  in
  if cap > t.stream_end - t.retired then
    invalid_arg "Core_engine.step: cap runs past the recorded length";
  let instructions =
    match t.replay with
    | Some r -> Private_stream.emit r ~cap
    | None -> Generator.emit t.generator ~cap
  in
  t.retired <- t.retired + instructions;
  clock.cycles <-
    clock.cycles
    +. (t.compute_scale
       *. float_of_int instructions
       *. phase.Benchmark.base_cpi);
  issue_fetches t instructions;
  (match
     match t.replay with
     | Some r -> Private_stream.emitted_kind r
     | None -> Generator.emitted_kind t.generator
   with
  | 0 -> ()
  | kind ->
      let level = data_level t kind in
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
  if Int.equal t.retired t.stream_end then
    (* mppm: cold — once per run, at the recorded length *)
    end_of_stream t;
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

let retired t = t.retired
let replayed t = match t.replay with Some _ -> t.retired | None -> 0

let record_segment config ~benchmark ~seed ~trailer w =
  let generator = Generator.create ~seed benchmark in
  let caches = Hierarchy.create config in
  let fetch_debt = ref (trailer ()) in
  Generator.restore generator trailer;
  Hierarchy.restore_private caches trailer;
  let start = Private_stream.recorded_start w in
  let stop = start + Private_stream.recorded_length w in
  if
    Generator.retired generator <> start
    || !fetch_debt <> start mod Generator.instructions_per_fetch
  then failwith "Core_engine.record_segment: trailer does not fit the segment";
  (* The live front end of {!step}, without an LLC or a clock. *)
  while Generator.retired generator < stop do
    let n = Generator.emit generator ~cap:(stop - Generator.retired generator) in
    fetch_debt := !fetch_debt + n;
    while !fetch_debt >= Generator.instructions_per_fetch do
      fetch_debt := !fetch_debt - Generator.instructions_per_fetch;
      let addr = Generator.next_fetch generator in
      Private_stream.record_fetch w ~addr
        ~level:(Hierarchy.access_private caches ~kind:Hierarchy.Fetch ~addr)
    done;
    match Generator.emitted_kind generator with
    | 0 -> ()
    | kind ->
        let addr = Generator.emitted_addr generator and store = Int.equal kind 2 in
        Private_stream.record_access w ~position:(Generator.retired generator)
          ~store ~addr
          ~level:
            (Hierarchy.access_private caches ~addr
               ~kind:(if store then Hierarchy.Store else Hierarchy.Load))
  done;
  Private_stream.finish_recording w ~trailer:(fun put ->
      put !fetch_debt;
      Generator.save generator put;
      Hierarchy.save_private caches put)

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
