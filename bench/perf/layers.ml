(* Per-layer replays for traced runs: each layer's public functions called
   by the benchmark itself on one domain, on inputs drawn from the
   workload (its benchmarks, its mixes, the windows its model requests),
   reporting host time and bytes allocated per unit of work.  Nothing
   inside lib/ is instrumented.

   Every replay repeats its inputs until a fixed time budget is spent, so
   a faster layer does more calls, not less measuring. *)

module Rng = Mppm_util.Rng
module Stats = Mppm_util.Stats
module Geometry = Mppm_cache.Geometry
module Cache = Mppm_cache.Cache
module Configs = Mppm_cache.Configs
module Hierarchy = Mppm_cache.Hierarchy
module Sdc_profiler = Mppm_cache.Sdc_profiler
module Generator = Mppm_trace.Generator
module Op = Mppm_trace.Op
module Suite = Mppm_trace.Suite
module Core_engine = Mppm_simcore.Core_engine
module Core_model = Mppm_simcore.Core_model
module Single_core = Mppm_simcore.Single_core
module Memory_channel = Mppm_simcore.Memory_channel
module Multi_core = Mppm_multicore.Multi_core
module Profile = Mppm_profile.Profile
module Contention = Mppm_contention.Contention
module Model = Mppm_core.Model
module Mix = Mppm_workload.Mix
module Sampler = Mppm_workload.Sampler
module Context = Mppm_experiments.Context
module Wire = Mppm_serve.Wire
module Dispatch = Mppm_serve.Dispatch
module Pool = Mppm_pool.Pool

(* Calls [f i] for i over [0, n) in rounds until [budget] seconds pass;
   returns (ns per call, bytes allocated per call) on this domain. *)
let per_call ~budget ~n f =
  for i = 0 to n - 1 do f i done;
  let a0 = Gc.allocated_bytes () in
  let t0 = Run.now () in
  let calls = ref 0 in
  while Run.now () -. t0 < budget do
    for i = 0 to n - 1 do f i done;
    calls := !calls + n
  done;
  let dt = Run.now () -. t0 in
  let calls = float_of_int !calls in
  (dt *. 1e9 /. calls, (Gc.allocated_bytes () -. a0) /. calls)

(* Per-call durations in seconds, for percentiles. *)
let durations ~budget ~n f =
  let out = ref [] in
  let t0 = Run.now () in
  let k = ref 0 in
  while !k < n || Run.now () -. t0 < budget do
    let s = Run.now () in
    f (!k mod n);
    out := (Run.now () -. s) :: !out;
    incr k
  done;
  Array.of_list !out

let generator i =
  let b = Suite.all.(i) in
  Generator.create ~seed:(Suite.seed_for b.Mppm_trace.Benchmark.name) b

(* The data and fetch references a benchmark's generator issues, in the
   core engine's order: one fetch per instructions_per_fetch retired. *)
let access_stream i ~count =
  let g = generator i in
  let out = Array.make count (Hierarchy.Load, 0) in
  let k = ref 0 and owed = ref 0 in
  while !k < count do
    let op = Generator.next g ~cap:1_000_000 in
    owed := !owed + op.Op.instructions;
    while !owed >= Generator.instructions_per_fetch && !k < count do
      owed := !owed - Generator.instructions_per_fetch;
      out.(!k) <- (Hierarchy.Fetch, Generator.next_fetch g);
      incr k
    done;
    match op.Op.access with
    | Some { Op.addr; kind } when !k < count ->
        out.(!k) <- ((match kind with Op.Load -> Hierarchy.Load | Op.Store -> Hierarchy.Store), addr);
        incr k
    | _ -> ()
  done;
  out

(* cachetrace-style working-set sweep: random lines over [factor] times
   the cache's capacity, after one warming pass. *)
let sweep ~budget ~seed ?partition geometry ~factor =
  let lines = max 1 (int_of_float (factor *. float_of_int (Geometry.lines geometry))) in
  let rng = Rng.create ~seed in
  let addrs = Array.init 65536 (fun _ -> Rng.int rng lines * Configs.line_bytes) in
  let cache = Cache.create ?partition geometry in
  match partition with
  | None -> per_call ~budget ~n:(Array.length addrs) (fun i -> ignore (Cache.access cache addrs.(i)))
  | Some q ->
      let owners = Array.length q in
      per_call ~budget ~n:(Array.length addrs) (fun i ->
          ignore (Cache.access_as cache ~owner:(i mod owners) addrs.(i)))

(* Instructions retired per host second by a core engine, plus bytes per
   instruction. *)
let engine_rate ~budget ~sdc ~channel i =
  let hierarchy = Hierarchy.create (Configs.baseline ~llc:1 ()) in
  let sdc_profiler =
    if sdc then Some (Sdc_profiler.create (Configs.llc_config 1).Hierarchy.geometry) else None
  in
  let memory_channel =
    if channel then Some (Memory_channel.create ~transfer_cycles:Setup.transfer_cycles) else None
  in
  let e =
    Core_engine.create ?sdc_profiler ?memory_channel ~params:Core_model.default
      ~hierarchy ~generator:(generator i) ()
  in
  let a0 = Gc.allocated_bytes () and t0 = Run.now () in
  while Run.now () -. t0 < budget do
    for _ = 1 to 1000 do ignore (Core_engine.step e ~cap:1_000_000) done
  done;
  let dt = Run.now () -. t0 and insns = float_of_int (Core_engine.retired e) in
  (dt *. 1e9 /. insns, (Gc.allocated_bytes () -. a0) /. insns)

let window_cases params (profiles : Profile.t array) =
  let _, history = Model.predict_with_history params
      (Array.map (fun p -> { Model.label = p.Profile.benchmark; profile = p }) profiles)
  in
  let l = float_of_int params.Model.iteration_instructions in
  let ip = Array.make (Array.length profiles) 0.0 in
  List.concat_map
    (fun (r : Model.iteration_record) ->
      let cases =
        List.concat
          (List.init (Array.length profiles) (fun p ->
               [ (profiles.(p), ip.(p), l); (profiles.(p), ip.(p), r.Model.progress.(p)) ]))
      in
      Array.iteri (fun p n -> ip.(p) <- ip.(p) +. n) r.Model.progress;
      cases)
    history

(* A per-layer metric's unit, from its name's suffix. *)
let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if ends "ns_per_insn" then "ns/insn"
  else if ends "bytes_per_insn" then "B/insn"
  else if ends "_ns" then "ns"
  else if ends "_us" then "us"
  else if ends "_ms" then "ms"
  else if ends "_bytes" then "B"
  else if ends "_pct" then "%"
  else "1"

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let replay (o : Run.options) ctx (mixes : Mix.t array) =
  let budget = if o.smoke then 0.005 else 0.25 in
  let seed = o.seed in
  let scale = Run.scale o in
  (* The workload's benchmarks, in order of first appearance; at most 4. *)
  let benches =
    let seen = Hashtbl.create ~random:false 32 in
    Array.iter
      (fun m ->
        Array.iter
          (fun i -> if not (Hashtbl.mem seen i) then Hashtbl.replace seen i (Hashtbl.length seen))
          (Mix.indices m))
      mixes;
    let all = Array.make (Hashtbl.length seen) 0 in
    Hashtbl.iter (fun i k -> all.(k) <- i) seen;
    Array.sub all 0 (min 4 (Array.length all))
  in
  let nb = Array.length benches in
  let out = ref [] in
  let emit name v = out := (name, v) :: !out in
  (* Generator *)
  let gens = Array.map generator benches in
  let ns, bytes = per_call ~budget ~n:nb (fun k -> ignore (Generator.next gens.(k) ~cap:1_000_000)) in
  emit "generator.next_ns" ns;
  emit "generator.next_bytes" bytes;
  emit "generator.fetch_ns"
    (fst (per_call ~budget ~n:nb (fun k -> ignore (Generator.next_fetch gens.(k)))));
  (* Cache, per level: half ("fit") and twice ("over") its capacity *)
  let geom (l : Hierarchy.level) = l.Hierarchy.geometry in
  let llc = geom (Configs.llc_config 1) in
  List.iter
    (fun (level, g) ->
      List.iter
        (fun (fit, factor) ->
          let ns, bytes = sweep ~budget ~seed g ~factor in
          emit (Printf.sprintf "cache.%s_%s_ns" level fit) ns;
          if level = "llc" && fit = "over" then emit "cache.llc_over_bytes" bytes)
        [ ("fit", 0.5); ("over", 2.0) ])
    [ ("l1d", geom Configs.l1d); ("l2", geom Configs.l2); ("llc", llc) ];
  emit "cache.llc_part_ns"
    (fst (sweep ~budget ~seed ~partition:Sim_load.quotas llc ~factor:2.0));
  (* Hierarchy and SDC profiler, on the benchmarks' reference streams *)
  let count = if o.smoke then 5_000 else 50_000 in
  let stream = Array.concat (Array.to_list (Array.map (fun i -> access_stream i ~count) benches)) in
  let h = Hierarchy.create (Configs.baseline ~llc:1 ()) in
  let ns, bytes =
    per_call ~budget ~n:(Array.length stream) (fun k ->
        let kind, addr = stream.(k) in
        ignore (Hierarchy.access h ~kind ~addr))
  in
  emit "hierarchy.access_ns" ns;
  emit "hierarchy.access_bytes" bytes;
  let sdc = Sdc_profiler.create llc in
  let ns, bytes =
    per_call ~budget ~n:(Array.length stream) (fun k ->
        ignore (Sdc_profiler.access sdc (snd stream.(k))))
  in
  emit "sdc_profiler.access_ns" ns;
  emit "sdc_profiler.access_bytes" bytes;
  (* Core engine: plain, recording SDCs, behind a memory channel *)
  let engine ~sdc ~channel =
    Array.map (engine_rate ~budget:(budget /. float_of_int nb) ~sdc ~channel) benches
  in
  let plain = engine ~sdc:false ~channel:false in
  emit "core_engine.step_ns_per_insn" (mean (Array.map fst plain));
  emit "core_engine.step_bytes_per_insn" (mean (Array.map snd plain));
  emit "core_engine.profiled_ns_per_insn"
    (mean (Array.map fst (engine ~sdc:true ~channel:false)));
  emit "core_engine.channel_ns_per_insn"
    (mean (Array.map fst (engine ~sdc:false ~channel:true)));
  (* Single-core profiling and the multi-core simulator *)
  emit "single_core.profile_ms"
    (mean @@ Array.map (fun i ->
         let benchmark = Suite.all.(i) in
         let start = Run.now () in
         ignore
           (Single_core.profile
              (Single_core.config (Configs.baseline ~llc:1 ()))
              ~benchmark ~seed:(Suite.seed_for benchmark.Mppm_trace.Benchmark.name)
              ~trace_instructions:scale.Mppm_experiments.Scale.trace_instructions
              ~interval_instructions:scale.Mppm_experiments.Scale.interval_instructions);
         (Run.now () -. start) *. 1e3) benches);
  let offsets = Multi_core.default_offsets ~seed 16 in
  let programs =
    Array.mapi
      (fun slot i ->
        let benchmark = Suite.all.(i) in
        { Multi_core.benchmark; seed = Suite.seed_for benchmark.Mppm_trace.Benchmark.name;
          offset = offsets.(slot) })
      benches
  in
  let a0 = Gc.allocated_bytes () and t0 = Run.now () in
  let r =
    Multi_core.run (Multi_core.config (Configs.baseline ~llc:1 ())) ~programs
      ~trace_instructions:(scale.Mppm_experiments.Scale.trace_instructions / 4)
  in
  let dt = Run.now () -. t0 in
  let insns =
    float_of_int (Array.fold_left (fun acc p -> acc + p.Multi_core.total_retired) 0 r.Multi_core.programs)
  in
  emit "multi_core.ns_per_insn" (dt *. 1e9 /. insns);
  emit "multi_core.bytes_per_insn" ((Gc.allocated_bytes () -. a0) /. insns);
  (* Profile windows the model requests, and the contention model on
     their SDCs *)
  let profiles m = Array.map (fun i -> Context.profile ctx ~llc_config:1 i) (Mix.indices m) in
  let params = Context.model_params ctx in
  let windows =
    Array.of_list
      (List.concat_map (fun m -> window_cases params (profiles m))
         (Array.to_list (Array.sub mixes 0 (min 20 (Array.length mixes)))))
  in
  let ns, bytes =
    per_call ~budget ~n:(Array.length windows) (fun k ->
        let p, start, count = windows.(k) in
        ignore (Profile.window p ~start ~count))
  in
  emit "profile.window_ns" ns;
  emit "profile.window_bytes" bytes;
  let sdcs n =
    Array.init n (fun k ->
        let p, start, count = windows.(k mod Array.length windows) in
        (Profile.window p ~start ~count).Profile.w_sdc)
  in
  let four = sdcs 4 and sixteen = sdcs 16 in
  emit "contention.foa_4p_ns" (fst (per_call ~budget ~n:1 (fun _ -> ignore (Contention.predict Contention.Foa four))));
  emit "contention.foa_16p_ns" (fst (per_call ~budget ~n:1 (fun _ -> ignore (Contention.predict Contention.Foa sixteen))));
  let saved = Filename.concat o.tmp "replay.prof" in
  let p0 = Context.profile ctx ~llc_config:1 benches.(0) in
  emit "profile.save_ms" (1e3 *. Stats.median (durations ~budget ~n:1 (fun _ -> Profile.save p0 saved)));
  emit "profile.load_ms" (1e3 *. Stats.median (durations ~budget ~n:1 (fun _ -> ignore (Profile.load saved))));
  (* The model, per mix size *)
  let rng = Rng.create ~seed:(seed + 3) in
  List.iter
    (fun cores ->
      let sample = Array.map profiles (Sampler.random_mixes (Rng.split rng) ~cores ~count:5) in
      let us = Stats.median (durations ~budget ~n:5 (fun k -> ignore (Model.predict_profiles params sample.(k)))) *. 1e6 in
      emit (Printf.sprintf "model.predict_%dc_us" cores) us;
      if cores = 4 then begin
        let _, bytes = per_call ~budget ~n:5 (fun k -> ignore (Model.predict_profiles params sample.(k))) in
        let iterations = mean (Array.map (fun ps -> float_of_int (Model.predict_profiles params ps).Model.iterations) sample) in
        emit "model.predict_4c_bytes" bytes;
        emit "model.quantum_4c_ns" (us *. 1e3 /. iterations)
      end)
    [ 2; 4; 8; 16 ];
  let four_mixes = Sampler.random_mixes (Rng.split rng) ~cores:4 ~count:5 in
  emit "context.predict_4c_us"
    (1e6 *. Stats.median (durations ~budget ~n:5 (fun k -> ignore (Context.predict ctx ~llc_config:1 four_mixes.(k)))));
  (* Wire codec and the request handler, on 4-program Predict queries *)
  let requests =
    Array.map
      (fun m -> Wire.Predict { names = Array.to_list (Mix.names m); llc_config = 1 })
      four_mixes
  in
  let responses = Array.map (Dispatch.handle ctx) requests in
  let enc_req = Array.map Wire.encode_request requests in
  let enc_resp = Array.map Wire.encode_response responses in
  emit "wire.encode_request_ns" (fst (per_call ~budget ~n:5 (fun k -> ignore (Wire.encode_request requests.(k)))));
  emit "wire.decode_request_ns" (fst (per_call ~budget ~n:5 (fun k -> ignore (Wire.decode_request enc_req.(k)))));
  emit "wire.encode_response_ns" (fst (per_call ~budget ~n:5 (fun k -> ignore (Wire.encode_response responses.(k)))));
  emit "wire.decode_response_ns" (fst (per_call ~budget ~n:5 (fun k -> ignore (Wire.decode_response enc_resp.(k)))));
  emit "dispatch.handle_us"
    (1e6 *. Stats.median (durations ~budget ~n:5 (fun k -> ignore (Dispatch.handle ctx requests.(k)))));
  (* The domain pool's cost per task *)
  let trivial = Array.init 1000 Fun.id in
  emit "pool.task_overhead_us"
    (Run.with_pool (fun pool ->
         fst (per_call ~budget ~n:1 (fun _ -> ignore (Pool.map pool succ trivial))))
    /. 1e3 /. 1000.0);
  List.rev !out
