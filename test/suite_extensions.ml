(* Tests for the extensions beyond the paper's core: the static
   (phase-unaware) model, the way-partitioned LLC, the partition-aware
   contention model, and the co-phase matrix baseline. *)

module Cache = Mppm_cache.Cache
module Geometry = Mppm_cache.Geometry
module Sdc = Mppm_cache.Sdc
module Configs = Mppm_cache.Configs
module Contention = Mppm_contention.Contention
module Model = Mppm_core.Model
module Static_model = Mppm_core.Static_model
module Profile = Mppm_profile.Profile
module Single_core = Mppm_simcore.Single_core
module Multi_core = Mppm_multicore.Multi_core
module Co_phase = Mppm_cophase.Co_phase
module Suite = Mppm_trace.Suite
module Benchmark = Mppm_trace.Benchmark

let check_close eps = Alcotest.(check (float eps))
let baseline = Configs.baseline ()

(* ---- partitioned cache ----------------------------------------------------- *)

let part_geometry =
  (* 1 set x 4 ways: partition effects fully visible. *)
  Geometry.make ~size_bytes:256 ~line_bytes:64 ~associativity:4

let test_partition_validation () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "quota sum too large" true
    (invalid (fun () -> Cache.create ~partition:[| 3; 3 |] part_geometry));
  Alcotest.(check bool) "zero quota" true
    (invalid (fun () -> Cache.create ~partition:[| 0; 4 |] part_geometry));
  let cache = Cache.create ~partition:[| 2; 2 |] part_geometry in
  Alcotest.(check bool) "owner out of range" true
    (invalid (fun () -> Cache.access_as cache ~owner:2 0))

let test_partition_steady_state_quotas () =
  (* Two owners streaming conflicting lines through one 4-way set: each
     must converge to exactly its quota. *)
  let cache = Cache.create ~partition:[| 2; 2 |] part_geometry in
  let line i = i * 64 in
  for round = 0 to 63 do
    ignore (Cache.access_as cache ~owner:0 (line (round mod 8)));
    ignore (Cache.access_as cache ~owner:1 (line (64 + (round mod 8))))
  done;
  Alcotest.(check int) "owner 0 holds its quota" 2 (Cache.owner_lines cache ~owner:0);
  Alcotest.(check int) "owner 1 holds its quota" 2 (Cache.owner_lines cache ~owner:1)

let test_partition_protects_victim () =
  (* Owner 0 parks two lines and stops; owner 1 streams heavily.  Under
     plain LRU owner 0 would lose everything; under 2/2 partition its lines
     survive. *)
  let cache = Cache.create ~partition:[| 2; 2 |] part_geometry in
  ignore (Cache.access_as cache ~owner:0 0);
  ignore (Cache.access_as cache ~owner:0 64);
  for i = 0 to 99 do
    ignore (Cache.access_as cache ~owner:1 ((i + 10) * 64))
  done;
  Alcotest.(check bool) "line 0 survived" true (Cache.probe cache 0);
  Alcotest.(check bool) "line 64 survived" true (Cache.probe cache 64);
  (* Control: same traffic on an unpartitioned cache evicts them. *)
  let shared = Cache.create part_geometry in
  ignore (Cache.access_as shared ~owner:0 0);
  ignore (Cache.access_as shared ~owner:0 64);
  for i = 0 to 99 do
    ignore (Cache.access_as shared ~owner:1 ((i + 10) * 64))
  done;
  Alcotest.(check bool) "unpartitioned control loses the lines" false
    (Cache.probe shared 0)

let test_partition_under_quota_can_borrow () =
  (* With quotas 1/1 on 4 ways, spare capacity exists; an active owner can
     hold more than its quota until the other owner claims lines. *)
  let cache = Cache.create ~partition:[| 1; 1 |] part_geometry in
  for i = 0 to 3 do
    ignore (Cache.access_as cache ~owner:0 (i * 64))
  done;
  Alcotest.(check int) "borrows all ways while alone" 4
    (Cache.owner_lines cache ~owner:0);
  (* Owner 1 arrives: it must be able to claim a line (owner 0 is over
     quota). *)
  ignore (Cache.access_as cache ~owner:1 (100 * 64));
  Alcotest.(check int) "newcomer claims a way" 1 (Cache.owner_lines cache ~owner:1);
  Alcotest.(check int) "incumbent shrinks" 3 (Cache.owner_lines cache ~owner:0)

let test_partitioned_multicore_runs () =
  let offsets = Multi_core.default_offsets 2 in
  let spec name offset =
    { Multi_core.benchmark = Suite.find name; seed = Suite.seed_for name; offset }
  in
  let programs = [| spec "gamess" offsets.(0); spec "soplex" offsets.(1) |] in
  let shared =
    Multi_core.run (Multi_core.config baseline) ~programs
      ~trace_instructions:100_000
  in
  let partitioned =
    Multi_core.run
      (Multi_core.config ~llc_partition:[| 4; 4 |] baseline)
      ~programs ~trace_instructions:100_000
  in
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) "cycles positive" true (p.Multi_core.cycles > 0.0);
      ignore shared.Multi_core.programs.(i))
    partitioned.Multi_core.programs;
  Alcotest.(check bool) "partition too small raises" true
    (try
       ignore
         (Multi_core.run
            (Multi_core.config ~llc_partition:[| 8 |] baseline)
            ~programs ~trace_instructions:10_000);
       false
     with Invalid_argument _ -> true)

(* ---- Way_partition contention model ----------------------------------------- *)

let uniform_sdc ~assoc ~depth ~per_depth ~misses =
  let counters =
    List.init (assoc + 1) (fun i ->
        if i < depth then per_depth else if i = assoc then misses else 0.0)
  in
  Sdc.of_list ~assoc counters

let test_way_partition_contention () =
  let a = uniform_sdc ~assoc:8 ~depth:8 ~per_depth:10.0 ~misses:0.0 in
  let b = uniform_sdc ~assoc:8 ~depth:2 ~per_depth:10.0 ~misses:1.0 in
  let p = Contention.predict (Contention.Way_partition [| 4.0; 4.0 |]) [| a; b |] in
  (* a loses its hits deeper than 4 ways; b fits entirely in its quota. *)
  check_close 1e-9 "a extra" 40.0 p.Contention.extra_misses.(0);
  check_close 1e-9 "b extra" 0.0 p.Contention.extra_misses.(1);
  check_close 1e-9 "quota as ways" 4.0 p.Contention.effective_ways.(0);
  (* Independence: b's quota result does not depend on a's traffic. *)
  let heavy = uniform_sdc ~assoc:8 ~depth:8 ~per_depth:1000.0 ~misses:50.0 in
  let p2 = Contention.predict (Contention.Way_partition [| 4.0; 4.0 |]) [| heavy; b |] in
  check_close 1e-9 "partition isolates b" p.Contention.shared_misses.(1)
    p2.Contention.shared_misses.(1)

(* ---- static model -------------------------------------------------------------- *)

let stationary_profile ?(name = "s") ~cpi ~stall_per_miss ~accesses ~miss_fraction
    ~hit_depth () =
  let misses = accesses *. miss_fraction in
  let hits = accesses -. misses in
  let make_interval _ =
    let sdc = Sdc.create ~assoc:8 in
    let record n depth =
      for _ = 1 to int_of_float n do Sdc.record sdc ~depth done
    in
    record hits hit_depth;
    record misses 9;
    { Profile.instructions = 1_000; cycles = cpi *. 1000.0;
      memory_stall_cycles = stall_per_miss *. misses;
      llc_accesses = accesses; llc_misses = misses; sdc }
  in
  Profile.make ~benchmark:name ~interval_instructions:1_000 ~llc_assoc:8
    (Array.init 10 make_interval)

let test_static_single_program () =
  let p = stationary_profile ~cpi:1.0 ~stall_per_miss:50.0 ~accesses:100.0
      ~miss_fraction:0.1 ~hit_depth:4 () in
  let r = Static_model.predict Static_model.default_params [| p |] in
  check_close 1e-6 "slowdown 1" 1.0 r.Model.programs.(0).Model.slowdown

let test_static_matches_mppm_on_stationary () =
  (* With no phase behaviour the static solver and the iterative model must
     agree: MPPM's extra machinery only matters for time-varying
     workloads. *)
  let inputs () =
    [|
      stationary_profile ~name:"a" ~cpi:1.0 ~stall_per_miss:60.0 ~accesses:100.0
        ~miss_fraction:0.1 ~hit_depth:6 ();
      stationary_profile ~name:"b" ~cpi:1.0 ~stall_per_miss:60.0 ~accesses:100.0
        ~miss_fraction:0.1 ~hit_depth:6 ();
    |]
  in
  let static = Static_model.predict Static_model.default_params (inputs ()) in
  let iterative =
    Model.predict_profiles (Model.default_params ~trace_instructions:10_000)
      (inputs ())
  in
  check_close 2e-2 "same slowdown" iterative.Model.programs.(0).Model.slowdown
    static.Model.programs.(0).Model.slowdown;
  check_close 2e-2 "same stp" iterative.Model.stp static.Model.stp

let test_static_converges () =
  let p () = stationary_profile ~cpi:0.8 ~stall_per_miss:100.0 ~accesses:200.0
      ~miss_fraction:0.2 ~hit_depth:7 () in
  let r = Static_model.predict Static_model.default_params [| p (); p (); p () |] in
  Alcotest.(check bool) "converged before the cap" true
    (r.Model.iterations < Static_model.default_params.Static_model.max_iterations);
  Array.iter
    (fun prog -> Alcotest.(check bool) "slowdown sane" true
        (prog.Model.slowdown >= 1.0 && prog.Model.slowdown < 50.0))
    r.Model.programs

let test_static_validations () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "no programs" true
    (invalid (fun () -> Static_model.predict Static_model.default_params [||]));
  Alcotest.(check bool) "bad damping" true
    (invalid (fun () ->
         Static_model.predict
           { Static_model.default_params with Static_model.damping = 1.0 }
           [| stationary_profile ~cpi:1.0 ~stall_per_miss:1.0 ~accesses:1.0
                ~miss_fraction:0.5 ~hit_depth:1 () |]))

(* ---- memory bandwidth ------------------------------------------------------------ *)

module Memory_channel = Mppm_simcore.Memory_channel

let test_channel_basic () =
  let ch = Memory_channel.create ~transfer_cycles:10.0 in
  check_close 1e-9 "idle: no delay" 0.0 (Memory_channel.request ch ~now:100.0);
  (* Second request 4 cycles later queues behind the 10-cycle transfer. *)
  check_close 1e-9 "queued behind" 6.0 (Memory_channel.request ch ~now:104.0);
  (* Far in the future: idle again. *)
  check_close 1e-9 "idle again" 0.0 (Memory_channel.request ch ~now:1000.0);
  Alcotest.(check int) "transfers" 3 (Memory_channel.transfers ch);
  check_close 1e-9 "total queueing" 6.0 (Memory_channel.total_queueing ch);
  Memory_channel.reset ch;
  Alcotest.(check int) "reset" 0 (Memory_channel.transfers ch)

let test_channel_saturation () =
  let ch = Memory_channel.create ~transfer_cycles:10.0 in
  (* Requests every cycle: queueing grows unboundedly. *)
  let last = ref 0.0 in
  for i = 0 to 99 do
    last := Memory_channel.request ch ~now:(float_of_int i)
  done;
  Alcotest.(check bool) "deep queue" true (!last > 800.0);
  Alcotest.(check bool) "utilization ~1" true
    (Memory_channel.utilization ch ~now:1000.0 > 0.9)

let test_bandwidth_slows_memory_bound () =
  (* lbm misses arrive roughly every ~55 cycles; a channel slower than
     that (80 cycles/line) is over-subscribed even by one program, so the
     isolated run must slow down visibly; a fast channel (4 cycles/line)
     must be nearly free. *)
  let run bandwidth =
    (Single_core.run
       (Single_core.config ?bandwidth baseline)
       ~benchmark:(Suite.find "lbm") ~seed:(Suite.seed_for "lbm")
       ~instructions:200_000)
      .Single_core.cycles
  in
  let unlimited = run None in
  Alcotest.(check bool) "slow channel adds self-queueing" true
    (run (Some 80.0) > 1.2 *. unlimited);
  Alcotest.(check bool) "fast channel nearly free" true
    (run (Some 4.0) < 1.05 *. unlimited)

let test_bandwidth_counter_two_run_agree () =
  let cfg = Single_core.config ~bandwidth:16.0 baseline in
  let counter =
    (Single_core.run cfg ~benchmark:(Suite.find "lbm")
       ~seed:(Suite.seed_for "lbm") ~instructions:100_000)
      .Single_core.memory_cpi
  in
  let two_run =
    Single_core.memory_cpi_two_run cfg ~benchmark:(Suite.find "lbm")
      ~seed:(Suite.seed_for "lbm") ~instructions:100_000
  in
  check_close 1e-6 "methods agree with a channel" two_run counter

let test_shared_channel_creates_contention () =
  (* Two heavy streams hardly interact in the LLC (both stream), but a
     narrow shared channel makes them slow each other down. *)
  let offsets = Multi_core.default_offsets 2 in
  let spec name offset =
    { Multi_core.benchmark = Suite.find name; seed = Suite.seed_for name; offset }
  in
  let programs = [| spec "lbm" offsets.(0); spec "GemsFDTD" offsets.(1) |] in
  let trace = 200_000 in
  let cycles_of cfg =
    Array.map
      (fun p -> p.Multi_core.cycles)
      (Multi_core.run cfg ~programs ~trace_instructions:trace).Multi_core.programs
  in
  let unshared = cycles_of (Multi_core.config baseline) in
  let shared = cycles_of (Multi_core.config ~bandwidth:48.0 baseline) in
  (* Against own-channel isolated runs to isolate the sharing effect. *)
  let isolated name =
    (Single_core.run
       (Single_core.config ~bandwidth:48.0 baseline)
       ~benchmark:(Suite.find name) ~seed:(Suite.seed_for name)
       ~instructions:trace)
      .Single_core.cycles
  in
  let slowdown_0 = shared.(0) /. isolated "lbm" in
  Alcotest.(check bool) "bandwidth sharing slows lbm" true (slowdown_0 > 1.1);
  Alcotest.(check bool) "more than pure LLC sharing did" true
    (shared.(0) > unshared.(0))

let test_model_bandwidth_term () =
  let p () = stationary_profile ~cpi:1.0 ~stall_per_miss:80.0 ~accesses:100.0
      ~miss_fraction:0.5 ~hit_depth:2 () in
  let base = Model.default_params ~trace_instructions:10_000 in
  let without = Model.predict_profiles base [| p (); p (); p (); p () |] in
  let with_bw =
    Model.predict_profiles
      { base with
        Model.bandwidth =
          Some { Model.transfer_cycles = 16.0; exposed_fraction = 0.5 } }
      [| p (); p (); p (); p () |]
  in
  Alcotest.(check bool) "queueing term raises slowdowns" true
    (with_bw.Model.programs.(0).Model.slowdown
    > without.Model.programs.(0).Model.slowdown);
  Alcotest.(check bool) "bad bandwidth rejected" true
    (try
       ignore
         (Model.predict_profiles
            { base with
              Model.bandwidth =
                Some { Model.transfer_cycles = 0.0; exposed_fraction = 0.5 } }
            [| p () |]);
       false
     with Invalid_argument _ -> true)

(* ---- heterogeneous cores ----------------------------------------------------- *)

let test_compute_scale_exact_decomposition () =
  (* A 2x-slower core doubles exactly the non-memory-stall cycles. *)
  let cfg = Single_core.config baseline in
  let big = Single_core.run cfg ~benchmark:(Suite.find "soplex")
      ~seed:(Suite.seed_for "soplex") ~instructions:100_000 in
  let little = Single_core.run ~compute_scale:2.0 cfg
      ~benchmark:(Suite.find "soplex") ~seed:(Suite.seed_for "soplex")
      ~instructions:100_000 in
  check_close 1e-6 "memory stall invariant" big.Single_core.memory_stall_cycles
    little.Single_core.memory_stall_cycles;
  check_close 1e-3 "compute cycles doubled"
    ((2.0 *. (big.Single_core.cycles -. big.Single_core.memory_stall_cycles))
    +. big.Single_core.memory_stall_cycles)
    little.Single_core.cycles

let test_compute_scale_profile_matches_transform () =
  (* Profiling on a little core equals the per-interval transform the
     heterogeneous example applies to big-core profiles. *)
  let cfg = Single_core.config baseline in
  let args b = (b, Suite.seed_for "gamess") in
  let benchmark, seed = args (Suite.find "gamess") in
  let big = Single_core.profile cfg ~benchmark ~seed ~trace_instructions:100_000
      ~interval_instructions:10_000 in
  let little = Single_core.profile ~compute_scale:1.7 cfg ~benchmark ~seed
      ~trace_instructions:100_000 ~interval_instructions:10_000 in
  let little = Profile.intervals little in
  Array.iteri
    (fun i iv ->
      let jv = little.(i) in
      check_close 1e-6 "interval transform"
        ((1.7 *. (iv.Profile.cycles -. iv.Profile.memory_stall_cycles))
        +. iv.Profile.memory_stall_cycles)
        jv.Profile.cycles;
      check_close 1e-6 "stall invariant" iv.Profile.memory_stall_cycles
        jv.Profile.memory_stall_cycles)
    (Profile.intervals big)

let test_hetero_multicore_single_program () =
  let offsets = Multi_core.default_offsets 1 in
  let programs =
    [| { Multi_core.benchmark = Suite.find "gobmk";
         seed = Suite.seed_for "gobmk"; offset = offsets.(0) } |]
  in
  let multi =
    Multi_core.run ~compute_scales:[| 1.5 |] (Multi_core.config baseline)
      ~programs ~trace_instructions:50_000
  in
  let single =
    Single_core.run ~compute_scale:1.5 (Single_core.config baseline)
      ~benchmark:(Suite.find "gobmk") ~seed:(Suite.seed_for "gobmk")
      ~instructions:50_000
  in
  check_close 1e-6 "hetero 1-core = scaled single-core"
    single.Single_core.cycles multi.Multi_core.programs.(0).Multi_core.cycles

let test_hetero_model_tracks_hetero_sim () =
  (* MPPM fed little-core profiles must track the heterogeneous detailed
     simulation. *)
  let trace = 200_000 in
  let interval = trace / 50 in
  let cfg = Single_core.config baseline in
  let scales = [| 1.0; 2.0 |] in
  let names = [| "gamess"; "hmmer" |] in
  let profiles =
    Array.mapi
      (fun i name ->
        Single_core.profile ~compute_scale:scales.(i) cfg
          ~benchmark:(Suite.find name) ~seed:(Suite.seed_for name)
          ~trace_instructions:trace ~interval_instructions:interval)
      names
  in
  let predicted =
    Model.predict_profiles (Model.default_params ~trace_instructions:trace)
      profiles
  in
  let offsets = Multi_core.default_offsets 2 in
  let detail =
    Multi_core.run ~compute_scales:scales (Multi_core.config baseline)
      ~programs:
        (Array.mapi
           (fun i name ->
             { Multi_core.benchmark = Suite.find name;
               seed = Suite.seed_for name; offset = offsets.(i) })
           names)
      ~trace_instructions:trace
  in
  let cpi_single = Array.map Profile.cpi profiles in
  let cpi_multi =
    Array.map
      (fun p -> p.Multi_core.multicore_cpi)
      detail.Multi_core.programs
  in
  let stp = Mppm_core.Metrics.stp ~cpi_single ~cpi_multi in
  Alcotest.(check bool) "hetero STP within 15%" true
    (abs_float (predicted.Model.stp -. stp) /. stp < 0.15)

(* ---- co-phase matrix -------------------------------------------------------------- *)

let cophase_config = Co_phase.config ~window_instructions:50_000 baseline

let spec name offset =
  { Co_phase.benchmark = Suite.find name; seed = Suite.seed_for name; offset }

let test_cophase_matrix_size () =
  let offsets = Multi_core.default_offsets 2 in
  (* bzip2 has 2 phases, gcc has 2: at most 4 co-phases can ever exist. *)
  let t =
    Co_phase.create cophase_config
      ~programs:[| spec "bzip2" offsets.(0); spec "gcc" offsets.(1) |]
  in
  let r = Co_phase.predict t ~trace_instructions:200_000 in
  Alcotest.(check bool) "at most 4 co-phases" true (r.Co_phase.co_phases_measured <= 4);
  Alcotest.(check bool) "at least 2 co-phases visited" true
    (r.Co_phase.co_phases_measured >= 2);
  Alcotest.(check int) "matrix size agrees" r.Co_phase.co_phases_measured
    (Co_phase.matrix_size t)

let test_cophase_single_phase_mix () =
  let offsets = Multi_core.default_offsets 2 in
  let t =
    Co_phase.create cophase_config
      ~programs:[| spec "gamess" offsets.(0); spec "soplex" offsets.(1) |]
  in
  let r = Co_phase.predict t ~trace_instructions:100_000 in
  Alcotest.(check int) "one co-phase" 1 r.Co_phase.co_phases_measured;
  Array.iter
    (fun cpi -> Alcotest.(check bool) "cpi positive" true (cpi > 0.0))
    r.Co_phase.cpi_multi

let test_cophase_matrix_reuse () =
  let offsets = Multi_core.default_offsets 2 in
  let t =
    Co_phase.create cophase_config
      ~programs:[| spec "bzip2" offsets.(0); spec "gcc" offsets.(1) |]
  in
  let r1 = Co_phase.predict t ~trace_instructions:100_000 in
  let cost1 = r1.Co_phase.detailed_instructions in
  let r2 = Co_phase.predict t ~trace_instructions:200_000 in
  (* A longer walk may touch co-phases the shorter one missed, but mostly
     reuses the matrix: cost must grow sub-linearly (here: by at most the
     unseen entries). *)
  Alcotest.(check bool) "matrix reused" true
    (r2.Co_phase.detailed_instructions <= cost1 * 4);
  ignore r2

let test_cophase_tracks_detailed () =
  (* Co-phase rates are measured over warm windows (steady state), so the
     reconstruction should track a detailed reference long enough for
     cold-start effects to amortize. *)
  let offsets = Multi_core.default_offsets 2 in
  let names = [| "gamess"; "soplex" |] in
  let trace = 1_000_000 in
  let t =
    Co_phase.create
      (Co_phase.config ~window_instructions:100_000 baseline)
      ~programs:[| spec names.(0) offsets.(0); spec names.(1) offsets.(1) |]
  in
  let predicted = Co_phase.predict t ~trace_instructions:trace in
  let detailed =
    Multi_core.run (Multi_core.config baseline)
      ~programs:
        (Array.mapi
           (fun i name ->
             { Multi_core.benchmark = Suite.find name;
               seed = Suite.seed_for name; offset = offsets.(i) })
           names)
      ~trace_instructions:trace
  in
  Array.iteri
    (fun i p ->
      let measured = p.Multi_core.multicore_cpi in
      let err =
        abs_float (predicted.Co_phase.cpi_multi.(i) -. measured) /. measured
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 10%%" names.(i))
        true (err < 0.10))
    detailed.Multi_core.programs

let tests =
  [
    ( "extensions.partitioned_cache",
      [
        Alcotest.test_case "validation" `Quick test_partition_validation;
        Alcotest.test_case "steady-state quotas" `Quick test_partition_steady_state_quotas;
        Alcotest.test_case "protects the victim" `Quick test_partition_protects_victim;
        Alcotest.test_case "borrowing under quota" `Quick test_partition_under_quota_can_borrow;
        Alcotest.test_case "multicore integration" `Quick test_partitioned_multicore_runs;
      ] );
    ( "extensions.way_partition_model",
      [
        Alcotest.test_case "quota semantics" `Quick test_way_partition_contention;
      ] );
    ( "extensions.static_model",
      [
        Alcotest.test_case "single program" `Quick test_static_single_program;
        Alcotest.test_case "matches MPPM on stationary inputs" `Quick
          test_static_matches_mppm_on_stationary;
        Alcotest.test_case "converges" `Quick test_static_converges;
        Alcotest.test_case "validations" `Quick test_static_validations;
      ] );
    ( "extensions.heterogeneous",
      [
        Alcotest.test_case "exact cycle decomposition" `Quick
          test_compute_scale_exact_decomposition;
        Alcotest.test_case "profile matches transform" `Quick
          test_compute_scale_profile_matches_transform;
        Alcotest.test_case "1-core heterogeneous" `Quick
          test_hetero_multicore_single_program;
        Alcotest.test_case "model tracks hetero sim" `Slow
          test_hetero_model_tracks_hetero_sim;
      ] );
    ( "extensions.bandwidth",
      [
        Alcotest.test_case "channel basics" `Quick test_channel_basic;
        Alcotest.test_case "channel saturation" `Quick test_channel_saturation;
        Alcotest.test_case "self-queueing" `Quick test_bandwidth_slows_memory_bound;
        Alcotest.test_case "counter = two-run with channel" `Quick
          test_bandwidth_counter_two_run_agree;
        Alcotest.test_case "shared channel contention" `Slow
          test_shared_channel_creates_contention;
        Alcotest.test_case "model queueing term" `Quick test_model_bandwidth_term;
      ] );
    ( "extensions.cophase",
      [
        Alcotest.test_case "matrix size" `Slow test_cophase_matrix_size;
        Alcotest.test_case "single-phase mix" `Quick test_cophase_single_phase_mix;
        Alcotest.test_case "matrix reuse" `Slow test_cophase_matrix_reuse;
        Alcotest.test_case "tracks detailed simulation" `Slow test_cophase_tracks_detailed;
      ] );
  ]
