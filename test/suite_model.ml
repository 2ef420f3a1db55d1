(* Tests for mppm_core: the metrics and the MPPM iterative model itself,
   including hand-built fixed-point scenarios and the end-to-end accuracy
   contract against the detailed simulator. *)

module Model = Mppm_core.Model
module Metrics = Mppm_core.Metrics
module Profile = Mppm_profile.Profile
module Sdc = Mppm_cache.Sdc
module Contention = Mppm_contention.Contention
module Configs = Mppm_cache.Configs
module Single_core = Mppm_simcore.Single_core
module Multi_core = Mppm_multicore.Multi_core
module Suite = Mppm_trace.Suite

let check_close eps = Alcotest.(check (float eps))

(* ---- Metrics ------------------------------------------------------------ *)

let test_metrics_known_values () =
  let cpi_single = [| 1.0; 2.0 |] in
  let cpi_multi = [| 2.0; 2.0 |] in
  (* STP = 1/2 + 2/2 = 1.5; ANTT = (2 + 1)/2 = 1.5. *)
  check_close 1e-9 "stp" 1.5 (Metrics.stp ~cpi_single ~cpi_multi);
  check_close 1e-9 "antt" 1.5 (Metrics.antt ~cpi_single ~cpi_multi);
  Alcotest.(check (array (float 1e-9))) "slowdowns" [| 2.0; 1.0 |]
    (Metrics.slowdowns ~cpi_single ~cpi_multi)

let test_metrics_ideal () =
  let cpi = [| 0.5; 1.5; 3.0; 0.7 |] in
  check_close 1e-9 "no contention: STP = n" 4.0
    (Metrics.stp ~cpi_single:cpi ~cpi_multi:cpi);
  check_close 1e-9 "no contention: ANTT = 1" 1.0
    (Metrics.antt ~cpi_single:cpi ~cpi_multi:cpi)

let test_metrics_slowdown_forms_agree () =
  let cpi_single = [| 1.0; 2.0; 0.5 |] in
  let cpi_multi = [| 1.5; 2.2; 0.9 |] in
  let s = Metrics.slowdowns ~cpi_single ~cpi_multi in
  check_close 1e-9 "stp forms" (Metrics.stp ~cpi_single ~cpi_multi)
    (Metrics.stp_of_slowdowns s);
  check_close 1e-9 "antt forms" (Metrics.antt ~cpi_single ~cpi_multi)
    (Metrics.antt_of_slowdowns s)

let test_metrics_validations () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "length mismatch" true
    (invalid (fun () -> Metrics.stp ~cpi_single:[| 1.0 |] ~cpi_multi:[| 1.0; 2.0 |]));
  Alcotest.(check bool) "zero cpi" true
    (invalid (fun () -> Metrics.antt ~cpi_single:[| 0.0 |] ~cpi_multi:[| 1.0 |]))

(* ---- synthetic profiles --------------------------------------------------- *)

let assoc = 8

(* A stationary profile: every interval identical.  [hit_depth] places all
   LLC hits at one stack depth, so contention effects are predictable. *)
let stationary_profile ?(name = "stationary") ~cpi ~stall_per_miss ~accesses_per_interval
    ~miss_fraction ~hit_depth () =
  let interval_instructions = 1_000 in
  let misses = accesses_per_interval *. miss_fraction in
  let hits = accesses_per_interval -. misses in
  let make_interval _ =
    let sdc = Sdc.create ~assoc in
    let record n depth =
      for _ = 1 to int_of_float n do
        Sdc.record sdc ~depth
      done
    in
    record hits hit_depth;
    record misses (assoc + 1);
    {
      Profile.instructions = interval_instructions;
      cycles = cpi *. float_of_int interval_instructions;
      memory_stall_cycles = stall_per_miss *. misses;
      llc_accesses = accesses_per_interval;
      llc_misses = misses;
      sdc;
    }
  in
  Profile.make ~benchmark:name ~interval_instructions ~llc_assoc:assoc
    (Array.init 10 make_interval)

let default_params =
  Model.default_params ~trace_instructions:10_000

(* ---- Model: degenerate and structural cases ------------------------------- *)

let test_model_single_program_is_identity () =
  let p = stationary_profile ~cpi:1.0 ~stall_per_miss:50.0
      ~accesses_per_interval:100.0 ~miss_fraction:0.1 ~hit_depth:4 () in
  let r = Model.predict_profiles default_params [| p |] in
  check_close 1e-9 "slowdown 1" 1.0 r.Model.programs.(0).Model.slowdown;
  check_close 1e-9 "stp 1" 1.0 r.Model.stp;
  check_close 1e-9 "antt 1" 1.0 r.Model.antt

let test_model_no_llc_traffic_no_slowdown () =
  let quiet () = stationary_profile ~cpi:0.5 ~stall_per_miss:0.0
      ~accesses_per_interval:0.0 ~miss_fraction:0.0 ~hit_depth:1 () in
  let r = Model.predict_profiles default_params [| quiet (); quiet (); quiet (); quiet () |] in
  Array.iter
    (fun p -> check_close 1e-9 "no traffic, no slowdown" 1.0 p.Model.slowdown)
    r.Model.programs;
  check_close 1e-9 "stp = n" 4.0 r.Model.stp

let test_model_iteration_count () =
  let p () = stationary_profile ~cpi:1.0 ~stall_per_miss:10.0
      ~accesses_per_interval:50.0 ~miss_fraction:0.2 ~hit_depth:2 () in
  let inputs =
    Array.map
      (fun profile -> { Model.label = profile.Profile.benchmark; profile })
      [| p (); p () |]
  in
  let r, history = Model.predict_with_history default_params inputs in
  (* Equal programs advance L = trace/5 per iteration; the stop criterion
     is 5 traces, so 25 iterations. *)
  Alcotest.(check int) "25 iterations" 25 r.Model.iterations;
  Alcotest.(check int) "history length" 25 (List.length history);
  List.iter
    (fun rec_ ->
      Alcotest.(check bool) "epoch cycles positive" true (rec_.Model.epoch_cycles > 0.0);
      Array.iter
        (fun n -> Alcotest.(check bool) "progress >= L" true (n >= 2_000.0 -. 1e-6))
        rec_.Model.progress)
    history

let test_model_instructions_modelled () =
  let p () = stationary_profile ~cpi:1.0 ~stall_per_miss:10.0
      ~accesses_per_interval:50.0 ~miss_fraction:0.2 ~hit_depth:2 () in
  let r = Model.predict_profiles default_params [| p (); p () |] in
  Array.iter
    (fun prog ->
      Alcotest.(check bool) "stop criterion reached" true
        (prog.Model.instructions_modelled >= 5.0 *. 10_000.0 -. 1e-6))
    r.Model.programs

let test_model_fast_program_advances_further () =
  let fast = stationary_profile ~name:"fast" ~cpi:0.5 ~stall_per_miss:0.0
      ~accesses_per_interval:0.0 ~miss_fraction:0.0 ~hit_depth:1 () in
  let slow = stationary_profile ~name:"slow" ~cpi:2.0 ~stall_per_miss:0.0
      ~accesses_per_interval:0.0 ~miss_fraction:0.0 ~hit_depth:1 () in
  let r = Model.predict_profiles default_params [| fast; slow |] in
  let by_name name =
    Array.to_list r.Model.programs
    |> List.find (fun p -> p.Model.name = name)
  in
  (* The fast program runs 4x more instructions in the same cycles. *)
  check_close 1e-3 "4x progress ratio" 4.0
    ((by_name "fast").Model.instructions_modelled
    /. (by_name "slow").Model.instructions_modelled)

let test_model_validations () =
  let p () = stationary_profile ~cpi:1.0 ~stall_per_miss:10.0
      ~accesses_per_interval:50.0 ~miss_fraction:0.2 ~hit_depth:2 () in
  let invalid params inputs =
    try ignore (Model.predict_profiles params inputs); false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "no programs" true (invalid default_params [||]);
  Alcotest.(check bool) "bad smoothing" true
    (invalid { default_params with Model.smoothing = 1.0 } [| p () |]);
  Alcotest.(check bool) "bad L" true
    (invalid { default_params with Model.iteration_instructions = 0 } [| p () |]);
  Alcotest.(check bool) "bad stop" true
    (invalid { default_params with Model.stop_trace_multiplier = 0.0 } [| p () |])

let test_model_smoothing_converges_same_fixed_point () =
  (* For stationary workloads the EMA factor must not change the fixed
     point, only the path to it. *)
  let inputs () =
    [|
      stationary_profile ~name:"a" ~cpi:1.0 ~stall_per_miss:80.0
        ~accesses_per_interval:100.0 ~miss_fraction:0.05 ~hit_depth:6 ();
      stationary_profile ~name:"b" ~cpi:1.0 ~stall_per_miss:80.0
        ~accesses_per_interval:100.0 ~miss_fraction:0.05 ~hit_depth:6 ();
    |]
  in
  let slowdown f =
    (* Run long enough that even a heavily smoothed EMA settles. *)
    let params =
      { default_params with Model.smoothing = f; stop_trace_multiplier = 25.0 }
    in
    (Model.predict_profiles params (inputs ())).Model.programs.(0).Model.slowdown
  in
  check_close 1e-2 "f=0 vs f=0.5" (slowdown 0.0) (slowdown 0.5);
  check_close 1e-2 "f=0.5 vs f=0.8" (slowdown 0.5) (slowdown 0.8)

let test_model_fixed_point_closed_form () =
  (* Two identical programs, all hits at depth 6 of 8 ways.  FOA gives each
     4 ways, so every hit becomes a miss: extra = hits per window.  With
     the Consistent rule the fixed point solves
       R = 1 + extra * penalty * R / C,  C = cpi * R * N
     i.e. R = 1 + (extra * penalty) / (cpi * N). *)
  let cpi = 1.0 and stall_per_miss = 60.0 in
  let accesses = 100.0 and miss_fraction = 0.1 in
  let inputs =
    [|
      stationary_profile ~name:"a" ~cpi ~stall_per_miss
        ~accesses_per_interval:accesses ~miss_fraction ~hit_depth:6 ();
      stationary_profile ~name:"b" ~cpi ~stall_per_miss
        ~accesses_per_interval:accesses ~miss_fraction ~hit_depth:6 ();
    |]
  in
  let r =
    Model.predict_profiles
      { default_params with Model.update_rule = Model.Consistent }
      inputs
  in
  let hits_per_insn = accesses *. (1.0 -. miss_fraction) /. 1000.0 in
  let expected = 1.0 +. (hits_per_insn *. stall_per_miss /. cpi) in
  check_close 1e-2 "closed-form fixed point" expected
    r.Model.programs.(0).Model.slowdown

let test_model_paper_vs_consistent_update () =
  (* The paper-literal rule divides miss cycles by the epoch's wall time
     rather than the program's own isolated time, so it predicts smaller
     slowdowns once R > 1. *)
  let inputs =
    [|
      stationary_profile ~name:"a" ~cpi:1.0 ~stall_per_miss:80.0
        ~accesses_per_interval:100.0 ~miss_fraction:0.1 ~hit_depth:6 ();
      stationary_profile ~name:"b" ~cpi:1.0 ~stall_per_miss:80.0
        ~accesses_per_interval:100.0 ~miss_fraction:0.1 ~hit_depth:6 ();
    |]
  in
  let slowdown rule =
    (Model.predict_profiles { default_params with Model.update_rule = rule } inputs)
      .Model.programs.(0)
      .Model.slowdown
  in
  let paper = slowdown Model.Paper_literal in
  let consistent = slowdown Model.Consistent in
  Alcotest.(check bool) "both predict contention" true (paper > 1.1 && consistent > 1.1);
  Alcotest.(check bool) "paper-literal is the smaller" true (paper < consistent)

let test_contention_model_is_pluggable () =
  let inputs =
    [|
      stationary_profile ~name:"a" ~cpi:1.0 ~stall_per_miss:80.0
        ~accesses_per_interval:100.0 ~miss_fraction:0.1 ~hit_depth:6 ();
      stationary_profile ~name:"b" ~cpi:1.0 ~stall_per_miss:80.0
        ~accesses_per_interval:20.0 ~miss_fraction:0.1 ~hit_depth:2 ();
    |]
  in
  List.iter
    (fun contention ->
      let r =
        Model.predict_profiles { default_params with Model.contention } inputs
      in
      Array.iter
        (fun p ->
          Alcotest.(check bool) "slowdown >= 1" true (p.Model.slowdown >= 1.0 -. 1e-9))
        r.Model.programs)
    [ Contention.Foa; Contention.Sdc_competition; Contention.Prob { iterations = 5 } ]

let test_model_deterministic () =
  let inputs () =
    [|
      stationary_profile ~name:"a" ~cpi:1.0 ~stall_per_miss:80.0
        ~accesses_per_interval:100.0 ~miss_fraction:0.1 ~hit_depth:6 ();
      stationary_profile ~name:"b" ~cpi:0.7 ~stall_per_miss:40.0
        ~accesses_per_interval:60.0 ~miss_fraction:0.3 ~hit_depth:3 ();
    |]
  in
  let a = Model.predict_profiles default_params (inputs ()) in
  let b = Model.predict_profiles default_params (inputs ()) in
  Array.iteri
    (fun i p ->
      check_close 1e-12 "deterministic" p.Model.slowdown
        b.Model.programs.(i).Model.slowdown)
    a.Model.programs

(* ---- Model vs detailed simulation (the paper's accuracy contract) --------- *)

let test_model_tracks_detailed_simulation () =
  let trace = 200_000 in
  let interval = trace / 50 in
  let hierarchy = Configs.baseline () in
  let names = [| "gamess"; "gamess"; "hmmer"; "soplex" |] in
  let profiles =
    Array.map
      (fun name ->
        Single_core.profile (Single_core.config hierarchy)
          ~benchmark:(Suite.find name) ~seed:(Suite.seed_for name)
          ~trace_instructions:trace ~interval_instructions:interval)
      names
  in
  let predicted =
    Model.predict_profiles (Model.default_params ~trace_instructions:trace) profiles
  in
  let offsets = Multi_core.default_offsets (Array.length names) in
  let detailed =
    Multi_core.run (Multi_core.config hierarchy)
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
    Array.map (fun p -> p.Multi_core.multicore_cpi) detailed.Multi_core.programs
  in
  let stp = Metrics.stp ~cpi_single ~cpi_multi in
  let antt = Metrics.antt ~cpi_single ~cpi_multi in
  Alcotest.(check bool) "STP within 15%" true
    (abs_float (predicted.Model.stp -. stp) /. stp < 0.15);
  Alcotest.(check bool) "ANTT within 15%" true
    (abs_float (predicted.Model.antt -. antt) /. antt < 0.15);
  (* And the ordering of slowdowns must match: gamess > soplex > hmmer. *)
  let by_name name =
    Array.to_list predicted.Model.programs
    |> List.find (fun p -> p.Model.name = name)
  in
  Alcotest.(check bool) "gamess most sensitive" true
    ((by_name "gamess").Model.slowdown > (by_name "soplex").Model.slowdown);
  Alcotest.(check bool) "soplex above hmmer" true
    ((by_name "soplex").Model.slowdown > (by_name "hmmer").Model.slowdown)

let tests =
  [
    ( "core.metrics",
      [
        Alcotest.test_case "known values" `Quick test_metrics_known_values;
        Alcotest.test_case "ideal machine" `Quick test_metrics_ideal;
        Alcotest.test_case "slowdown forms agree" `Quick test_metrics_slowdown_forms_agree;
        Alcotest.test_case "validations" `Quick test_metrics_validations;
      ] );
    ( "core.model",
      [
        Alcotest.test_case "single program identity" `Quick test_model_single_program_is_identity;
        Alcotest.test_case "no traffic, no slowdown" `Quick test_model_no_llc_traffic_no_slowdown;
        Alcotest.test_case "iteration count" `Quick test_model_iteration_count;
        Alcotest.test_case "stop criterion" `Quick test_model_instructions_modelled;
        Alcotest.test_case "relative progress" `Quick test_model_fast_program_advances_further;
        Alcotest.test_case "validations" `Quick test_model_validations;
        Alcotest.test_case "smoothing-independent fixed point" `Quick
          test_model_smoothing_converges_same_fixed_point;
        Alcotest.test_case "closed-form fixed point" `Quick test_model_fixed_point_closed_form;
        Alcotest.test_case "paper vs consistent update" `Quick
          test_model_paper_vs_consistent_update;
        Alcotest.test_case "pluggable contention" `Quick test_contention_model_is_pluggable;
        Alcotest.test_case "deterministic" `Quick test_model_deterministic;
      ] );
    ( "core.end_to_end",
      [
        Alcotest.test_case "tracks detailed simulation" `Slow
          test_model_tracks_detailed_simulation;
      ] );
  ]
