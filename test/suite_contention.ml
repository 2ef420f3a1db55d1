(* Tests for mppm_contention: the FOA, SDC-competition and Prob models. *)

module Contention = Mppm_contention.Contention
module Sdc = Mppm_cache.Sdc

let check_close eps = Alcotest.(check (float eps))
let assoc = 8

(* An SDC whose hits are spread uniformly over the first [depth] stack
   positions, [per_depth] each, plus [misses]. *)
let uniform_sdc ~depth ~per_depth ~misses =
  let counters =
    List.init (assoc + 1) (fun i ->
        if i < depth then per_depth else if i = assoc then misses else 0.0)
  in
  Sdc.of_list ~assoc counters

let test_single_program_no_contention () =
  List.iter
    (fun model ->
      let sdc = uniform_sdc ~depth:6 ~per_depth:10.0 ~misses:3.0 in
      let p = Contention.predict model [| sdc |] in
      check_close 1e-9 "no extra misses" 0.0 p.Contention.extra_misses.(0);
      check_close 1e-9 "shared = isolated" 3.0 p.Contention.shared_misses.(0))
    [ Contention.Foa; Contention.Sdc_competition; Contention.Prob { iterations = 5 } ]

let test_no_accesses_no_contention () =
  let empty = Sdc.create ~assoc in
  let p = Contention.predict Contention.Foa [| empty; empty |] in
  check_close 1e-9 "no accesses -> no extra" 0.0 p.Contention.extra_misses.(0)

let test_foa_equal_programs_split_equally () =
  let sdc () = uniform_sdc ~depth:8 ~per_depth:10.0 ~misses:0.0 in
  let p = Contention.predict Contention.Foa [| sdc (); sdc () |] in
  check_close 1e-9 "half the ways each" 4.0 p.Contention.effective_ways.(0);
  check_close 1e-9 "symmetric" p.Contention.extra_misses.(0) p.Contention.extra_misses.(1);
  (* With 4 of 8 ways, the hits at depths 5..8 (40 accesses) become
     misses. *)
  check_close 1e-9 "extra misses" 40.0 p.Contention.extra_misses.(0)

let test_foa_ways_proportional_to_frequency () =
  let heavy = uniform_sdc ~depth:8 ~per_depth:30.0 ~misses:0.0 in
  (* 240 accesses *)
  let light = uniform_sdc ~depth:8 ~per_depth:10.0 ~misses:0.0 in
  (* 80 accesses *)
  let p = Contention.predict Contention.Foa [| heavy; light |] in
  check_close 1e-9 "heavy gets 3/4" 6.0 p.Contention.effective_ways.(0);
  check_close 1e-9 "light gets 1/4" 2.0 p.Contention.effective_ways.(1);
  Alcotest.(check bool) "light suffers more relatively" true
    (p.Contention.extra_misses.(1) /. Sdc.accesses light
     > p.Contention.extra_misses.(0) /. Sdc.accesses heavy)

let test_foa_inactive_corunner_harmless () =
  let active = uniform_sdc ~depth:6 ~per_depth:10.0 ~misses:2.0 in
  let idle = Sdc.create ~assoc in
  let p = Contention.predict Contention.Foa [| active; idle |] in
  check_close 1e-9 "all ways to the active program" 8.0
    p.Contention.effective_ways.(0);
  check_close 1e-9 "no extra misses" 0.0 p.Contention.extra_misses.(0)

let test_sdc_competition_greedy () =
  (* Program A's counters dominate at every depth: it should win every way
     until its counters are exhausted. *)
  let a = uniform_sdc ~depth:4 ~per_depth:100.0 ~misses:0.0 in
  let b = uniform_sdc ~depth:8 ~per_depth:1.0 ~misses:0.0 in
  let p = Contention.predict Contention.Sdc_competition [| a; b |] in
  check_close 1e-9 "A wins its 4 deep ways" 4.0 p.Contention.effective_ways.(0);
  check_close 1e-9 "B gets the rest" 4.0 p.Contention.effective_ways.(1);
  check_close 1e-9 "A keeps all hits" 0.0 p.Contention.extra_misses.(0);
  check_close 1e-9 "B loses its deep hits" 4.0 p.Contention.extra_misses.(1)

let test_sdc_competition_ways_bounded () =
  let a = uniform_sdc ~depth:8 ~per_depth:5.0 ~misses:1.0 in
  let b = uniform_sdc ~depth:8 ~per_depth:4.0 ~misses:1.0 in
  let c = uniform_sdc ~depth:8 ~per_depth:3.0 ~misses:1.0 in
  let p = Contention.predict Contention.Sdc_competition [| a; b; c |] in
  let total = Array.fold_left ( +. ) 0.0 p.Contention.effective_ways in
  check_close 1e-9 "exactly A ways handed out" (float_of_int assoc) total

let test_prob_no_corunner_misses_no_dilation () =
  let a = uniform_sdc ~depth:4 ~per_depth:10.0 ~misses:0.0 in
  let b = uniform_sdc ~depth:4 ~per_depth:10.0 ~misses:0.0 in
  let p = Contention.predict (Contention.Prob { iterations = 5 }) [| a; b |] in
  check_close 1e-9 "no allocations, no dilation" 0.0 p.Contention.extra_misses.(0)

let test_prob_dilation_monotone () =
  let victim = uniform_sdc ~depth:6 ~per_depth:10.0 ~misses:1.0 in
  let aggressor misses = uniform_sdc ~depth:2 ~per_depth:10.0 ~misses in
  let extra m =
    (Contention.predict (Contention.Prob { iterations = 5 })
       [| victim; aggressor m |]).Contention.extra_misses.(0)
  in
  Alcotest.(check bool) "more aggressor misses, more victim extra" true
    (extra 200.0 > extra 20.0);
  Alcotest.(check bool) "some dilation" true (extra 200.0 > 0.0)

let test_all_models_sane_on_real_profiles () =
  (* Extra misses are non-negative and shared misses never exceed
     accesses, for all models, on profiles from the real pipeline. *)
  let hierarchy = Mppm_cache.Configs.baseline () in
  let profile name =
    Mppm_simcore.Single_core.profile
      (Mppm_simcore.Single_core.config hierarchy)
      ~benchmark:(Mppm_trace.Suite.find name)
      ~seed:(Mppm_trace.Suite.seed_for name) ~trace_instructions:100_000
      ~interval_instructions:10_000
  in
  let sdcs =
    Array.map
      (fun name ->
        (Mppm_profile.Profile.window (profile name) ~start:0.0 ~count:100_000.0)
          .Mppm_profile.Profile.w_sdc)
      [| "gamess"; "soplex"; "lbm"; "hmmer" |]
  in
  List.iter
    (fun model ->
      let p = Contention.predict model sdcs in
      Array.iteri
        (fun i extra ->
          Alcotest.(check bool) "extra >= 0" true (extra >= 0.0);
          Alcotest.(check bool) "shared <= accesses" true
            (p.Contention.shared_misses.(i) <= Sdc.accesses sdcs.(i) +. 1e-6))
        p.Contention.extra_misses)
    [ Contention.Foa; Contention.Sdc_competition; Contention.Prob { iterations = 5 } ]

let test_validations () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "no programs" true
    (invalid (fun () -> Contention.predict Contention.Foa [||]));
  Alcotest.(check bool) "assoc mismatch" true
    (invalid (fun () ->
         Contention.predict Contention.Foa
           [| Sdc.create ~assoc:8; Sdc.create ~assoc:4 |]))

(* The names the model trace records as its "contention" field. *)
let test_model_names () =
  List.iter
    (fun (m, name) ->
      Alcotest.(check string) name name (Contention.model_name m))
    [
      (Contention.Foa, "foa");
      (Contention.Sdc_competition, "sdc");
      (Contention.Prob { iterations = 3 }, "prob:3");
      (Contention.Way_partition [| 2.0; 6.0 |], "part:2,6");
      (Contention.Way_partition [| 1.5; 6.5 |], "part:1.5,6.5");
    ]

let qcheck_tests =
  let open QCheck in
  let random_sdc seed =
    let rng = Mppm_util.Rng.create ~seed in
    let sdc = Sdc.create ~assoc in
    for _ = 1 to 50 + Mppm_util.Rng.int rng 200 do
      Sdc.record sdc ~depth:(1 + Mppm_util.Rng.int rng 12)
    done;
    sdc
  in
  List.map
    (fun (name, model) ->
      Test.make ~name:(name ^ ": extra >= 0 and shared <= accesses") ~count:100
        (pair small_int (int_range 2 6))
        (fun (seed, n) ->
          let sdcs = Array.init n (fun i -> random_sdc (seed + (1000 * i))) in
          let p = Contention.predict model sdcs in
          Array.for_all (fun e -> e >= 0.0) p.Contention.extra_misses
          && Array.for_all2
               (fun s sdc -> s <= Sdc.accesses sdc +. 1e-6)
               p.Contention.shared_misses sdcs))
    [
      ("foa", Contention.Foa);
      ("sdc", Contention.Sdc_competition);
      ("prob", Contention.Prob { iterations = 4 });
    ]

let tests =
  [
    ( "contention.models",
      [
        Alcotest.test_case "single program" `Quick test_single_program_no_contention;
        Alcotest.test_case "no accesses" `Quick test_no_accesses_no_contention;
        Alcotest.test_case "FOA equal split" `Quick test_foa_equal_programs_split_equally;
        Alcotest.test_case "FOA frequency proportional" `Quick
          test_foa_ways_proportional_to_frequency;
        Alcotest.test_case "FOA idle co-runner" `Quick test_foa_inactive_corunner_harmless;
        Alcotest.test_case "SDC competition greedy" `Quick test_sdc_competition_greedy;
        Alcotest.test_case "SDC competition bounded" `Quick test_sdc_competition_ways_bounded;
        Alcotest.test_case "Prob: no dilation without misses" `Quick
          test_prob_no_corunner_misses_no_dilation;
        Alcotest.test_case "Prob: dilation monotone" `Quick test_prob_dilation_monotone;
        Alcotest.test_case "sane on real profiles" `Quick test_all_models_sane_on_real_profiles;
        Alcotest.test_case "validations" `Quick test_validations;
        Alcotest.test_case "model names" `Quick test_model_names;
      ] );
    ("contention.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
