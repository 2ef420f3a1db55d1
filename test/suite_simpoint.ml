(* Tests for mppm_simpoint: k-means and SimPoint-style profile phase
   analysis / quantization. *)

module Kmeans = Mppm_simpoint.Kmeans
module Simpoint = Mppm_simpoint.Simpoint
module Profile = Mppm_profile.Profile
module Model = Mppm_core.Model
module Single_core = Mppm_simcore.Single_core
module Suite = Mppm_trace.Suite
module Configs = Mppm_cache.Configs

let check_close eps = Alcotest.(check (float eps))

(* ---- kmeans ------------------------------------------------------------- *)

let blob rng center count =
  Array.init count (fun _ ->
      Array.map (fun c -> c +. Mppm_util.Rng.float rng 0.2) center)

let test_kmeans_separable () =
  let rng = Mppm_util.Rng.create ~seed:5 in
  let a = blob rng [| 0.0; 0.0 |] 20 in
  let b = blob rng [| 10.0; 10.0 |] 20 in
  let c = blob rng [| 0.0; 10.0 |] 20 in
  let points = Array.concat [ a; b; c ] in
  let r = Kmeans.cluster ~k:3 points in
  Alcotest.(check int) "3 centroids" 3 (Array.length r.Kmeans.centroids);
  (* Each original blob must land in a single cluster. *)
  let cluster_of range =
    let base = r.Kmeans.assignment.(fst range) in
    for i = fst range to snd range do
      Alcotest.(check int) "homogeneous blob" base r.Kmeans.assignment.(i)
    done;
    base
  in
  let ca = cluster_of (0, 19) in
  let cb = cluster_of (20, 39) in
  let cc = cluster_of (40, 59) in
  Alcotest.(check bool) "distinct clusters" true (ca <> cb && cb <> cc && ca <> cc)

let test_kmeans_k_clamped () =
  let points = [| [| 0.0 |]; [| 1.0 |] |] in
  let r = Kmeans.cluster ~k:10 points in
  Alcotest.(check int) "k clamped to n" 2 (Array.length r.Kmeans.centroids)

let test_kmeans_deterministic () =
  let rng = Mppm_util.Rng.create ~seed:7 in
  let points = blob rng [| 1.0; 2.0 |] 30 in
  let a = Kmeans.cluster ~seed:3 ~k:4 points in
  let b = Kmeans.cluster ~seed:3 ~k:4 points in
  Alcotest.(check (array int)) "same assignment" a.Kmeans.assignment
    b.Kmeans.assignment

let test_kmeans_single_cluster_inertia () =
  let points = [| [| 1.0 |]; [| 3.0 |] |] in
  let r = Kmeans.cluster ~k:1 points in
  (* Centroid 2.0; inertia 1 + 1 = 2. *)
  check_close 1e-9 "inertia" 2.0 r.Kmeans.inertia

let test_kmeans_validations () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "no points" true
    (invalid (fun () -> Kmeans.cluster ~k:2 [||]));
  Alcotest.(check bool) "bad k" true
    (invalid (fun () -> Kmeans.cluster ~k:0 [| [| 1.0 |] |]));
  Alcotest.(check bool) "ragged" true
    (invalid (fun () -> Kmeans.cluster ~k:1 [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

(* ---- simpoint on real profiles -------------------------------------------- *)

let baseline = Configs.baseline ()

let profile_of name =
  Single_core.profile
    (Single_core.config baseline)
    ~benchmark:(Suite.find name) ~seed:(Suite.seed_for name)
    ~trace_instructions:200_000 ~interval_instructions:4_000

let test_features_shape () =
  let p = profile_of "gamess" in
  let f = Simpoint.features_of_profile p in
  Alcotest.(check int) "one vector per interval" 50 (Array.length f);
  Array.iter
    (fun v ->
      Alcotest.(check int) "dimension" (4 + 8 + 1) (Array.length v);
      Array.iter
        (fun x -> Alcotest.(check bool) "normalized" true (x >= 0.0 && x <= 1.0 +. 1e-9))
        v)
    f

let test_phases_recover_schedule () =
  (* bzip2 alternates 400K/300K-instruction phases, so the trace must span
     several occurrences; two clusters should then reconstruct a 2-phase
     structure with sensible weights. *)
  let p =
    Single_core.profile
      (Single_core.config baseline)
      ~benchmark:(Suite.find "bzip2") ~seed:(Suite.seed_for "bzip2")
      ~trace_instructions:1_400_000 ~interval_instructions:28_000
  in
  let phases = Simpoint.phases_of_profile ~k:2 p in
  Alcotest.(check int) "assignment per interval" 50
    (Array.length phases.Simpoint.assignment);
  let w = phases.Simpoint.weights in
  check_close 1e-9 "weights sum to 1" 1.0 (Array.fold_left ( +. ) 0.0 w);
  Array.iter
    (fun x -> Alcotest.(check bool) "both phases populated" true (x > 0.1))
    w

let test_quantize_structure () =
  let p = profile_of "gcc" in
  let q = Simpoint.quantize ~k:4 p in
  Alcotest.(check int) "same interval count" 50 (Array.length (Profile.intervals q));
  Alcotest.(check int) "same trace length" (Profile.total_instructions p)
    (Profile.total_instructions q);
  Alcotest.(check bool) "at most k distinct intervals" true
    (Simpoint.distinct_intervals q <= 4);
  Alcotest.(check bool) "fewer than the original" true
    (Simpoint.distinct_intervals q < Simpoint.distinct_intervals p)

let test_quantize_preserves_aggregates () =
  (* Long enough that cold-start transients (which quantization folds into
     steady phases) are a small share of the trace. *)
  let p =
    Single_core.profile
      (Single_core.config baseline)
      ~benchmark:(Suite.find "bzip2") ~seed:(Suite.seed_for "bzip2")
      ~trace_instructions:1_400_000 ~interval_instructions:28_000
  in
  let q = Simpoint.quantize ~k:6 p in
  let rel a b = abs_float (a -. b) /. b in
  Alcotest.(check bool) "cpi within 10%" true (rel (Profile.cpi q) (Profile.cpi p) < 0.10);
  Alcotest.(check bool) "mpki within 25%" true
    (rel (Profile.llc_mpki q +. 0.01) (Profile.llc_mpki p +. 0.01) < 0.25)

let test_quantized_profile_feeds_mppm () =
  let names = [| "gamess"; "bzip2"; "gcc"; "soplex" |] in
  let profiles = Array.map profile_of names in
  let params = Model.default_params ~trace_instructions:200_000 in
  let full = Model.predict_profiles params profiles in
  let quantized =
    Model.predict_profiles params
      (Array.map (fun p -> Simpoint.quantize ~k:6 p) profiles)
  in
  let rel a b = abs_float (a -. b) /. b in
  Alcotest.(check bool) "STP within 10% of full-profile MPPM" true
    (rel quantized.Model.stp full.Model.stp < 0.10);
  Alcotest.(check bool) "ANTT within 10%" true
    (rel quantized.Model.antt full.Model.antt < 0.10)

let tests =
  [
    ( "simpoint.kmeans",
      [
        Alcotest.test_case "separable blobs" `Quick test_kmeans_separable;
        Alcotest.test_case "k clamped" `Quick test_kmeans_k_clamped;
        Alcotest.test_case "deterministic" `Quick test_kmeans_deterministic;
        Alcotest.test_case "inertia" `Quick test_kmeans_single_cluster_inertia;
        Alcotest.test_case "validations" `Quick test_kmeans_validations;
      ] );
    ( "simpoint.profiles",
      [
        Alcotest.test_case "feature shape" `Quick test_features_shape;
        Alcotest.test_case "phases recover schedule" `Quick test_phases_recover_schedule;
        Alcotest.test_case "quantize structure" `Quick test_quantize_structure;
        Alcotest.test_case "quantize aggregates" `Quick test_quantize_preserves_aggregates;
        Alcotest.test_case "quantized MPPM accuracy" `Slow test_quantized_profile_feeds_mppm;
      ] );
  ]
