(* Integration tests for mppm_experiments at miniature scale: the context
   (profile caching, measured/predicted views), and each experiment driver's
   structural contract. *)

module Stats = Mppm_util.Stats
module Profile = Mppm_profile.Profile
module Model = Mppm_core.Model
module Metrics = Mppm_core.Metrics
module Mix = Mppm_workload.Mix
open Mppm_experiments

let check_close eps = Alcotest.(check (float eps))

(* Tiny but non-degenerate: 100K-instruction traces, 2K intervals. *)
let tiny_scale = Scale.of_trace 100_000

let make_ctx ?cache_dir () = Context.create ?cache_dir ~seed:7 tiny_scale

(* ---- Scale -------------------------------------------------------------- *)

let test_scale_of_trace () =
  let s = Scale.of_trace 123_456 in
  Alcotest.(check int) "50 intervals" 50
    (s.Scale.trace_instructions / s.Scale.interval_instructions);
  Alcotest.(check int) "rounded up" 0
    (s.Scale.trace_instructions mod s.Scale.interval_instructions);
  Alcotest.(check bool) "at least requested" true
    (s.Scale.trace_instructions >= 123_456);
  Alcotest.(check bool) "invalid raises" true
    (try ignore (Scale.of_trace 0); false with Invalid_argument _ -> true)

let test_scale_presets () =
  Alcotest.(check int) "default" 2_000_000 Scale.default.Scale.trace_instructions;
  Alcotest.(check int) "quick" 1_000_000 Scale.quick.Scale.trace_instructions;
  Alcotest.(check int) "large" 10_000_000 Scale.large.Scale.trace_instructions

(* ---- Context ------------------------------------------------------------- *)

let test_context_profile_memoized () =
  let ctx = make_ctx () in
  let a = Context.profile ctx ~llc_config:1 0 in
  let b = Context.profile ctx ~llc_config:1 0 in
  Alcotest.(check bool) "same physical profile" true (a == b);
  let c = Context.profile ctx ~llc_config:2 0 in
  Alcotest.(check bool) "different config, different profile" true (a != c)

let test_context_disk_cache_roundtrip () =
  let dir = Filename.temp_file "mppm-cache" "" in
  Sys.remove dir;
  let ctx1 = make_ctx ~cache_dir:dir () in
  let a = Context.profile ctx1 ~llc_config:1 3 in
  (* A second context with the same cache dir must load the same values. *)
  let ctx2 = make_ctx ~cache_dir:dir () in
  let b = Context.profile ctx2 ~llc_config:1 3 in
  check_close 1e-6 "same cpi" (Profile.cpi a) (Profile.cpi b);
  check_close 1e-6 "same memory cpi" (Profile.memory_cpi a) (Profile.memory_cpi b);
  (* Clean up. *)
  Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Sys.rmdir dir

(* A cache entry Profile.load rejects is a miss: the profile is recomputed,
   the file rewritten with the original bytes, and profile_cache.corrupt
   counted. *)
let test_context_corrupt_cache_entry () =
  let dir = Filename.temp_file "mppm-cache" "" in
  Sys.remove dir;
  ignore (Context.profile (make_ctx ~cache_dir:dir ()) ~llc_config:1 3);
  let path =
    match Sys.readdir dir with
    | [| f |] -> Filename.concat dir f
    | fs -> Alcotest.failf "expected one cache file, found %d" (Array.length fs)
  in
  let bytes () = In_channel.with_open_bin path In_channel.input_all in
  let good = bytes () in
  let edit_line k f s =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> if Int.equal i k then f l else l)
    |> String.concat "\n"
  in
  let negate_last_field l =
    match List.rev (String.split_on_char ' ' l) with
    | _ :: rest -> String.concat " " (List.rev ("-1" :: rest))
    | [] -> l
  in
  List.iter
    (fun (what, corrupt) ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (corrupt good));
      let before = Mppm_obs.Registry.get "profile_cache.corrupt" in
      let p = Context.profile (make_ctx ~cache_dir:dir ()) ~llc_config:1 3 in
      check_close 0.0 (what ^ ": counted") 1.0
        (Mppm_obs.Registry.get "profile_cache.corrupt" -. before);
      Alcotest.(check string) (what ^ ": benchmark") Mppm_trace.Suite.names.(3) p.Profile.benchmark;
      Alcotest.(check string) (what ^ ": file rewritten") good (bytes ()))
    [
      ("truncated", fun s -> String.sub s 0 (String.length s / 2));
      ("non-numeric", edit_line 2 (fun _ -> "interval ten"));
      ("negative counter", edit_line 5 negate_last_field);
    ];
  Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Sys.rmdir dir

let test_context_rng_purposes () =
  let ctx = make_ctx () in
  let a = Mppm_util.Rng.int (Context.rng ctx "alpha") 1_000_000 in
  let b = Mppm_util.Rng.int (Context.rng ctx "beta") 1_000_000 in
  let a' = Mppm_util.Rng.int (Context.rng ctx "alpha") 1_000_000 in
  Alcotest.(check int) "same purpose, same stream" a a';
  Alcotest.(check bool) "different purposes differ" true (a <> b)

let test_context_measured_view () =
  let ctx = make_ctx () in
  let mix = Mix.of_names [| "gamess"; "soplex" |] in
  let m = Context.detailed ctx ~llc_config:1 mix in
  Alcotest.(check int) "two programs" 2 (Array.length m.Context.m_cpi_multi);
  check_close 1e-9 "stp consistent"
    (Metrics.stp ~cpi_single:m.Context.m_cpi_single ~cpi_multi:m.Context.m_cpi_multi)
    m.Context.m_stp;
  check_close 1e-9 "antt consistent"
    (Metrics.antt ~cpi_single:m.Context.m_cpi_single ~cpi_multi:m.Context.m_cpi_multi)
    m.Context.m_antt;
  Array.iter
    (fun s -> Alcotest.(check bool) "slowdown >= ~1" true (s > 0.95))
    m.Context.m_slowdowns;
  (* Isolated CPIs come from the profiles. *)
  let expected = Context.cpi_single ctx ~llc_config:1 mix in
  Alcotest.(check (array (float 1e-9))) "cpi_single from profiles" expected
    m.Context.m_cpi_single

let test_context_predict_view () =
  let ctx = make_ctx () in
  let mix = Mix.of_names [| "gamess"; "gamess"; "hmmer"; "soplex" |] in
  let r = Context.predict ctx ~llc_config:1 mix in
  Alcotest.(check int) "four programs" 4 (Array.length r.Model.programs);
  Alcotest.(check bool) "iterations ran" true (r.Model.iterations > 0);
  Alcotest.(check bool) "stp within (0, n]" true
    (r.Model.stp > 0.0 && r.Model.stp <= 4.0 +. 1e-9)

let test_context_categories () =
  let ctx = make_ctx () in
  let classes = Context.categories ctx ~llc_config:1 in
  Alcotest.(check int) "whole suite classified" Mppm_trace.Suite.count
    (Array.length classes);
  let mem, comp = Mppm_workload.Category.partition classes in
  Alcotest.(check bool) "both classes present" true
    (Array.length mem > 0 && Array.length comp > 0)

(* ---- Accuracy ------------------------------------------------------------- *)

let test_accuracy_evaluate () =
  let ctx = make_ctx () in
  let run = Accuracy.evaluate ctx ~llc_config:1 ~cores:2 ~count:4 in
  Alcotest.(check int) "evals" 4 (Array.length run.Accuracy.evals);
  Alcotest.(check bool) "errors finite and sane" true
    (run.Accuracy.stp_error >= 0.0 && run.Accuracy.stp_error < 0.5
    && run.Accuracy.antt_error >= 0.0
    && run.Accuracy.antt_error < 0.5);
  Alcotest.(check int) "stp scatter size" 4 (Array.length (Accuracy.scatter_stp run));
  Alcotest.(check int) "slowdown scatter size" 8
    (Array.length (Accuracy.scatter_slowdown run));
  let worst = Accuracy.worst_stp_eval run in
  Array.iter
    (fun e ->
      Alcotest.(check bool) "worst is minimal" true
        (worst.Accuracy.measured.Context.m_stp
         <= e.Accuracy.measured.Context.m_stp))
    run.Accuracy.evals;
  let rows = Accuracy.cpi_rows worst in
  Alcotest.(check int) "cpi rows" 2 (Array.length rows);
  Array.iter
    (fun row ->
      Alcotest.(check bool) "cpi ordering" true
        (row.Accuracy.measured_cpi >= 0.9 *. row.Accuracy.isolated_cpi))
    rows

(* ---- Variability ------------------------------------------------------------ *)

let test_variability_run () =
  let ctx = make_ctx () in
  let t = Variability.run ctx ~cores:2 ~max_mixes:30 ~step:10 () in
  Alcotest.(check int) "points" 3 (List.length t.Variability.points);
  let counts = List.map (fun p -> p.Variability.mixes) t.Variability.points in
  Alcotest.(check (list int)) "mix counts" [ 10; 20; 30 ] counts;
  List.iter
    (fun p ->
      Alcotest.(check bool) "CI sane" true
        (p.Variability.stp.Stats.half_width >= 0.0
        && p.Variability.stp.Stats.lower <= p.Variability.stp.Stats.upper))
    t.Variability.points;
  (* More samples must not widen the relative CI dramatically; usually it
     shrinks. *)
  let first = List.hd t.Variability.points in
  let last = List.nth t.Variability.points 2 in
  Alcotest.(check bool) "CI shrinks with samples" true
    (last.Variability.stp.Stats.half_width
     <= first.Variability.stp.Stats.half_width *. 1.2)

(* ---- Stress -------------------------------------------------------------------- *)

let test_stress_analyze () =
  let ctx = make_ctx () in
  let run = Accuracy.evaluate ctx ~llc_config:1 ~cores:2 ~count:6 in
  let t = Stress.analyze ~worst_k:2 run in
  Alcotest.(check int) "k" 2 t.Stress.worst_k;
  Alcotest.(check bool) "overlap bounded" true
    (t.Stress.overlap >= 0 && t.Stress.overlap <= 2);
  Alcotest.(check int) "sorted size" 6 (Array.length t.Stress.sorted);
  let sorted_ok = ref true in
  Array.iteri
    (fun i (m, _) ->
      if i > 0 && m < fst t.Stress.sorted.(i - 1) then sorted_ok := false)
    t.Stress.sorted;
  Alcotest.(check bool) "ascending by measured" true !sorted_ok;
  Alcotest.(check bool) "per-benchmark table non-empty" true
    (Array.length t.Stress.per_benchmark_slowdown > 0)

(* ---- Ranking (micro options) ----------------------------------------------------- *)

let test_ranking_micro () =
  let ctx = make_ctx () in
  let options =
    {
      Ranking.cores = 2;
      random_pool = 4;
      category_pool_per_composition = 2;
      sets = 3;
      per_set = 3;
      per_composition = 1;
      mppm_mixes = 6;
    }
  in
  let t = Ranking.run ctx options in
  Alcotest.(check int) "six configs" 6 (Array.length t.Ranking.config_ids);
  Alcotest.(check int) "random sets" 3 (Array.length t.Ranking.random_sets);
  Alcotest.(check int) "category sets" 3 (Array.length t.Ranking.category_sets);
  Alcotest.(check int) "pairwise rows" 5 (Array.length t.Ranking.pairwise);
  let rho_ok r = Float.is_nan r || (r >= -1.0 -. 1e-9 && r <= 1.0 +. 1e-9) in
  Array.iter
    (fun s ->
      Alcotest.(check bool) "rho in range" true
        (rho_ok s.Ranking.stp_rho && rho_ok s.Ranking.antt_rho))
    t.Ranking.random_sets;
  Array.iter
    (fun p ->
      check_close 1e-9 "fractions sum to 1" 1.0
        (p.Ranking.agree_both_right +. p.Ranking.agree_both_wrong
        +. p.Ranking.disagree_mppm_right +. p.Ranking.disagree_practice_right))
    t.Ranking.pairwise;
  (* Bigger LLCs cannot hurt mean MPPM STP by much: config #5 (2MB) should
     beat config #1 (512KB) on throughput. *)
  Alcotest.(check bool) "2MB beats 512KB on predicted STP" true
    (t.Ranking.mppm_mean_stp.(4) >= t.Ranking.mppm_mean_stp.(0))

(* ---- Tables ----------------------------------------------------------------------- *)

let test_tables_render () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Tables.pp_table1 ppf Mppm_simcore.Core_model.default;
  Tables.pp_table2 ppf ();
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions 512KB" true (contains "512KB");
  Alcotest.(check bool) "mentions 2MB" true (contains "2MB");
  Alcotest.(check bool) "mentions 200-cycle memory" true (contains "200")

let tests =
  [
    ( "experiments.scale",
      [
        Alcotest.test_case "of_trace" `Quick test_scale_of_trace;
        Alcotest.test_case "presets" `Quick test_scale_presets;
      ] );
    ( "experiments.context",
      [
        Alcotest.test_case "profile memoized" `Quick test_context_profile_memoized;
        Alcotest.test_case "disk cache roundtrip" `Quick test_context_disk_cache_roundtrip;
        Alcotest.test_case "corrupt cache entry recomputed" `Quick
          test_context_corrupt_cache_entry;
        Alcotest.test_case "rng purposes" `Quick test_context_rng_purposes;
        Alcotest.test_case "measured view" `Quick test_context_measured_view;
        Alcotest.test_case "predicted view" `Quick test_context_predict_view;
        Alcotest.test_case "categories" `Slow test_context_categories;
      ] );
    ( "experiments.drivers",
      [
        Alcotest.test_case "accuracy evaluate" `Slow test_accuracy_evaluate;
        Alcotest.test_case "variability run" `Slow test_variability_run;
        Alcotest.test_case "stress analyze" `Slow test_stress_analyze;
        Alcotest.test_case "ranking micro" `Slow test_ranking_micro;
        Alcotest.test_case "tables render" `Quick test_tables_render;
      ] );
  ]
