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

let make_ctx dir = Context.create ~cache_dir:dir ~seed:7 tiny_scale

let fresh_dir () =
  let dir = Filename.temp_file "mppm-cache" "" in
  Sys.remove dir;
  dir

let remove_dir dir =
  Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Sys.rmdir dir

(* [with_ctx f] is [f] on a context over a fresh cache directory, which is
   removed afterwards. *)
let with_ctx f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> remove_dir dir) (fun () -> f (make_ctx dir))

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
  with_ctx @@ fun ctx ->
  let a = Context.profile ctx ~llc_config:1 0 in
  let b = Context.profile ctx ~llc_config:1 0 in
  Alcotest.(check bool) "same physical profile" true (a == b);
  let c = Context.profile ctx ~llc_config:2 0 in
  Alcotest.(check bool) "different config, different profile" true (a != c)

let test_context_disk_cache_roundtrip () =
  let dir = fresh_dir () in
  let ctx1 = make_ctx dir in
  let a = Context.profile ctx1 ~llc_config:1 3 in
  (* A second context with the same cache dir must load the same values. *)
  let ctx2 = make_ctx dir in
  let b = Context.profile ctx2 ~llc_config:1 3 in
  check_close 1e-6 "same cpi" (Profile.cpi a) (Profile.cpi b);
  check_close 1e-6 "same memory cpi" (Profile.memory_cpi a) (Profile.memory_cpi b);
  remove_dir dir

(* A cache entry Profile.load rejects is a miss: the profile is recomputed,
   the file rewritten with the original bytes, and profile_cache.corrupt
   counted. *)
let test_context_corrupt_cache_entry () =
  let dir = fresh_dir () in
  ignore (Context.profile (make_ctx dir) ~llc_config:1 3);
  let path =
    match
      List.filter
        (fun f -> Filename.check_suffix f ".prof")
        (Array.to_list (Sys.readdir dir))
    with
    | [ f ] -> Filename.concat dir f
    | fs -> Alcotest.failf "expected one profile file, found %d" (List.length fs)
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
      let p = Context.profile (make_ctx dir) ~llc_config:1 3 in
      check_close 0.0 (what ^ ": counted") 1.0
        (Mppm_obs.Registry.get "profile_cache.corrupt" -. before);
      Alcotest.(check string) (what ^ ": benchmark") Mppm_trace.Suite.names.(3) p.Profile.benchmark;
      Alcotest.(check string) (what ^ ": file rewritten") good (bytes ()))
    [
      ("truncated", fun s -> String.sub s 0 (String.length s / 2));
      ("non-numeric", edit_line 2 (fun _ -> "interval ten"));
      ("negative counter", edit_line 5 negate_last_field);
    ];
  remove_dir dir

let profile_bytes p =
  let path = Filename.temp_file "mppm-profile" ".prof" in
  Profile.save p path;
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  bytes

(* The first build of a benchmark's profiles records its private stream;
   the other five configs replay it.  Every profile is byte-identical to a
   plain live build. *)
let test_context_replayed_profiles_identical () =
  let dir = fresh_dir () in
  let ctx = make_ctx dir in
  List.iter
    (fun bench ->
      let benchmark = Mppm_trace.Suite.all.(bench) in
      for llc_config = 1 to Mppm_cache.Configs.llc_config_count do
        let live =
          Mppm_simcore.Single_core.profile
            (Mppm_simcore.Single_core.config
               (Context.hierarchy ctx ~llc_config))
            ~benchmark
            ~seed:(Mppm_trace.Suite.seed_for benchmark.Mppm_trace.Benchmark.name)
            ~trace_instructions:tiny_scale.Scale.trace_instructions
            ~interval_instructions:tiny_scale.Scale.interval_instructions
        in
        Alcotest.(check string)
          (Printf.sprintf "%s, config %d" benchmark.Mppm_trace.Benchmark.name
             llc_config)
          (profile_bytes live)
          (profile_bytes (Context.profile ctx ~llc_config bench))
      done)
    [ 3; 17 ];
  remove_dir dir

let stream_file dir =
  match
    List.filter
      (fun f -> Filename.check_suffix f ".stream")
      (Array.to_list (Sys.readdir dir))
  with
  | [ f ] -> Filename.concat dir f
  | fs -> Alcotest.failf "expected one stream file, found %d" (List.length fs)

(* A stream file that fails its check (length, digest, header) is a miss:
   it is recorded anew by the requesting build, byte for byte as before,
   and counted under stream_cache.corrupt; the profiles do not change. *)
let test_context_corrupt_stream () =
  let dir = fresh_dir () in
  let want = profile_bytes (Context.profile (make_ctx dir) ~llc_config:2 3) in
  let path = stream_file dir in
  let bytes () = In_channel.with_open_bin path In_channel.input_all in
  let good = bytes () in
  let flip k s =
    String.mapi (fun i c -> if i = k then Char.chr (Char.code c lxor 0x10) else c) s
  in
  List.iter
    (fun (what, corrupt) ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (corrupt good));
      Sys.readdir dir
      |> Array.iter (fun f ->
             if Filename.check_suffix f ".prof" then Sys.remove (Filename.concat dir f));
      let count key = Mppm_obs.Registry.get ("stream_cache." ^ key) in
      let corrupt_before = count "corrupt" and misses_before = count "misses" in
      let p = Context.profile (make_ctx dir) ~llc_config:4 3 in
      check_close 0.0 (what ^ ": counted corrupt") 1.0 (count "corrupt" -. corrupt_before);
      check_close 0.0 (what ^ ": counted a miss") 1.0 (count "misses" -. misses_before);
      Alcotest.(check string) (what ^ ": file re-recorded") good (bytes ());
      let replayed = make_ctx dir in
      Alcotest.(check string) (what ^ ": replayed profile unchanged") want
        (profile_bytes (Context.profile replayed ~llc_config:2 3));
      ignore p)
    [
      ("truncated", fun s -> String.sub s 0 (String.length s - 100));
      ("flipped byte", fun s -> flip (String.length s / 2) s);
      ("flipped header byte", fun s -> flip 3 s);
    ];
  let hits = Mppm_obs.Registry.get "stream_cache.hits" in
  ignore (Context.profile (make_ctx dir) ~llc_config:5 3);
  check_close 0.0 "an intact stream is a hit" 1.0
    (Mppm_obs.Registry.get "stream_cache.hits" -. hits);
  remove_dir dir

(* The stream segments k >= 1 in [dir], "name-stream-<digest>-segK.stream". *)
let segment_files dir =
  let is_segment f =
    Filename.check_suffix f ".stream"
    &&
    match String.rindex_opt f '-' with
    | Some i -> String.starts_with ~prefix:"seg" (String.sub f (i + 1) (String.length f - i - 1))
    | None -> false
  in
  List.sort compare (List.filter is_segment (Array.to_list (Sys.readdir dir)))

(* A fast program beside a slow one: the fast core replays several
   segments past its first trace. *)
let crossing_mix = Mix.of_names [| "povray"; "mcf" |]

(* A detailed run replays every instruction, crossing into segments that
   are recorded on first demand.  A segment file that fails its check
   (truncated, a flipped byte, the header of another segment) is a miss:
   it is recorded anew, byte for byte as before, and counted under
   stream_cache.corrupt; the measured result does not change. *)
let test_context_corrupt_segment () =
  let dir = fresh_dir () in
  let live_before = Mppm_obs.Registry.get "multicore.live_instructions" in
  let want = (Context.detailed (make_ctx dir) ~llc_config:1 crossing_mix).Context.m_detail in
  check_close 0.0 "no instruction ran live" 0.0
    (Mppm_obs.Registry.get "multicore.live_instructions" -. live_before);
  let segments = segment_files dir in
  let seg1 =
    match List.find_opt (fun f -> Filename.check_suffix f "-seg1.stream") segments with
    | Some f -> f
    | None -> Alcotest.fail "no segment 1 recorded"
  in
  let seg2 = Filename.chop_suffix seg1 "-seg1.stream" ^ "-seg2.stream" in
  Alcotest.(check bool) "segment 2 recorded" true (List.mem seg2 segments);
  let first = Filename.concat dir seg1 and second = Filename.concat dir seg2 in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let good = read first in
  let flip k s =
    String.mapi (fun i c -> if i = k then Char.chr (Char.code c lxor 0x10) else c) s
  in
  List.iter
    (fun (what, corrupt) ->
      Out_channel.with_open_bin first (fun oc -> output_string oc corrupt);
      let count key = Mppm_obs.Registry.get ("stream_cache." ^ key) in
      let corrupt_before = count "corrupt" in
      let got = (Context.detailed (make_ctx dir) ~llc_config:1 crossing_mix).Context.m_detail in
      check_close 0.0 (what ^ ": counted corrupt") 1.0 (count "corrupt" -. corrupt_before);
      Alcotest.(check string) (what ^ ": file re-recorded") good (read first);
      Alcotest.(check bool) (what ^ ": result unchanged") true (want = got))
    [
      ("truncated", String.sub good 0 (String.length good - 100));
      ("flipped byte", flip (String.length good / 2) good);
      ("another segment's header", read second);
    ];
  remove_dir dir

(* cache stats/prune: profiles and private streams are live, stale or
   orphaned .tmp under the same name-...-digest scheme; anything else is
   foreign, and prune leaves live and foreign files alone. *)
let test_context_scan_cache () =
  let dir = fresh_dir () in
  let ctx = make_ctx dir in
  ignore (Context.profile ctx ~llc_config:1 3);
  ignore (Context.profile ctx ~llc_config:2 3);
  let name = Mppm_trace.Suite.names.(3) in
  let plant f = Out_channel.with_open_bin (Filename.concat dir f) ignore in
  let stale_profile = name ^ "-cfg1-0000000000000000.prof"
  and stale_stream = name ^ "-stream-0000000000000000.stream"
  and tmp = Filename.basename (stream_file dir) ^ ".tmp" in
  let stream_stem = Filename.chop_suffix (Filename.basename (stream_file dir)) ".stream" in
  List.iter plant [ stale_profile; stale_stream; tmp; "notes.txt" ];
  let report = Context.scan_cache ctx in
  let sorted = List.sort compare in
  Alcotest.(check (list string)) "live"
    (sorted
       (List.filter_map
          (fun f ->
            if Filename.check_suffix f ".prof" || Filename.check_suffix f ".stream"
            then if List.mem f [ stale_profile; stale_stream ] then None else Some f
            else None)
          (Array.to_list (Sys.readdir dir))))
    report.Context.cr_live;
  Alcotest.(check int) "two profiles and a stream live" 3
    (List.length report.Context.cr_live);
  Alcotest.(check (list string)) "stale" (sorted [ stale_profile; stale_stream ])
    report.Context.cr_stale;
  Alcotest.(check (list string)) "tmp" [ tmp ] report.Context.cr_tmp;
  Alcotest.(check (list string)) "foreign" [ "notes.txt" ] report.Context.cr_foreign;
  Alcotest.(check (list string)) "prune" (sorted [ stale_profile; stale_stream; tmp ])
    (sorted (Context.prune_cache ctx));
  Alcotest.(check int) "left behind" 4 (Array.length (Sys.readdir dir));
  (* Segments are live with their stream, stale with a stale one (or
     under a segment number no stream has), and leave .tmp files too. *)
  ignore (Context.detailed ctx ~llc_config:1 crossing_mix);
  let live_segments = segment_files dir in
  Alcotest.(check bool) "segments recorded" true (live_segments <> []);
  let stale_segment = name ^ "-stream-0000000000000000-seg1.stream"
  and segment_zero = stream_stem ^ "-seg0.stream"
  and segment_tmp = List.hd live_segments ^ ".x1y2z3.tmp" in
  List.iter plant [ stale_segment; segment_zero; segment_tmp ];
  let report = Context.scan_cache ctx in
  Alcotest.(check bool) "every recorded segment live" true
    (List.for_all (fun f -> List.mem f report.Context.cr_live) live_segments);
  Alcotest.(check (list string)) "stale segments"
    (sorted [ stale_segment; segment_zero ])
    report.Context.cr_stale;
  Alcotest.(check (list string)) "segment tmp" [ segment_tmp ] report.Context.cr_tmp;
  Alcotest.(check (list string)) "prune segments"
    (sorted [ stale_segment; segment_zero; segment_tmp ])
    (sorted (Context.prune_cache ctx));
  Alcotest.(check bool) "live segments kept" true
    (List.for_all (fun f -> Sys.file_exists (Filename.concat dir f)) live_segments);
  remove_dir dir

let sdc_bits sdc = List.map Int64.bits_of_float (Mppm_cache.Sdc.to_list sdc)

(* The sum of a profile's interval SDCs. *)
let lifetime_sdc p =
  Array.fold_left
    (fun acc iv -> Mppm_cache.Sdc.add acc iv.Profile.sdc)
    (Mppm_cache.Sdc.create ~assoc:p.Profile.llc_assoc)
    p.Profile.intervals

(* trace-stats' oracle: at a Table 2 config's LLC geometry, [llc_sdc] is
   the sum of that config's profile interval SDCs, bit for bit, whether
   [llc_sdc] recorded the stream (benchmark 3) or a profile build did
   (benchmark 17). *)
let test_context_llc_sdc () =
  with_ctx @@ fun ctx ->
  List.iter
    (fun bench ->
      let llc_sdc llc_config =
        Context.llc_sdc ctx
          ~llc:(Mppm_cache.Configs.llc_config llc_config).Mppm_cache.Hierarchy.geometry
          bench
      in
      if bench = 3 then ignore (llc_sdc 1);
      for llc_config = 1 to Mppm_cache.Configs.llc_config_count do
        let p = Context.profile ctx ~llc_config bench in
        Alcotest.(check (list int64))
          (Printf.sprintf "benchmark %d, config %d" bench llc_config)
          (sdc_bits (lifetime_sdc p)) (sdc_bits (llc_sdc llc_config))
      done)
    [ 3; 17 ]

(* ---- Recorded references -------------------------------------------------- *)

(* A private stream recorded in the cache directory is the one store of
   recorded references; these tests check its replay against live runs. *)

let llc_8way kb =
  Mppm_cache.Geometry.make ~size_bytes:(Mppm_cache.Geometry.kib kb) ~line_bytes:64
    ~associativity:8

(* At an LLC geometry no Table 2 config has (256KB 8-way, where soplex's
   SDC has hits at several stack depths), the replayed stream's SDC is a
   live build's, bit for bit. *)
let test_replayed_sdc_matches_live () =
  with_ctx @@ fun ctx ->
  let bench = Mppm_trace.Suite.index "soplex" in
  let benchmark = Mppm_trace.Suite.all.(bench) in
  let llc = llc_8way 256 in
  let base = Context.hierarchy ctx ~llc_config:1 in
  let live =
    Mppm_simcore.Single_core.profile
      (Mppm_simcore.Single_core.config
         {
           base with
           Mppm_cache.Hierarchy.llc = { base.Mppm_cache.Hierarchy.llc with geometry = llc };
         })
      ~benchmark
      ~seed:(Mppm_trace.Suite.seed_for benchmark.Mppm_trace.Benchmark.name)
      ~trace_instructions:tiny_scale.Scale.trace_instructions
      ~interval_instructions:tiny_scale.Scale.interval_instructions
  in
  Alcotest.(check (list int64)) "replayed SDC = live SDC"
    (sdc_bits (lifetime_sdc live))
    (sdc_bits (Context.llc_sdc ctx ~llc bench))

(* An 8-way LLC with 16x the sets splits every set's reference stream, so
   it misses no more; soplex reuses lines at distances 1MB holds and 64KB
   does not, so it misses strictly fewer. *)
let test_replayed_miss_rate_monotone () =
  with_ctx @@ fun ctx ->
  let misses kb =
    Mppm_cache.Sdc.misses
      (Context.llc_sdc ctx ~llc:(llc_8way kb) (Mppm_trace.Suite.index "soplex"))
  in
  Alcotest.(check bool) "bigger cache, fewer misses" true
    (misses 1024 < misses 64)

let test_context_rng_purposes () =
  with_ctx @@ fun ctx ->
  let a = Mppm_util.Rng.int (Context.rng ctx "alpha") 1_000_000 in
  let b = Mppm_util.Rng.int (Context.rng ctx "beta") 1_000_000 in
  let a' = Mppm_util.Rng.int (Context.rng ctx "alpha") 1_000_000 in
  Alcotest.(check int) "same purpose, same stream" a a';
  Alcotest.(check bool) "different purposes differ" true (a <> b)

let test_context_measured_view () =
  with_ctx @@ fun ctx ->
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
  with_ctx @@ fun ctx ->
  let mix = Mix.of_names [| "gamess"; "gamess"; "hmmer"; "soplex" |] in
  let r = Context.predict ctx ~llc_config:1 mix in
  Alcotest.(check int) "four programs" 4 (Array.length r.Model.programs);
  Alcotest.(check bool) "iterations ran" true (r.Model.iterations > 0);
  Alcotest.(check bool) "stp within (0, n]" true
    (r.Model.stp > 0.0 && r.Model.stp <= 4.0 +. 1e-9)

let test_context_categories () =
  with_ctx @@ fun ctx ->
  let classes = Context.categories ctx ~llc_config:1 in
  Alcotest.(check int) "whole suite classified" Mppm_trace.Suite.count
    (Array.length classes);
  let mem, comp = Mppm_workload.Category.partition classes in
  Alcotest.(check bool) "both classes present" true
    (Array.length mem > 0 && Array.length comp > 0)

(* ---- Accuracy ------------------------------------------------------------- *)

let test_accuracy_evaluate () =
  with_ctx @@ fun ctx ->
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
  with_ctx @@ fun ctx ->
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
  with_ctx @@ fun ctx ->
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
  with_ctx @@ fun ctx ->
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
    ( "trace.trace_file",
      [
        Alcotest.test_case "replayed SDC = live" `Quick
          test_replayed_sdc_matches_live;
        Alcotest.test_case "miss rate monotone" `Quick
          test_replayed_miss_rate_monotone;
      ] );
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
        Alcotest.test_case "replayed profiles byte-identical" `Quick
          test_context_replayed_profiles_identical;
        Alcotest.test_case "corrupt stream re-recorded" `Quick
          test_context_corrupt_stream;
        Alcotest.test_case "corrupt segment re-recorded" `Quick
          test_context_corrupt_segment;
        Alcotest.test_case "cache scan classifies streams" `Quick
          test_context_scan_cache;
        Alcotest.test_case "llc_sdc = profiles" `Quick test_context_llc_sdc;
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
