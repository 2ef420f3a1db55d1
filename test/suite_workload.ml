(* Tests for mppm_workload: mixes, categories, sampling. *)

module Mix = Mppm_workload.Mix
module Category = Mppm_workload.Category
module Sampler = Mppm_workload.Sampler
module Suite = Mppm_trace.Suite
module Rng = Mppm_util.Rng

let check_close eps = Alcotest.(check (float eps))

(* ---- Mix ------------------------------------------------------------------ *)

let test_mix_sorting_and_names () =
  let mix = Mix.of_names [| "soplex"; "gamess"; "gamess"; "hmmer" |] in
  Alcotest.(check int) "size" 4 (Mix.size mix);
  let indices = Mix.indices mix in
  for i = 1 to 3 do
    Alcotest.(check bool) "sorted" true (indices.(i - 1) <= indices.(i))
  done;
  let names = Array.to_list (Mix.names mix) in
  Alcotest.(check bool) "two copies of gamess" true
    (List.length (List.filter (( = ) "gamess") names) = 2)

let test_mix_equality_ignores_order () =
  let a = Mix.of_names [| "mcf"; "lbm" |] in
  let b = Mix.of_names [| "lbm"; "mcf" |] in
  Alcotest.(check bool) "order-insensitive" true (Mix.equal a b);
  Alcotest.(check int) "compare 0" 0 (Mix.compare a b);
  Alcotest.(check string) "same string" (Mix.to_string a) (Mix.to_string b)

let test_mix_validation () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true (invalid (fun () -> Mix.of_indices ~n:29 [||]));
  Alcotest.(check bool) "out of range" true
    (invalid (fun () -> Mix.of_indices ~n:29 [| 29 |]));
  Alcotest.(check bool) "unknown name raises Not_found" true
    (try ignore (Mix.of_names [| "nope" |]); false with Not_found -> true)

let test_mix_population () =
  check_close 1e-9 "dual core" 435.0 (Mix.population ~cores:2);
  check_close 1e-9 "quad core" 35960.0 (Mix.population ~cores:4);
  check_close 1e-9 "eight core" 30260340.0 (Mix.population ~cores:8)

let test_mix_benchmarks () =
  let mix = Mix.of_names [| "gamess"; "hmmer" |] in
  let benchmarks = Mix.benchmarks mix in
  Alcotest.(check (list string)) "benchmarks aligned"
    (Array.to_list (Mix.names mix))
    (Array.to_list (Array.map (fun b -> b.Mppm_trace.Benchmark.name) benchmarks))

(* ---- Category --------------------------------------------------------------- *)

let test_classify_threshold () =
  Alcotest.(check bool) "above" true
    (Category.classify ~memory_fraction:0.6 ~threshold:0.5 = Category.Mem);
  Alcotest.(check bool) "below" true
    (Category.classify ~memory_fraction:0.4 ~threshold:0.5 = Category.Comp);
  Alcotest.(check bool) "at threshold is MEM" true
    (Category.classify ~memory_fraction:0.5 ~threshold:0.5 = Category.Mem)

let test_partition () =
  let classes = [| Category.Mem; Category.Comp; Category.Mem; Category.Comp |] in
  let mem, comp = Category.partition classes in
  Alcotest.(check (array int)) "mem" [| 0; 2 |] mem;
  Alcotest.(check (array int)) "comp" [| 1; 3 |] comp

let test_category_random_mix_compositions () =
  let rng = Rng.create ~seed:3 in
  let mem = [| 0; 1; 2 |] and comp = [| 10; 11; 12; 13 |] in
  let member pool i = Array.exists (( = ) i) pool in
  for _ = 1 to 50 do
    let all_mem = Category.random_mix rng ~mem ~comp ~cores:4 Category.All_mem in
    Array.iter
      (fun i -> Alcotest.(check bool) "all MEM" true (member mem i))
      (Mix.indices all_mem);
    let all_comp = Category.random_mix rng ~mem ~comp ~cores:4 Category.All_comp in
    Array.iter
      (fun i -> Alcotest.(check bool) "all COMP" true (member comp i))
      (Mix.indices all_comp);
    let half = Category.random_mix rng ~mem ~comp ~cores:4 Category.Half_half in
    let mem_count =
      Array.fold_left
        (fun acc i -> if member mem i then acc + 1 else acc)
        0 (Mix.indices half)
    in
    Alcotest.(check int) "half MEM" 2 mem_count
  done

let test_category_empty_class_raises () =
  let rng = Rng.create ~seed:3 in
  Alcotest.(check bool) "empty MEM raises" true
    (try
       ignore (Category.random_mix rng ~mem:[||] ~comp:[| 1 |] ~cores:2 Category.All_mem);
       false
     with Invalid_argument _ -> true)

(* ---- Sampler ------------------------------------------------------------------ *)

let test_random_mixes_shape () =
  let rng = Rng.create ~seed:5 in
  let mixes = Sampler.random_mixes rng ~cores:4 ~count:50 in
  Alcotest.(check int) "count" 50 (Array.length mixes);
  Array.iter (fun m -> Alcotest.(check int) "size" 4 (Mix.size m)) mixes

let test_random_mixes_deterministic () =
  let go () =
    Sampler.random_mixes (Rng.create ~seed:9) ~cores:4 ~count:20
    |> Array.map Mix.to_string
  in
  Alcotest.(check (array string)) "same sample" (go ()) (go ())

let test_distinct_random_mixes () =
  let rng = Rng.create ~seed:7 in
  let mixes = Sampler.distinct_random_mixes rng ~cores:2 ~count:100 in
  let keys = Array.to_list (Array.map Mix.to_string mixes) in
  Alcotest.(check int) "all distinct" 100 (List.length (List.sort_uniq compare keys));
  Alcotest.(check bool) "too many raises" true
    (try
       ignore (Sampler.distinct_random_mixes rng ~cores:1 ~count:30);
       false
     with Invalid_argument _ -> true)

let test_suite_classification_is_reasonable () =
  (* Classifying the real suite with real profiles should produce both
     classes, and the obvious members should land correctly. *)
  let hierarchy = Mppm_cache.Configs.baseline () in
  let profiles =
    Array.map
      (fun name ->
        Mppm_simcore.Single_core.profile
          (Mppm_simcore.Single_core.config hierarchy)
          ~benchmark:(Suite.find name) ~seed:(Suite.seed_for name)
          ~trace_instructions:1_000_000 ~interval_instructions:20_000)
      [| "hmmer"; "mcf"; "lbm"; "povray" |]
  in
  let classes = Category.classify_profiles profiles in
  Alcotest.(check bool) "hmmer is COMP" true (classes.(0) = Category.Comp);
  Alcotest.(check bool) "mcf is MEM" true (classes.(1) = Category.Mem);
  Alcotest.(check bool) "lbm is MEM" true (classes.(2) = Category.Mem);
  Alcotest.(check bool) "povray is COMP" true (classes.(3) = Category.Comp)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"sampled mixes are valid" ~count:200
      (pair small_int (int_range 1 16))
      (fun (seed, cores) ->
        let rng = Rng.create ~seed in
        let mixes = Sampler.random_mixes rng ~cores ~count:5 in
        Array.for_all
          (fun m ->
            Mix.size m = cores
            && Array.for_all
                 (fun i -> i >= 0 && i < Suite.count)
                 (Mix.indices m))
          mixes);
  ]

let tests =
  [
    ( "workload.mix",
      [
        Alcotest.test_case "sorting and names" `Quick test_mix_sorting_and_names;
        Alcotest.test_case "order-insensitive equality" `Quick test_mix_equality_ignores_order;
        Alcotest.test_case "validation" `Quick test_mix_validation;
        Alcotest.test_case "population counts" `Quick test_mix_population;
        Alcotest.test_case "benchmarks" `Quick test_mix_benchmarks;
      ] );
    ( "workload.category",
      [
        Alcotest.test_case "threshold" `Quick test_classify_threshold;
        Alcotest.test_case "partition" `Quick test_partition;
        Alcotest.test_case "compositions" `Quick test_category_random_mix_compositions;
        Alcotest.test_case "empty class" `Quick test_category_empty_class_raises;
        Alcotest.test_case "real-suite classification" `Slow
          test_suite_classification_is_reasonable;
      ] );
    ( "workload.sampler",
      [
        Alcotest.test_case "random mixes" `Quick test_random_mixes_shape;
        Alcotest.test_case "deterministic" `Quick test_random_mixes_deterministic;
        Alcotest.test_case "distinct mixes" `Quick test_distinct_random_mixes;
      ] );
    ("workload.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
