(* Tests for mppm_util: PRNG, special functions, statistics, rank
   statistics and combinatorics. *)

module Rng = Mppm_util.Rng
module Special = Mppm_util.Special
module Stats = Mppm_util.Stats
module Rank = Mppm_util.Rank
module Combinatorics = Mppm_util.Combinatorics

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* ---- Rng ----------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 1000 do
    Alcotest.(check int) "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_copy () =
  let a = Rng.create ~seed:7 in
  ignore (Rng.int a 100);
  let b = Rng.copy a in
  Alcotest.(check int) "copy continues identically" (Rng.int a 1000) (Rng.int b 1000)

let test_rng_split () =
  let a = Rng.create ~seed:7 in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "split stream is distinct" true (!same < 5)

let test_rng_int_in () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let x = Rng.int_in rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in range" true (x >= -5 && x <= 5)
  done

let test_rng_int_invalid () =
  let rng = Rng.create ~seed:3 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create ~seed:9 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (x >= 0.0 && x < 2.5)
  done

(* [float] is defined over the 53-bit primitive, and that is the same
   draw as the modulo-2^53 integer it replaced: bit-identical values.
   [bernoulli] draws exactly what [float t 1.0 < p] would. *)
let test_rng_float_is_53_bits () =
  List.iter
    (fun seed ->
      List.iter
        (fun bound ->
          let a = Rng.create ~seed in
          let b = Rng.copy a and c = Rng.copy a in
          for _ = 1 to 1000 do
            let x = Rng.float a bound in
            let via_bits = float_of_int (Rng.bits53 b) *. 0x1p-53 *. bound in
            let via_int = float_of_int (Rng.int c (1 lsl 53)) *. 0x1p-53 *. bound in
            if not (Float.equal x via_bits && Float.equal x via_int) then
              Alcotest.failf "seed %d bound %g: %h vs %h vs %h" seed bound x
                via_bits via_int
          done)
        [ 1.0; 2.5; 1e-3; 37.0 ];
      let a = Rng.create ~seed in
      let b = Rng.copy a in
      for _ = 1 to 1000 do
        Alcotest.(check bool) "bernoulli = float < p" (Rng.float b 1.0 < 0.3)
          (Rng.bernoulli a ~p:0.3)
      done)
    [ 0; 1; 42; 1 lsl 40 ]

let test_rng_bernoulli_extremes () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=1 always true" true (Rng.bernoulli rng ~p:1.0);
    Alcotest.(check bool) "p=0 always false" false (Rng.bernoulli rng ~p:0.0)
  done

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:17 in
  let n = 50_000 in
  let samples = Array.init n (fun _ -> Rng.exponential rng ~mean:4.0) in
  check_close 0.1 "mean" 4.0 (Stats.mean samples)

let test_rng_pick_weighted_zero () =
  let rng = Rng.create ~seed:19 in
  for _ = 1 to 1000 do
    let i = Rng.pick_weighted rng ~weights:[| 0.0; 1.0; 0.0 |] in
    Alcotest.(check int) "only positive weight picked" 1 i
  done

let test_rng_pick_weighted_proportions () =
  let rng = Rng.create ~seed:23 in
  let counts = [| 0; 0 |] in
  let n = 40_000 in
  for _ = 1 to n do
    let i = Rng.pick_weighted rng ~weights:[| 3.0; 1.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_close 0.02 "3:1 weighting" 0.75 (float_of_int counts.(0) /. float_of_int n)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:29 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create ~seed:31 in
  let s = Rng.sample_without_replacement rng ~n:20 ~k:10 in
  Alcotest.(check int) "length" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  let distinct =
    Array.for_all2 ( <> ) (Array.sub sorted 0 9) (Array.sub sorted 1 9)
  in
  Alcotest.(check bool) "distinct" true distinct;
  Array.iter
    (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 20))
    s

(* ---- Special ------------------------------------------------------- *)

let test_log_gamma_known () =
  check_close 1e-10 "gamma(1)" 0.0 (Special.log_gamma 1.0);
  check_close 1e-10 "gamma(2)" 0.0 (Special.log_gamma 2.0);
  check_close 1e-9 "gamma(5) = 4! = 24" (log 24.0) (Special.log_gamma 5.0);
  check_close 1e-9 "gamma(0.5) = sqrt(pi)"
    (0.5 *. log Float.pi)
    (Special.log_gamma 0.5)

let test_log_gamma_recurrence () =
  (* Gamma(x+1) = x Gamma(x). *)
  List.iter
    (fun x ->
      check_close 1e-8 "recurrence"
        (Special.log_gamma x +. log x)
        (Special.log_gamma (x +. 1.0)))
    [ 0.3; 1.7; 4.2; 10.0 ]

let test_incomplete_beta_bounds () =
  check_float "I_0 = 0" 0.0 (Special.incomplete_beta ~a:2.0 ~b:3.0 ~x:0.0);
  check_float "I_1 = 1" 1.0 (Special.incomplete_beta ~a:2.0 ~b:3.0 ~x:1.0);
  (* I_x(1,1) = x (uniform distribution). *)
  check_close 1e-10 "I_x(1,1) = x" 0.42
    (Special.incomplete_beta ~a:1.0 ~b:1.0 ~x:0.42)

let test_incomplete_beta_symmetry () =
  List.iter
    (fun (a, b, x) ->
      check_close 1e-9 "symmetry"
        (Special.incomplete_beta ~a ~b ~x)
        (1.0 -. Special.incomplete_beta ~a:b ~b:a ~x:(1.0 -. x)))
    [ (2.0, 3.0, 0.3); (0.5, 0.5, 0.7); (5.0, 1.5, 0.9) ]

let test_student_t_cdf_center () =
  List.iter
    (fun df -> check_close 1e-9 "cdf(0) = 0.5" 0.5 (Special.student_t_cdf ~df 0.0))
    [ 1.0; 5.0; 30.0 ]

let test_student_t_cdf_cauchy () =
  (* df=1 is the Cauchy distribution: CDF(1) = 3/4. *)
  check_close 1e-6 "cauchy cdf(1)" 0.75 (Special.student_t_cdf ~df:1.0 1.0)

let test_student_t_quantile_known () =
  (* Classic t-table values for 95% two-sided. *)
  check_close 5e-3 "df=9, p=0.975" 2.262
    (Special.student_t_quantile ~df:9.0 0.975);
  check_close 5e-3 "df=4, p=0.975" 2.776
    (Special.student_t_quantile ~df:4.0 0.975);
  check_close 1e-2 "df=1000 ~ normal" 1.962
    (Special.student_t_quantile ~df:1000.0 0.975)

let test_student_t_roundtrip () =
  List.iter
    (fun p ->
      let t = Special.student_t_quantile ~df:7.0 p in
      check_close 1e-6 "cdf(quantile(p)) = p" p (Special.student_t_cdf ~df:7.0 t))
    [ 0.05; 0.3; 0.5; 0.9; 0.999 ]

(* ---- Stats --------------------------------------------------------- *)

let test_stats_mean_var () =
  let a = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "mean" 5.0 (Stats.mean a);
  check_close 1e-9 "sample variance" (32.0 /. 7.0) (Stats.variance a)

let test_stats_percentiles () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  check_float "median" 3.0 (Stats.median a);
  check_float "p0" 1.0 (Stats.percentile a ~p:0.0);
  check_float "p100" 5.0 (Stats.percentile a ~p:100.0);
  check_float "p25" 2.0 (Stats.percentile a ~p:25.0);
  check_float "interpolated" 3.5 (Stats.percentile a ~p:62.5)

let test_stats_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 7.0 |] in
  check_float "min" (-1.0) lo;
  check_float "max" 7.0 hi

let test_stats_confidence_interval () =
  (* n=9 samples with mean 10, sample std 3: half-width = t(8, .975)*3/3. *)
  let a = [| 7.0; 7.0; 7.0; 10.0; 10.0; 10.0; 13.0; 13.0; 13.0 |] in
  let iv = Stats.confidence_interval a in
  check_float "mean" 10.0 iv.Stats.mean;
  let expected = Special.student_t_quantile ~df:8.0 0.975 *. Stats.stddev a /. 3.0 in
  check_close 1e-9 "half width" expected iv.Stats.half_width;
  Alcotest.(check int) "samples" 9 iv.Stats.samples;
  check_close 1e-9 "bounds" iv.Stats.mean ((iv.Stats.lower +. iv.Stats.upper) /. 2.0)

let test_stats_ci_level () =
  let a = Array.init 30 (fun i -> float_of_int i) in
  let narrow = Stats.confidence_interval ~level:0.5 a in
  let wide = Stats.confidence_interval ~level:0.99 a in
  Alcotest.(check bool) "higher level is wider" true
    (wide.Stats.half_width > narrow.Stats.half_width)

let test_stats_relative_error () =
  check_close 1e-9 "mean rel err" 0.1
    (Stats.mean_relative_error ~predicted:[| 1.1; 1.8 |] ~measured:[| 1.0; 2.0 |])

let test_stats_errors () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty sample")
    (fun () -> ignore (Stats.mean [||]));
  Alcotest.check_raises "variance needs 2"
    (Invalid_argument "Stats.variance: need >= 2 samples") (fun () ->
      ignore (Stats.variance [| 1.0 |]))

(* ---- Rank ---------------------------------------------------------- *)

let test_ranks_basic () =
  Alcotest.(check (array (float 1e-9)))
    "simple ranks" [| 3.0; 1.0; 2.0 |]
    (Rank.ranks [| 30.0; 10.0; 20.0 |])

let test_ranks_ties () =
  (* Two values tied for ranks 2 and 3 get 2.5 each. *)
  Alcotest.(check (array (float 1e-9)))
    "mid-ranks" [| 1.0; 2.5; 2.5; 4.0 |]
    (Rank.ranks [| 1.0; 5.0; 5.0; 9.0 |])

let test_spearman_perfect () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close 1e-9 "identity" 1.0 (Rank.spearman a a);
  check_close 1e-9 "monotone transform" 1.0
    (Rank.spearman a (Array.map (fun x -> exp x) a));
  check_close 1e-9 "reversal" (-1.0)
    (Rank.spearman a (Array.map (fun x -> -.x) a))

let test_spearman_known () =
  (* Hand-computed: one transposition among 4 distinct values. *)
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  let b = [| 1.0; 3.0; 2.0; 4.0 |] in
  (* rho = 1 - 6*sum(d^2)/(n(n^2-1)) = 1 - 6*2/60 = 0.8 *)
  check_close 1e-9 "transposition" 0.8 (Rank.spearman a b)

let test_pearson_linear () =
  let a = [| 1.0; 2.0; 3.0 |] in
  check_close 1e-9 "linear" 1.0 (Rank.pearson a (Array.map (fun x -> (2.0 *. x) +. 1.0) a))

(* ---- Combinatorics -------------------------------------------------- *)

let test_binomial_known () =
  check_float "C(5,2)" 10.0 (Combinatorics.binomial 5 2);
  check_float "C(10,0)" 1.0 (Combinatorics.binomial 10 0);
  check_float "C(10,10)" 1.0 (Combinatorics.binomial 10 10);
  check_float "C(3,5)=0" 0.0 (Combinatorics.binomial 3 5);
  check_float "C(52,5)" 2598960.0 (Combinatorics.binomial 52 5)

let test_population_counts_match_paper () =
  (* The paper's introduction: 435 / 35,960 / >30.2M mixes for 29
     benchmarks on 2/4/8 cores. *)
  check_float "2 cores" 435.0 (Combinatorics.multisets_count ~n:29 ~m:2);
  check_float "4 cores" 35960.0 (Combinatorics.multisets_count ~n:29 ~m:4);
  check_float "8 cores" 30260340.0 (Combinatorics.multisets_count ~n:29 ~m:8)

let test_selection_with_repetition_sorted () =
  let rng = Rng.create ~seed:41 in
  for _ = 1 to 100 do
    let mix = Combinatorics.random_selection_with_repetition rng ~n:10 ~m:4 in
    for i = 1 to 3 do
      Alcotest.(check bool) "sorted" true (mix.(i - 1) <= mix.(i))
    done
  done

(* ---- Ascii_plot ------------------------------------------------------ *)

module Ascii_plot = Mppm_util.Ascii_plot

let count_char c s =
  String.fold_left (fun acc x -> if x = c then acc + 1 else acc) 0 s

let test_plot_scatter_shape () =
  let points = [| (1.0, 1.0); (2.0, 2.0); (3.0, 1.5) |] in
  let out = Ascii_plot.scatter ~width:40 ~height:10 points in
  let lines = String.split_on_char '\n' out in
  (* 10 grid rows + axis + x labels. *)
  Alcotest.(check bool) "enough lines" true (List.length lines >= 12);
  Alcotest.(check bool) "all points drawn" true (count_char '*' out >= 3)

let test_plot_scatter_diagonal () =
  let out =
    Ascii_plot.scatter ~diagonal:true ~width:30 ~height:10 [| (1.0, 2.0) |]
  in
  Alcotest.(check bool) "bisector drawn" true (count_char '.' out > 5);
  Alcotest.(check bool) "point drawn" true (count_char '*' out >= 1)

let test_plot_scatter_empty () =
  Alcotest.(check string) "empty note" "(no points)\n" (Ascii_plot.scatter [||])

let test_plot_scatter_degenerate () =
  (* A single repeated point must not crash on a zero-size range. *)
  let out = Ascii_plot.scatter [| (5.0, 5.0); (5.0, 5.0) |] in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_plot_series () =
  let out =
    Ascii_plot.series ~width:30 ~height:8
      [ ("a", [| 1.0; 2.0; 3.0 |]); ("b", [| 3.0; 2.0; 1.0 |]) ]
  in
  Alcotest.(check bool) "first glyph" true (count_char '*' out >= 3);
  Alcotest.(check bool) "second glyph" true (count_char '+' out >= 3);
  Alcotest.(check bool) "legend present" true
    (count_char 'a' out >= 1 && count_char 'b' out >= 1)

let test_plot_series_empty () =
  Alcotest.(check string) "empty note" "(no series)\n"
    (Ascii_plot.series [ ("x", [||]) ])

(* ---- qcheck properties ---------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"rng int is within bound" ~count:500
      (pair small_int (int_range 1 10_000))
      (fun (seed, bound) ->
        let rng = Rng.create ~seed in
        let x = Rng.int rng bound in
        x >= 0 && x < bound);
    Test.make ~name:"incomplete beta is monotone in x" ~count:200
      (triple (float_range 0.2 5.0) (float_range 0.2 5.0)
         (pair (float_range 0.01 0.98) (float_range 0.001 0.01)))
      (fun (a, b, (x, dx)) ->
        Special.incomplete_beta ~a ~b ~x
        <= Special.incomplete_beta ~a ~b ~x:(x +. dx) +. 1e-12);
    Test.make ~name:"t quantile inverts cdf" ~count:200
      (pair (float_range 1.0 50.0) (float_range 0.01 0.99))
      (fun (df, p) ->
        abs_float (Special.student_t_cdf ~df (Special.student_t_quantile ~df p) -. p)
        < 1e-5);
    Test.make ~name:"spearman in [-1, 1]" ~count:200
      (array_of_size (Gen.int_range 2 20) (float_range (-100.0) 100.0))
      (fun a ->
        let rng = Rng.create ~seed:(Array.length a) in
        let b = Array.map (fun x -> x +. Rng.float rng 10.0) a in
        let rho = Rank.spearman a b in
        Float.is_nan rho || (rho >= -1.0 -. 1e-9 && rho <= 1.0 +. 1e-9));
    Test.make ~name:"sample without replacement is distinct" ~count:200
      (pair small_int (int_range 1 30))
      (fun (seed, n) ->
        let rng = Rng.create ~seed in
        let k = 1 + (seed mod n) in
        let s = Rng.sample_without_replacement rng ~n ~k in
        let sorted = Array.copy s in
        Array.sort compare sorted;
        let ok = ref true in
        for i = 1 to k - 1 do
          if sorted.(i) = sorted.(i - 1) then ok := false
        done;
        !ok);
  ]

let tests =
  [
    ( "util.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "split" `Quick test_rng_split;
        Alcotest.test_case "int_in range" `Quick test_rng_int_in;
        Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "float is the 53-bit draw" `Quick test_rng_float_is_53_bits;
        Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
        Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
        Alcotest.test_case "pick_weighted zero weight" `Quick test_rng_pick_weighted_zero;
        Alcotest.test_case "pick_weighted proportions" `Slow test_rng_pick_weighted_proportions;
        Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "sample without replacement" `Quick test_rng_sample_without_replacement;
      ] );
    ( "util.special",
      [
        Alcotest.test_case "log_gamma known values" `Quick test_log_gamma_known;
        Alcotest.test_case "log_gamma recurrence" `Quick test_log_gamma_recurrence;
        Alcotest.test_case "incomplete beta bounds" `Quick test_incomplete_beta_bounds;
        Alcotest.test_case "incomplete beta symmetry" `Quick test_incomplete_beta_symmetry;
        Alcotest.test_case "t cdf center" `Quick test_student_t_cdf_center;
        Alcotest.test_case "t cdf cauchy" `Quick test_student_t_cdf_cauchy;
        Alcotest.test_case "t quantile table" `Quick test_student_t_quantile_known;
        Alcotest.test_case "t quantile roundtrip" `Quick test_student_t_roundtrip;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean and variance" `Quick test_stats_mean_var;
        Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
        Alcotest.test_case "min max" `Quick test_stats_min_max;
        Alcotest.test_case "confidence interval" `Quick test_stats_confidence_interval;
        Alcotest.test_case "CI level ordering" `Quick test_stats_ci_level;
        Alcotest.test_case "relative errors" `Quick test_stats_relative_error;
        Alcotest.test_case "error cases" `Quick test_stats_errors;
      ] );
    ( "util.rank",
      [
        Alcotest.test_case "ranks" `Quick test_ranks_basic;
        Alcotest.test_case "tied ranks" `Quick test_ranks_ties;
        Alcotest.test_case "spearman perfect" `Quick test_spearman_perfect;
        Alcotest.test_case "spearman known" `Quick test_spearman_known;
        Alcotest.test_case "pearson linear" `Quick test_pearson_linear;
      ] );
    ( "util.combinatorics",
      [
        Alcotest.test_case "binomial known" `Quick test_binomial_known;
        Alcotest.test_case "paper population counts" `Quick test_population_counts_match_paper;
        Alcotest.test_case "selection sorted" `Quick test_selection_with_repetition_sorted;
      ] );
    ( "util.ascii_plot",
      [
        Alcotest.test_case "scatter shape" `Quick test_plot_scatter_shape;
        Alcotest.test_case "scatter diagonal" `Quick test_plot_scatter_diagonal;
        Alcotest.test_case "scatter empty" `Quick test_plot_scatter_empty;
        Alcotest.test_case "scatter degenerate" `Quick test_plot_scatter_degenerate;
        Alcotest.test_case "series" `Quick test_plot_series;
        Alcotest.test_case "series empty" `Quick test_plot_series_empty;
      ] );
    ("util.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
