(* Tests for mppm_simcore: the core timing model, the engine, single-core
   simulation and profiling — including the key cross-validation that the
   counter-based memory CPI equals the two-run (perfect-vs-real LLC)
   method. *)

module Hierarchy = Mppm_cache.Hierarchy
module Geometry = Mppm_cache.Geometry
module Configs = Mppm_cache.Configs
module Core_model = Mppm_simcore.Core_model
module Core_engine = Mppm_simcore.Core_engine
module Single_core = Mppm_simcore.Single_core
module Generator = Mppm_trace.Generator
module Benchmark = Mppm_trace.Benchmark
module Suite = Mppm_trace.Suite
module Profile = Mppm_profile.Profile

let check_close eps = Alcotest.(check (float eps))

let baseline = Configs.baseline ()

(* ---- Core_model --------------------------------------------------------- *)

(* Hierarchy level codes, as Hierarchy.access returns them. *)
let l1 = 0 and l2 = 1 and llc = 2 and memory = 3

let stalls = Core_model.stalls Core_model.default baseline

(* The documented data-stall rule: the level's numerator, divided by the
   phase's MLP off core (LLC and memory) when [divide]. *)
let data_stall ?(divide = true) ~mlp level =
  let n = stalls.Core_model.data.(level) in
  if divide && level >= llc then n /. mlp else n

let test_stall_l1_free () =
  check_close 0.0 "data L1 hits are free" 0.0 stalls.Core_model.data.(l1);
  check_close 0.0 "fetch L1 hits are free" 0.0 stalls.Core_model.fetch.(l1)

let test_stall_levels () =
  let p = Core_model.default in
  check_close 1e-9 "L2" (p.Core_model.l2_exposure *. 9.0) stalls.Core_model.data.(l2);
  check_close 1e-9 "LLC" (p.Core_model.llc_exposure *. 15.0) stalls.Core_model.data.(llc);
  check_close 1e-9 "memory" (p.Core_model.memory_exposure *. 215.0)
    stalls.Core_model.data.(memory)

(* A replay of the engine's documented timing model on a second generator
   and hierarchy: base CPI per instruction, one fetch per 16 instructions,
   and data stalls per [data_stall].  Returns (cycles, memory-stall
   cycles), accumulated in the engine's order of operations. *)
let replay ?divide name ~instructions =
  let g = Generator.create ~seed:(Suite.seed_for name) (Suite.find name) in
  let h = Hierarchy.create baseline in
  let cycles = ref 0.0 and memory_stall = ref 0.0 in
  let miss ~stall ~miss_extra =
    cycles := !cycles +. (1.0 *. (stall -. miss_extra)) +. miss_extra +. 0.0;
    memory_stall := !memory_stall +. miss_extra +. 0.0
  in
  let retired = ref 0 and debt = ref 0 in
  while !retired < instructions do
    let phase = Generator.current_phase g in
    let op = Generator.next g ~cap:(instructions - !retired) in
    let n = op.Mppm_trace.Op.instructions in
    retired := !retired + n;
    cycles := !cycles +. (1.0 *. float_of_int n *. phase.Benchmark.base_cpi);
    debt := !debt + n;
    while !debt >= Generator.instructions_per_fetch do
      debt := !debt - Generator.instructions_per_fetch;
      let level =
        Hierarchy.access h ~kind:Hierarchy.Fetch ~addr:(Generator.next_fetch g)
      in
      let stall = stalls.Core_model.fetch.(level) in
      if level = memory then
        miss ~stall ~miss_extra:stalls.Core_model.fetch_miss_extra
      else cycles := !cycles +. (1.0 *. stall)
    done;
    match op.Mppm_trace.Op.access with
    | None -> ()
    | Some { Mppm_trace.Op.addr; _ } ->
        let level = Hierarchy.access h ~kind:Hierarchy.Load ~addr in
        let mlp = phase.Benchmark.mlp in
        let stall = data_stall ?divide ~mlp level in
        if level = memory then
          miss ~stall ~miss_extra:(stall -. data_stall ?divide ~mlp llc)
        else cycles := !cycles +. (1.0 *. stall)
  done;
  (!cycles, !memory_stall)

let engine_run name ~instructions =
  let generator = Generator.create ~seed:(Suite.seed_for name) (Suite.find name) in
  let engine =
    Core_engine.create ~params:Core_model.default
      ~hierarchy:(Hierarchy.create baseline) ~generator ()
  in
  let remaining = ref instructions in
  while !remaining > 0 do
    remaining := !remaining - Core_engine.step engine ~cap:!remaining
  done;
  (Core_engine.cycles engine, Core_engine.memory_stall_cycles engine)

let test_stall_mlp_divides_offcore () =
  (* The engine's cycle and memory-stall counts equal, bit for bit, a
     replay that divides off-core stalls by MLP, and differ from one that
     does not (these benchmarks all run at MLP > 1). *)
  List.iter
    (fun name ->
      let cycles, memory_stall = engine_run name ~instructions:100_000 in
      let want_cycles, want_stall = replay name ~instructions:100_000 in
      Alcotest.(check bool) (name ^ ": cycles") true (Float.equal want_cycles cycles);
      Alcotest.(check bool) (name ^ ": memory stall") true
        (Float.equal want_stall memory_stall);
      let undivided, _ = replay ~divide:false name ~instructions:100_000 in
      Alcotest.(check bool) (name ^ ": MLP matters") true (undivided > cycles))
    [ "mcf"; "soplex"; "lbm" ]

let test_llc_miss_extra_is_difference () =
  let p = Core_model.default in
  let mlp = 1.7 in
  check_close 1e-9 "data extra = memory stall - LLC-hit stall"
    ((p.Core_model.memory_exposure *. 215.0 /. mlp)
    -. (p.Core_model.llc_exposure *. 15.0 /. mlp))
    (data_stall ~mlp memory -. data_stall ~mlp llc);
  check_close 1e-9 "fetch extra = memory stall - LLC-hit stall"
    (stalls.Core_model.fetch.(memory) -. stalls.Core_model.fetch.(llc))
    stalls.Core_model.fetch_miss_extra

let test_fetch_stall () =
  let p = Core_model.default in
  check_close 1e-9 "fetch L2" (p.Core_model.fetch_exposure *. 9.0)
    stalls.Core_model.fetch.(l2);
  check_close 1e-9 "fetch memory" (p.Core_model.fetch_exposure *. 215.0)
    stalls.Core_model.fetch.(memory);
  check_close 1e-9 "fetch extra" (p.Core_model.fetch_exposure *. 200.0)
    stalls.Core_model.fetch_miss_extra

(* ---- Single_core ---------------------------------------------------------- *)

let bench name = Suite.find name
let seed name = Suite.seed_for name

let test_run_totals_consistent () =
  let cfg = Single_core.config baseline in
  let t = Single_core.run cfg ~benchmark:(bench "soplex") ~seed:(seed "soplex")
      ~instructions:100_000 in
  Alcotest.(check int) "instructions" 100_000 t.Single_core.instructions;
  check_close 1e-9 "cpi" (t.Single_core.cycles /. 100_000.0) t.Single_core.cpi;
  check_close 1e-9 "memory cpi"
    (t.Single_core.memory_stall_cycles /. 100_000.0)
    t.Single_core.memory_cpi;
  Alcotest.(check bool) "cycles at least base work" true
    (t.Single_core.cycles > 0.3 *. 100_000.0);
  Alcotest.(check bool) "misses <= accesses" true
    (t.Single_core.llc_misses <= t.Single_core.llc_accesses)

let test_run_deterministic () =
  let cfg = Single_core.config baseline in
  let go () = Single_core.run cfg ~benchmark:(bench "astar") ~seed:7 ~instructions:50_000 in
  Alcotest.(check bool) "identical totals" true (go () = go ())

let test_perfect_llc_no_misses () =
  let cfg = Single_core.config ~perfect_llc:true baseline in
  let t = Single_core.run cfg ~benchmark:(bench "mcf") ~seed:(seed "mcf")
      ~instructions:100_000 in
  Alcotest.(check int) "no LLC misses" 0 t.Single_core.llc_misses;
  check_close 1e-9 "no memory CPI" 0.0 t.Single_core.memory_cpi

let test_perfect_llc_is_faster () =
  let real = Single_core.run (Single_core.config baseline)
      ~benchmark:(bench "mcf") ~seed:(seed "mcf") ~instructions:100_000 in
  let perfect = Single_core.run (Single_core.config ~perfect_llc:true baseline)
      ~benchmark:(bench "mcf") ~seed:(seed "mcf") ~instructions:100_000 in
  Alcotest.(check bool) "perfect LLC strictly faster on mcf" true
    (perfect.Single_core.cycles < real.Single_core.cycles)

let test_memory_cpi_methods_agree () =
  (* The Eyerman-style counter and the paper's two-run method must agree:
     the streams are deterministic and only LLC-miss stalls differ. *)
  let cfg = Single_core.config baseline in
  List.iter
    (fun name ->
      let counter =
        (Single_core.run cfg ~benchmark:(bench name) ~seed:(seed name)
           ~instructions:200_000)
          .Single_core.memory_cpi
      in
      let two_run =
        Single_core.memory_cpi_two_run cfg ~benchmark:(bench name)
          ~seed:(seed name) ~instructions:200_000
      in
      check_close 1e-6 (name ^ ": methods agree") two_run counter)
    [ "mcf"; "hmmer"; "gamess"; "lbm" ]

let test_profile_shape () =
  let cfg = Single_core.config baseline in
  let p = Single_core.profile cfg ~benchmark:(bench "gamess") ~seed:(seed "gamess")
      ~trace_instructions:100_000 ~interval_instructions:10_000 in
  Alcotest.(check int) "intervals" 10 (Array.length (Profile.intervals p));
  Alcotest.(check int) "total instructions" 100_000 (Profile.total_instructions p);
  Array.iter
    (fun iv ->
      Alcotest.(check int) "interval length" 10_000 iv.Profile.instructions;
      Alcotest.(check bool) "cycles positive" true (iv.Profile.cycles > 0.0);
      check_close 1e-6 "SDC accesses = llc accesses" iv.Profile.llc_accesses
        (Mppm_cache.Sdc.accesses iv.Profile.sdc);
      check_close 1e-6 "SDC misses = llc misses" iv.Profile.llc_misses
        (Mppm_cache.Sdc.misses iv.Profile.sdc))
    (Profile.intervals p)

let test_profile_matches_run () =
  (* Profiling must not perturb the simulation: totals equal a plain run. *)
  let cfg = Single_core.config baseline in
  let p = Single_core.profile cfg ~benchmark:(bench "soplex") ~seed:(seed "soplex")
      ~trace_instructions:100_000 ~interval_instructions:10_000 in
  let t = Single_core.run cfg ~benchmark:(bench "soplex") ~seed:(seed "soplex")
      ~instructions:100_000 in
  check_close 1e-6 "same cycles" t.Single_core.cycles (Profile.total_cycles p);
  check_close 1e-9 "same cpi" t.Single_core.cpi (Profile.cpi p);
  check_close 1e-6 "same memory cpi" t.Single_core.memory_cpi (Profile.memory_cpi p)

let test_profile_validations () =
  let cfg = Single_core.config baseline in
  Alcotest.(check bool) "non-divisible raises" true
    (try
       ignore
         (Single_core.profile cfg ~benchmark:(bench "mcf") ~seed:1
            ~trace_instructions:100_000 ~interval_instructions:30_000);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "perfect-LLC profile raises" true
    (try
       ignore
         (Single_core.profile
            (Single_core.config ~perfect_llc:true baseline)
            ~benchmark:(bench "mcf") ~seed:1 ~trace_instructions:100_000
            ~interval_instructions:10_000);
       false
     with Invalid_argument _ -> true)

let test_compute_bound_has_low_memory_cpi () =
  (* Long enough runs that cold misses do not dominate. *)
  let cfg = Single_core.config baseline in
  let t = Single_core.run cfg ~benchmark:(bench "hmmer") ~seed:(seed "hmmer")
      ~instructions:1_000_000 in
  Alcotest.(check bool) "hmmer memory CPI small" true
    (t.Single_core.memory_cpi < 0.2 *. t.Single_core.cpi);
  let m = Single_core.run cfg ~benchmark:(bench "mcf") ~seed:(seed "mcf")
      ~instructions:200_000 in
  Alcotest.(check bool) "mcf memory CPI dominates" true
    (m.Single_core.memory_cpi > 0.5 *. m.Single_core.cpi)

let test_llc_size_monotonicity () =
  (* A bigger LLC must help a program whose working set exceeds 512KB but
     fits in 2MB: soplex's 880KB matrix. *)
  let run llc =
    (Single_core.run
       (Single_core.config (Configs.baseline ~llc ()))
       ~benchmark:(bench "soplex") ~seed:(seed "soplex")
       ~instructions:1_000_000)
      .Single_core.cycles
  in
  let small = run 1 and big = run 5 in
  Alcotest.(check bool) "2MB LLC beats 512KB for soplex" true
    (big < 0.95 *. small)

(* ---- Core_engine snapshots -------------------------------------------------- *)

let test_engine_snapshot_delta () =
  let generator = Generator.create ~seed:3 (bench "soplex") in
  let hierarchy = Hierarchy.create baseline in
  let engine =
    Core_engine.create ~params:Core_model.default ~hierarchy ~generator ()
  in
  let consume n =
    let remaining = ref n in
    while !remaining > 0 do
      remaining := !remaining - Core_engine.step engine ~cap:!remaining
    done
  in
  consume 10_000;
  let snap = Core_engine.snapshot engine in
  consume 5_000;
  let delta = Core_engine.since engine snap in
  Alcotest.(check int) "delta retired" 5_000 delta.Core_engine.s_retired;
  Alcotest.(check bool) "delta cycles positive" true (delta.Core_engine.s_cycles > 0.0);
  Alcotest.(check int) "retired total" 15_000 (Core_engine.retired engine)

(* After warm-up, with the sanitizer off, the per-block path of an LRU,
   unpartitioned, channel-free engine allocates nothing at all: int-coded
   cache outcomes, a field-emitting generator and an all-float clock. *)
let test_engine_step_allocation_free () =
  if not (Mppm_util.Invariant.enabled ()) then
    List.iter
      (fun name ->
        let generator = Generator.create ~seed:(seed name) (bench name) in
        let engine =
          Core_engine.create ~params:Core_model.default
            ~hierarchy:(Hierarchy.create baseline) ~generator ()
        in
        let consume n =
          let remaining = ref n in
          while !remaining > 0 do
            remaining := !remaining - Core_engine.step engine ~cap:!remaining
          done
        in
        consume 50_000;
        let before = Gc.minor_words () in
        consume 200_000;
        let words = Gc.minor_words () -. before in
        check_close 0.0 (name ^ ": minor words over 200k instructions") 0.0 words)
      [ "mcf"; "soplex"; "gamess"; "hmmer" ]

let tests =
  [
    ( "simcore.core_model",
      [
        Alcotest.test_case "L1 hits stall nothing" `Quick test_stall_l1_free;
        Alcotest.test_case "per-level stalls" `Quick test_stall_levels;
        Alcotest.test_case "mlp divides off-core stalls" `Quick test_stall_mlp_divides_offcore;
        Alcotest.test_case "miss extra = stall difference" `Quick test_llc_miss_extra_is_difference;
        Alcotest.test_case "fetch stalls" `Quick test_fetch_stall;
      ] );
    ( "simcore.single_core",
      [
        Alcotest.test_case "totals consistent" `Quick test_run_totals_consistent;
        Alcotest.test_case "deterministic" `Quick test_run_deterministic;
        Alcotest.test_case "perfect LLC: no misses" `Quick test_perfect_llc_no_misses;
        Alcotest.test_case "perfect LLC is faster" `Quick test_perfect_llc_is_faster;
        Alcotest.test_case "memory CPI: counter = two-run" `Quick test_memory_cpi_methods_agree;
        Alcotest.test_case "profile shape" `Quick test_profile_shape;
        Alcotest.test_case "profile matches run" `Quick test_profile_matches_run;
        Alcotest.test_case "profile validations" `Quick test_profile_validations;
        Alcotest.test_case "compute vs memory bound" `Quick test_compute_bound_has_low_memory_cpi;
        Alcotest.test_case "LLC size monotonicity" `Quick test_llc_size_monotonicity;
      ] );
    ( "simcore.engine",
      [
        Alcotest.test_case "snapshot deltas" `Quick test_engine_snapshot_delta;
        Alcotest.test_case "step allocates nothing" `Quick
          test_engine_step_allocation_free;
      ] );
  ]
