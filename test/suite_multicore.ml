(* Tests for mppm_multicore: the detailed reference simulator.  The
   decisive invariants: a one-program "mix" behaves exactly like the
   single-core simulator; non-interfering programs see slowdown 1; and
   contention appears exactly where the workload design says it should. *)

module Configs = Mppm_cache.Configs
module Single_core = Mppm_simcore.Single_core
module Multi_core = Mppm_multicore.Multi_core
module Suite = Mppm_trace.Suite

let check_close eps = Alcotest.(check (float eps))

let baseline = Configs.baseline ()
let config = Multi_core.config baseline

let spec ?(offset = 0) name =
  {
    Multi_core.benchmark = Suite.find name;
    seed = Suite.seed_for name;
    offset;
  }

let test_single_program_equals_single_core () =
  let trace = 100_000 in
  let multi =
    Multi_core.run config ~programs:[| spec "gamess" |] ~trace_instructions:trace
  in
  let single =
    Single_core.run (Single_core.config baseline) ~benchmark:(Suite.find "gamess")
      ~seed:(Suite.seed_for "gamess") ~instructions:trace
  in
  let p = multi.Multi_core.programs.(0) in
  check_close 1e-6 "identical cycles" single.Single_core.cycles p.Multi_core.cycles;
  Alcotest.(check int) "identical misses" single.Single_core.llc_misses
    p.Multi_core.llc_misses;
  check_close 1e-9 "cpi" single.Single_core.cpi p.Multi_core.multicore_cpi

let test_deterministic () =
  let programs = [| spec ~offset:0 "gamess"; spec ~offset:(1 lsl 36) "soplex" |] in
  let go () = Multi_core.run config ~programs ~trace_instructions:50_000 in
  let a = go () and b = go () in
  Array.iteri
    (fun i p ->
      check_close 1e-9 "same cycles" p.Multi_core.cycles
        b.Multi_core.programs.(i).Multi_core.cycles)
    a.Multi_core.programs

let test_compute_bound_mix_no_interference () =
  let offsets = Multi_core.default_offsets 4 in
  let names = [| "hmmer"; "povray"; "namd"; "gromacs" |] in
  let programs = Array.mapi (fun i n -> spec ~offset:offsets.(i) n) names in
  let trace = 100_000 in
  let multi = Multi_core.run config ~programs ~trace_instructions:trace in
  Array.iteri
    (fun i p ->
      let single =
        Single_core.run (Single_core.config baseline)
          ~benchmark:(Suite.find names.(i)) ~seed:(Suite.seed_for names.(i))
          ~instructions:trace
      in
      let slowdown = p.Multi_core.cycles /. single.Single_core.cycles in
      Alcotest.(check bool)
        (names.(i) ^ " unaffected by compute co-runners")
        true
        (slowdown < 1.02))
    multi.Multi_core.programs

let test_gamess_suffers_under_contention () =
  let offsets = Multi_core.default_offsets 4 in
  let names = [| "gamess"; "gamess"; "lbm"; "soplex" |] in
  let programs = Array.mapi (fun i n -> spec ~offset:offsets.(i) n) names in
  let trace = 400_000 in
  let multi = Multi_core.run config ~programs ~trace_instructions:trace in
  let single =
    Single_core.run (Single_core.config baseline) ~benchmark:(Suite.find "gamess")
      ~seed:(Suite.seed_for "gamess") ~instructions:trace
  in
  let slowdown =
    multi.Multi_core.programs.(0).Multi_core.cycles /. single.Single_core.cycles
  in
  Alcotest.(check bool) "gamess slowed by > 1.3x" true (slowdown > 1.3)

let test_result_structure () =
  let offsets = Multi_core.default_offsets 2 in
  let programs = [| spec ~offset:offsets.(0) "hmmer"; spec ~offset:offsets.(1) "mcf" |] in
  let trace = 50_000 in
  let r = Multi_core.run config ~programs ~trace_instructions:trace in
  Alcotest.(check int) "two programs" 2 (Array.length r.Multi_core.programs);
  Array.iter
    (fun p ->
      Alcotest.(check int) "first-pass length" trace p.Multi_core.instructions;
      Alcotest.(check bool) "kept running after the pass" true
        (p.Multi_core.total_retired >= trace);
      check_close 1e-9 "cpi definition"
        (p.Multi_core.cycles /. float_of_int trace)
        p.Multi_core.multicore_cpi)
    r.Multi_core.programs;
  let max_cycles =
    Array.fold_left
      (fun acc p -> Float.max acc p.Multi_core.cycles)
      0.0 r.Multi_core.programs
  in
  check_close 1e-9 "wall = slowest completion" max_cycles r.Multi_core.wall_cycles;
  (* The fast program (hmmer) re-iterates while mcf finishes. *)
  let hmmer = r.Multi_core.programs.(0) in
  Alcotest.(check bool) "fast program re-iterates" true
    (hmmer.Multi_core.total_retired > trace);
  Alcotest.(check bool) "shared LLC saw traffic" true
    (r.Multi_core.llc_total_accesses > 0)

let test_default_offsets () =
  let o = Multi_core.default_offsets 16 in
  Alcotest.(check int) "count" 16 (Array.length o);
  let sorted = Array.copy o in
  Array.sort compare sorted;
  for i = 1 to 15 do
    Alcotest.(check bool) "well separated" true
      (sorted.(i) - sorted.(i - 1) > 1 lsl 30)
  done;
  Array.iter
    (fun x -> Alcotest.(check int) "page aligned" 0 (x mod 4096))
    o

let test_validations () =
  Alcotest.(check bool) "no programs raises" true
    (try
       ignore (Multi_core.run config ~programs:[||] ~trace_instructions:1000);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad trace raises" true
    (try
       ignore (Multi_core.run config ~programs:[| spec "mcf" |] ~trace_instructions:0);
       false
     with Invalid_argument _ -> true)

let test_identical_twins_converge () =
  (* Two copies of the same benchmark with different offsets should see
     nearly identical slowdowns (symmetry of the machine). *)
  let offsets = Multi_core.default_offsets 2 in
  let programs =
    [| spec ~offset:offsets.(0) "gamess"; spec ~offset:offsets.(1) "gamess" |]
  in
  let r = Multi_core.run config ~programs ~trace_instructions:200_000 in
  let a = r.Multi_core.programs.(0).Multi_core.cycles in
  let b = r.Multi_core.programs.(1).Multi_core.cycles in
  Alcotest.(check bool) "twins within 2%" true
    (abs_float (a -. b) /. a < 0.02)

(* The scheduler reads the engines' clocks in place and the engines
   allocate nothing per block, so a whole 4-program run allocates well under
   a byte per retired instruction (set-up and end-of-run reporting only). *)
let test_run_allocation () =
  if not (Mppm_util.Invariant.enabled ()) then begin
    let offsets = Multi_core.default_offsets 4 in
    let names = [| "mcf"; "soplex"; "gamess"; "hmmer" |] in
    let programs = Array.mapi (fun i n -> spec ~offset:offsets.(i) n) names in
    let before = Gc.minor_words () in
    let r = Multi_core.run config ~programs ~trace_instructions:200_000 in
    let bytes = (Gc.minor_words () -. before) *. float_of_int (Sys.word_size / 8) in
    let retired =
      Array.fold_left (fun acc p -> acc + p.Multi_core.total_retired) 0
        r.Multi_core.programs
    in
    let per_insn = bytes /. float_of_int retired in
    if per_insn >= 1.0 then
      Alcotest.failf "%.3f bytes per retired instruction" per_insn
  end

let tests =
  [
    ( "multicore.sim",
      [
        Alcotest.test_case "1 program = single-core" `Quick
          test_single_program_equals_single_core;
        Alcotest.test_case "deterministic" `Quick test_deterministic;
        Alcotest.test_case "compute mix: no interference" `Quick
          test_compute_bound_mix_no_interference;
        Alcotest.test_case "gamess suffers under contention" `Quick
          test_gamess_suffers_under_contention;
        Alcotest.test_case "result structure" `Quick test_result_structure;
        Alcotest.test_case "default offsets" `Quick test_default_offsets;
        Alcotest.test_case "validations" `Quick test_validations;
        Alcotest.test_case "identical twins" `Quick test_identical_twins_converge;
        Alcotest.test_case "under a byte per instruction" `Quick test_run_allocation;
      ] );
  ]
