(* Tests for mppm_trace: benchmark validation, the op/generator machinery
   and the synthetic suite. *)

module Benchmark = Mppm_trace.Benchmark
module Generator = Mppm_trace.Generator
module Op = Mppm_trace.Op
module Suite = Mppm_trace.Suite

let check_close eps = Alcotest.(check (float eps))

let region ?(pattern = Benchmark.Uniform) name size weight =
  { Benchmark.region_name = name; size_bytes = size; weight; region_pattern = pattern }

let phase ?(mem = 0.3) ?(store = 0.3) ?(mlp = 1.5) ?(cpi = 0.5) name regions =
  {
    Benchmark.phase_name = name;
    base_cpi = cpi;
    mem_ratio = mem;
    store_fraction = store;
    mlp;
    regions;
  }

let simple_benchmark ?(mem = 0.3) () =
  {
    Benchmark.name = "test-bench";
    description = "synthetic test benchmark";
    schedule = [ (phase ~mem "only" [ region "data" 65536 1.0 ], 100_000) ];
    code_bytes = 8192;
    hot_code_bytes = 4096;
    cold_fetch_rate = 0.0;
  }

let two_phase_benchmark =
  {
    Benchmark.name = "two-phase";
    description = "alternating phases";
    schedule =
      [
        (phase ~mem:0.5 "memory" [ region "a" 4096 1.0 ], 1_000);
        (phase ~mem:0.0 "compute" [ region "b" 4096 1.0 ], 500);
      ];
    code_bytes = 4096;
    hot_code_bytes = 4096;
    cold_fetch_rate = 0.0;
  }

(* ---- Op --------------------------------------------------------------- *)

let test_op_constructors () =
  let c = Op.compute 5 in
  Alcotest.(check int) "compute instructions" 5 c.Op.instructions;
  Alcotest.(check bool) "no access" true (c.Op.access = None);
  let m = Op.memory ~gap:3 ~addr:256 ~kind:Op.Load in
  Alcotest.(check int) "memory instructions" 4 m.Op.instructions;
  (match m.Op.access with
  | Some a ->
      Alcotest.(check int) "address" 256 a.Op.addr;
      Alcotest.(check bool) "kind" true (a.Op.kind = Op.Load)
  | None -> Alcotest.fail "expected access");
  Alcotest.(check bool) "compute 0 raises" true
    (try ignore (Op.compute 0); false with Invalid_argument _ -> true)

(* ---- Benchmark validation --------------------------------------------- *)

let test_validate_rejects_bad_specs () =
  let base = simple_benchmark () in
  let invalid b = try Benchmark.validate b; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty schedule" true (invalid { base with Benchmark.schedule = [] });
  Alcotest.(check bool) "bad hot code" true
    (invalid { base with Benchmark.hot_code_bytes = base.Benchmark.code_bytes * 2 });
  Alcotest.(check bool) "bad cold rate" true
    (invalid { base with Benchmark.cold_fetch_rate = 1.5 });
  let bad_phase p = { base with Benchmark.schedule = [ (p, 1000) ] } in
  Alcotest.(check bool) "mem_ratio > 1" true
    (invalid (bad_phase (phase ~mem:1.5 "p" [ region "r" 4096 1.0 ])));
  Alcotest.(check bool) "no regions" true (invalid (bad_phase (phase "p" [])));
  Alcotest.(check bool) "zero weights" true
    (invalid (bad_phase (phase "p" [ region "r" 4096 0.0 ])));
  Alcotest.(check bool) "mlp < 1" true
    (invalid (bad_phase (phase ~mlp:0.5 "p" [ region "r" 4096 1.0 ])));
  Alcotest.(check bool) "stride beyond region" true
    (invalid
       (bad_phase (phase "p" [ region ~pattern:(Benchmark.Strided 8192) "r" 4096 1.0 ])))

let test_footprint_and_ratio () =
  let b = two_phase_benchmark in
  Alcotest.(check int) "period" 1500 (Benchmark.schedule_period b);
  Alcotest.(check int) "footprint is max over phases" 4096 (Benchmark.data_footprint b);
  check_close 1e-9 "mean mem ratio" (0.5 *. 1000.0 /. 1500.0) (Benchmark.mean_mem_ratio b)

(* ---- Generator --------------------------------------------------------- *)

let test_generator_determinism () =
  let b = simple_benchmark () in
  let g1 = Generator.create ~seed:42 b in
  let g2 = Generator.create ~seed:42 b in
  for _ = 1 to 10_000 do
    let o1 = Generator.next g1 ~cap:1_000 in
    let o2 = Generator.next g2 ~cap:1_000 in
    if o1 <> o2 then Alcotest.fail "streams diverged"
  done

let test_generator_retired_accounting () =
  let b = simple_benchmark () in
  let g = Generator.create ~seed:1 b in
  let total = ref 0 in
  for _ = 1 to 5_000 do
    let op = Generator.next g ~cap:997 in
    Alcotest.(check bool) "cap respected" true (op.Op.instructions <= 997);
    Alcotest.(check bool) "positive" true (op.Op.instructions >= 1);
    total := !total + op.Op.instructions
  done;
  Alcotest.(check int) "retired matches" !total (Generator.retired g)

let test_generator_mem_ratio () =
  let b = simple_benchmark ~mem:0.25 () in
  let g = Generator.create ~seed:3 b in
  let insns = ref 0 and accesses = ref 0 in
  while !insns < 2_000_000 do
    let op = Generator.next g ~cap:1_000_000 in
    insns := !insns + op.Op.instructions;
    if op.Op.access <> None then incr accesses
  done;
  check_close 0.01 "fraction of memory instructions" 0.25
    (float_of_int !accesses /. float_of_int !insns)

let test_generator_store_fraction () =
  let b = simple_benchmark () in
  let g = Generator.create ~seed:5 b in
  let loads = ref 0 and stores = ref 0 in
  for _ = 1 to 200_000 do
    match (Generator.next g ~cap:1_000_000).Op.access with
    | Some { Op.kind = Op.Load; _ } -> incr loads
    | Some { Op.kind = Op.Store; _ } -> incr stores
    | None -> ()
  done;
  check_close 0.02 "store fraction" 0.3
    (float_of_int !stores /. float_of_int (!loads + !stores))

let test_generator_compute_only_phase () =
  let g = Generator.create ~seed:7 two_phase_benchmark in
  (* Walk into the compute phase and verify no accesses are produced
     there. *)
  for _ = 1 to 10_000 do
    let pos = Generator.retired g mod 1500 in
    let op = Generator.next g ~cap:10_000 in
    if pos >= 1000 then
      Alcotest.(check bool) "compute phase has no accesses" true (op.Op.access = None)
  done

let test_generator_phase_boundary () =
  let g = Generator.create ~seed:9 two_phase_benchmark in
  for _ = 1 to 10_000 do
    let pos = Generator.retired g mod 1500 in
    let op = Generator.next g ~cap:100_000 in
    let boundary = if pos < 1000 then 1000 else 1500 in
    Alcotest.(check bool) "op never crosses a phase boundary" true
      (pos + op.Op.instructions <= boundary)
  done

let test_generator_addresses_in_space () =
  let b = simple_benchmark () in
  let offset = 1 lsl 30 in
  let g = Generator.create ~offset ~seed:11 b in
  let space = Generator.address_space_bytes g in
  for _ = 1 to 50_000 do
    (match (Generator.next g ~cap:1_000_000).Op.access with
    | Some { Op.addr; _ } ->
        Alcotest.(check bool) "address within [offset, offset+space)" true
          (addr >= offset && addr < offset + space)
    | None -> ());
    let fetch = Generator.next_fetch g in
    Alcotest.(check bool) "fetch within code region" true
      (fetch >= offset && fetch < offset + b.Benchmark.code_bytes)
  done

let test_generator_sequential_pattern () =
  let b =
    {
      (simple_benchmark ~mem:1.0 ()) with
      Benchmark.schedule =
        [
          ( phase ~mem:1.0 "seq"
              [ region ~pattern:Benchmark.Sequential "s" 1024 1.0 ],
            1_000_000 );
        ];
    }
  in
  let g = Generator.create ~seed:13 b in
  let addr_of op =
    match op.Op.access with Some a -> a.Op.addr | None -> Alcotest.fail "no access"
  in
  let first = addr_of (Generator.next g ~cap:10) in
  let second = addr_of (Generator.next g ~cap:10) in
  Alcotest.(check int) "line-step" 64 (second - first);
  (* 1024-byte region = 16 lines: wraps after 16 accesses. *)
  for _ = 3 to 16 do
    ignore (Generator.next g ~cap:10)
  done;
  Alcotest.(check int) "wraps" first (addr_of (Generator.next g ~cap:10))

let test_generator_strided_pattern () =
  let b =
    {
      (simple_benchmark ~mem:1.0 ()) with
      Benchmark.schedule =
        [
          ( phase ~mem:1.0 "strided"
              [ region ~pattern:(Benchmark.Strided 16) "s" 256 1.0 ],
            1_000_000 );
        ];
    }
  in
  let g = Generator.create ~seed:13 b in
  let addr_of op =
    match op.Op.access with Some a -> a.Op.addr | None -> Alcotest.fail "no access"
  in
  let first = addr_of (Generator.next g ~cap:10) in
  let second = addr_of (Generator.next g ~cap:10) in
  Alcotest.(check int) "stride step" 16 (second - first)

let test_generator_hot_fetch_cycles () =
  let b = simple_benchmark () in
  (* hot = 4096 bytes = 64 lines; with cold rate 0 the fetch stream is a
     strict cycle. *)
  let g = Generator.create ~seed:17 b in
  let first = Generator.next_fetch g in
  for _ = 2 to 64 do
    ignore (Generator.next_fetch g)
  done;
  Alcotest.(check int) "fetch cycles through hot code" first (Generator.next_fetch g)

let test_generator_shared_region_cursor () =
  (* Two phases naming the same region share its cursor (data persists
     across phases). *)
  let shared = region ~pattern:Benchmark.Sequential "shared" 65536 1.0 in
  let b =
    {
      (simple_benchmark ~mem:1.0 ()) with
      Benchmark.schedule =
        [ (phase ~mem:1.0 "p1" [ shared ], 10); (phase ~mem:1.0 "p2" [ shared ], 10) ];
    }
  in
  let g = Generator.create ~seed:19 b in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 40 do
    match (Generator.next g ~cap:1).Op.access with
    | Some { Op.addr; _ } ->
        Alcotest.(check bool) "sequential never repeats before wrap" false
          (Hashtbl.mem seen addr);
        Hashtbl.add seen addr ()
    | None -> ()
  done

(* ---- Suite -------------------------------------------------------------- *)

let test_suite_shape () =
  Alcotest.(check int) "29 benchmarks like SPEC CPU2006" 29 Suite.count;
  let names = Array.to_list Suite.names in
  Alcotest.(check int) "names unique" 29 (List.length (List.sort_uniq compare names));
  List.iter (fun b -> Benchmark.validate b) (Array.to_list Suite.all)

let test_suite_lookup () =
  Array.iteri
    (fun i name ->
      Alcotest.(check int) "index" i (Suite.index name);
      Alcotest.(check string) "find" name (Suite.find name).Benchmark.name)
    Suite.names;
  Alcotest.(check bool) "unknown raises" true
    (try ignore (Suite.find "notabench"); false with Not_found -> true)

let test_suite_seeds () =
  Alcotest.(check int) "stable" (Suite.seed_for "gamess") (Suite.seed_for "gamess");
  Alcotest.(check bool) "distinct" true
    (Suite.seed_for "gamess" <> Suite.seed_for "hmmer")

let test_suite_diversity () =
  (* The suite must span compute-bound to memory-bound behaviour. *)
  let ratios = Array.map Benchmark.mean_mem_ratio Suite.all in
  let lo = Array.fold_left Float.min 1.0 ratios in
  let hi = Array.fold_left Float.max 0.0 ratios in
  Alcotest.(check bool) "memory-op ratios spread" true (lo < 0.3 && hi > 0.38);
  let footprints = Array.map Benchmark.data_footprint Suite.all in
  let small = Array.fold_left min max_int footprints in
  let large = Array.fold_left max 0 footprints in
  Alcotest.(check bool) "footprints span L1-resident to >LLC" true
    (small < 65536 && large > 4 * 1024 * 1024)

let test_suite_llc_band_members () =
  (* The Sec. 6 sharing-sensitive benchmarks must have a region in the
     (L2, LLC] band. *)
  List.iter
    (fun name ->
      let b = Suite.find name in
      let in_band =
        List.exists
          (fun (p, _) ->
            List.exists
              (fun r ->
                r.Benchmark.size_bytes > 256 * 1024
                && r.Benchmark.size_bytes <= 1024 * 1024)
              p.Benchmark.regions)
          b.Benchmark.schedule
      in
      Alcotest.(check bool) (name ^ " has an LLC-band region") true in_band)
    [ "gamess"; "gobmk"; "omnetpp"; "xalancbmk"; "dealII"; "soplex" ]

(* ---- qcheck -------------------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"generator blocks respect any cap" ~count:100
      (pair small_int (int_range 1 5_000))
      (fun (seed, cap) ->
        let g = Generator.create ~seed (simple_benchmark ()) in
        let ok = ref true in
        for _ = 1 to 200 do
          let op = Generator.next g ~cap in
          if op.Op.instructions < 1 || op.Op.instructions > cap then ok := false
        done;
        !ok);
    Test.make ~name:"retired equals sum of block sizes" ~count:50 small_int
      (fun seed ->
        let g = Generator.create ~seed two_phase_benchmark in
        let total = ref 0 in
        for _ = 1 to 500 do
          total := !total + (Generator.next g ~cap:333).Op.instructions
        done;
        !total = Generator.retired g);
    Test.make ~name:"next matches the field-emitting path" ~count:100
      (pair small_int (list_of_size (Gen.return 300) (int_range 1 5_000)))
      (fun (seed, caps) ->
        let bench = Suite.all.(seed mod Array.length Suite.all) in
        let wrapped = Generator.create ~seed bench in
        let emitting = Generator.create ~seed bench in
        List.for_all
          (fun cap ->
            let op = Generator.next wrapped ~cap in
            let n = Generator.emit emitting ~cap in
            let same_access =
              match op.Op.access with
              | None -> Generator.emitted_kind emitting = 0
              | Some { Op.addr; kind } ->
                  Generator.emitted_kind emitting
                  = (match kind with Op.Load -> 1 | Op.Store -> 2)
                  && Generator.emitted_addr emitting = addr
            in
            op.Op.instructions = n
            && same_access
            && Generator.retired wrapped = Generator.retired emitting
            && Generator.next_fetch wrapped = Generator.next_fetch emitting)
          caps);
  ]

let tests =
  [
    ("trace.op", [ Alcotest.test_case "constructors" `Quick test_op_constructors ]);
    ( "trace.benchmark",
      [
        Alcotest.test_case "validation" `Quick test_validate_rejects_bad_specs;
        Alcotest.test_case "footprint and ratio" `Quick test_footprint_and_ratio;
      ] );
    ( "trace.generator",
      [
        Alcotest.test_case "determinism" `Quick test_generator_determinism;
        Alcotest.test_case "retired accounting" `Quick test_generator_retired_accounting;
        Alcotest.test_case "memory ratio" `Slow test_generator_mem_ratio;
        Alcotest.test_case "store fraction" `Slow test_generator_store_fraction;
        Alcotest.test_case "compute-only phase" `Quick test_generator_compute_only_phase;
        Alcotest.test_case "phase boundaries" `Quick test_generator_phase_boundary;
        Alcotest.test_case "addresses in space" `Quick test_generator_addresses_in_space;
        Alcotest.test_case "sequential pattern" `Quick test_generator_sequential_pattern;
        Alcotest.test_case "strided pattern" `Quick test_generator_strided_pattern;
        Alcotest.test_case "hot fetch cycles" `Quick test_generator_hot_fetch_cycles;
        Alcotest.test_case "shared region cursor" `Quick test_generator_shared_region_cursor;
      ] );
    ( "trace.suite",
      [
        Alcotest.test_case "shape" `Quick test_suite_shape;
        Alcotest.test_case "lookup" `Quick test_suite_lookup;
        Alcotest.test_case "seeds" `Quick test_suite_seeds;
        Alcotest.test_case "diversity" `Quick test_suite_diversity;
        Alcotest.test_case "LLC-band members" `Quick test_suite_llc_band_members;
      ] );
    ("trace.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
