(* Tests for mppm_cache: geometry, the cache model (validated against a
   naive reference LRU), stack-distance counters, the SDC profiler and the
   hierarchy. *)

module Geometry = Mppm_cache.Geometry
module Cache = Mppm_cache.Cache
module Sdc = Mppm_cache.Sdc
module Sdc_profiler = Mppm_cache.Sdc_profiler
module Hierarchy = Mppm_cache.Hierarchy
module Configs = Mppm_cache.Configs
module Rng = Mppm_util.Rng

let check_float = Alcotest.(check (float 1e-9))

let small_geometry =
  (* 4 sets x 4 ways x 64B lines = 1KB: tiny enough to reason by hand. *)
  Geometry.make ~size_bytes:1024 ~line_bytes:64 ~associativity:4

(* ---- Geometry ------------------------------------------------------- *)

let test_geometry_derived () =
  let g = Geometry.make ~size_bytes:(Geometry.kib 512) ~line_bytes:64 ~associativity:8 in
  Alcotest.(check int) "sets" 1024 g.Geometry.num_sets;
  Alcotest.(check int) "lines" 8192 (Geometry.lines g);
  Alcotest.(check int) "set shift" 6 g.Geometry.set_shift

let test_geometry_indexing () =
  let g = small_geometry in
  Alcotest.(check int) "set of 0" 0 (Geometry.set_index g 0);
  Alcotest.(check int) "set of 64" 1 (Geometry.set_index g 64);
  Alcotest.(check int) "sets wrap" 0 (Geometry.set_index g (4 * 64));
  Alcotest.(check int) "offset ignored" (Geometry.set_index g 64)
    (Geometry.set_index g (64 + 63));
  Alcotest.(check bool) "tags differ across conflicting lines" true
    (Geometry.tag g 0 <> Geometry.tag g (4 * 64))

let test_geometry_invalid () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "non-pow2 size" true
    (raises (fun () -> ignore (Geometry.make ~size_bytes:1000 ~line_bytes:64 ~associativity:4)));
  Alcotest.(check bool) "non-pow2 line" true
    (raises (fun () -> ignore (Geometry.make ~size_bytes:1024 ~line_bytes:60 ~associativity:4)));
  Alcotest.(check bool) "zero assoc" true
    (raises (fun () -> ignore (Geometry.make ~size_bytes:1024 ~line_bytes:64 ~associativity:0)))

let test_geometry_describe () =
  Alcotest.(check string) "KB" "512KB" (Geometry.describe_size (Geometry.kib 512));
  Alcotest.(check string) "MB" "2MB" (Geometry.describe_size (Geometry.mib 2));
  Alcotest.(check string) "B" "100B" (Geometry.describe_size 100)

(* ---- Cache: reference-model validation ------------------------------- *)

(* A deliberately naive LRU cache: per set, a list of tags in recency
   order.  The production cache must agree access for access, outcome
   codes included (0 = miss, d >= 1 = hit at depth d). *)
module Reference = struct
  type t = { geometry : Geometry.t; sets : int list array }

  let create geometry = { geometry; sets = Array.make geometry.Geometry.num_sets [] }

  let access t addr =
    let si = Geometry.set_index t.geometry addr in
    let tag = Geometry.tag t.geometry addr in
    let set = t.sets.(si) in
    let rec position i = function
      | [] -> None
      | x :: rest -> if x = tag then Some i else position (i + 1) rest
    in
    match position 0 set with
    | Some pos ->
        t.sets.(si) <- tag :: List.filter (fun x -> x <> tag) set;
        pos + 1
    | None ->
        let truncated =
          if List.length set >= t.geometry.Geometry.associativity then
            List.filteri (fun i _ -> i < t.geometry.Geometry.associativity - 1) set
          else set
        in
        t.sets.(si) <- tag :: truncated;
        0
end

let show_code code = if code = 0 then "miss" else Printf.sprintf "hit@%d" code

let random_addresses ~seed ~count ~span =
  let rng = Rng.create ~seed in
  Array.init count (fun _ -> Rng.int rng span * 16)

let test_cache_matches_reference () =
  let g = small_geometry in
  let cache = Cache.create g in
  let reference = Reference.create g in
  let addrs = random_addresses ~seed:5 ~count:20_000 ~span:256 in
  Array.iter
    (fun addr ->
      let got = Cache.access cache addr in
      let want = Reference.access reference addr in
      if got <> want then
        Alcotest.failf "divergence at addr %d: got %s want %s" addr
          (show_code got) (show_code want))
    addrs

let test_cache_lru_eviction_order () =
  let g = small_geometry in
  let cache = Cache.create g in
  (* Five conflicting lines in a 4-way set: 0, 256, 512, ... map to set 0. *)
  let line i = i * 4 * 64 in
  for i = 0 to 3 do
    Alcotest.(check bool) "cold miss" true (Cache.access cache (line i) = 0)
  done;
  (* Touch line 0 to refresh it, then insert a fifth line: the LRU victim
     must be line 1. *)
  Alcotest.(check bool) "refresh hit" true (Cache.access cache (line 0) > 0);
  Alcotest.(check bool) "fifth line misses" true (Cache.access cache (line 4) = 0);
  Alcotest.(check bool) "line 1 was evicted" true (Cache.access cache (line 1) = 0);
  Alcotest.(check bool) "line 0 survived" true (Cache.access cache (line 0) > 0)

let test_cache_hit_depth () =
  let cache = Cache.create small_geometry in
  ignore (Cache.access cache 0);
  ignore (Cache.access cache (4 * 64));
  Alcotest.(check int) "second MRU" 2 (Cache.access cache 0);
  Alcotest.(check int) "now MRU" 1 (Cache.access cache 0)

let test_cache_stats () =
  let cache = Cache.create small_geometry in
  ignore (Cache.access cache 0);
  ignore (Cache.access cache 0);
  ignore (Cache.access cache 64);
  Alcotest.(check int) "accesses" 3 (Cache.accesses cache);
  Alcotest.(check int) "hits" 1 (Cache.hits cache);
  Alcotest.(check int) "misses" 2 (Cache.misses cache)

let test_cache_probe () =
  let cache = Cache.create small_geometry in
  Alcotest.(check bool) "absent" false (Cache.probe cache 0);
  ignore (Cache.access cache 0);
  Alcotest.(check bool) "present" true (Cache.probe cache 0);
  Alcotest.(check int) "probe does not count" 1 (Cache.accesses cache)

(* The ints [Cache.save] hands out, in order. *)
let saved cache =
  let ints = ref [] in
  Cache.save cache (fun n -> ints := n :: !ints);
  Array.of_list (List.rev !ints)

(* Put [cache] into the state [ints] describe; fails unless [restore]
   reads every int. *)
let restore_from cache ints =
  let next = ref 0 in
  Cache.restore cache (fun () ->
      let n = ints.(!next) in
      incr next;
      n);
  Alcotest.(check int) "restore reads every saved int" (Array.length ints) !next

(* Restoring a fresh cache's state clears a used one. *)
let test_cache_clear_and_occupancy () =
  let cache = Cache.create small_geometry in
  for i = 0 to 9 do
    ignore (Cache.access cache (i * 64))
  done;
  Alcotest.(check int) "resident lines" 10 (Cache.resident_lines cache);
  restore_from cache (saved (Cache.create small_geometry));
  Alcotest.(check int) "cleared" 0 (Cache.resident_lines cache);
  Alcotest.(check int) "statistics cleared" 0 (Cache.accesses cache);
  Alcotest.(check bool) "all cold again" true (Cache.access cache 0 = 0)

(* The layout recorded stream segments carry for the private caches
   (Hierarchy.save_private): 3 statistics, one fill per set, the tags of
   every way and, when partitioned, the owner of every way. *)
let test_cache_save_layout () =
  let sets = small_geometry.Geometry.num_sets in
  let ways = small_geometry.Geometry.associativity in
  Alcotest.(check int) "unpartitioned" (3 + sets + (sets * ways))
    (Array.length (saved (Cache.create small_geometry)));
  Alcotest.(check int) "partitioned" (3 + sets + (2 * sets * ways))
    (Array.length (saved (Cache.create ~partition:[| 2; 2 |] small_geometry)))

(* A restored copy answers a seeded access sequence exactly as the cache
   it was saved from, owners and statistics included. *)
let test_cache_restore_replays () =
  List.iter
    (fun (label, partition) ->
      let original = Cache.create ?partition small_geometry in
      let warm = random_addresses ~seed:3 ~count:500 ~span:128 in
      Array.iteri
        (fun i addr -> ignore (Cache.access_as original ~owner:(i mod 2) addr))
        warm;
      let copy = Cache.create ?partition small_geometry in
      restore_from copy (saved original);
      Array.iteri
        (fun i addr ->
          let owner = i mod 2 in
          let want = Cache.access_as original ~owner addr in
          let got = Cache.access_as copy ~owner addr in
          if got <> want then
            Alcotest.failf "%s: access %d (addr %d): got %s want %s" label i
              addr (show_code got) (show_code want))
        (random_addresses ~seed:4 ~count:2_000 ~span:128);
      Alcotest.(check (array int)) (label ^ ": same state") (saved original)
        (saved copy);
      Alcotest.(check int) (label ^ ": owner 1 lines")
        (Cache.owner_lines original ~owner:1) (Cache.owner_lines copy ~owner:1))
    [ ("unpartitioned", None); ("partitioned", Some [| 3; 1 |]) ]

let test_cache_working_set_behaviour () =
  (* A working set that fits has ~100% steady-state hits; double the size
     thrashes. *)
  let g = small_geometry in
  let lines = Geometry.lines g in
  let fits = Cache.create g in
  for _ = 1 to 10 do
    for i = 0 to lines - 1 do
      ignore (Cache.access fits (i * 64))
    done
  done;
  Alcotest.(check int) "fitting set: only cold misses" lines (Cache.misses fits);
  let thrash = Cache.create g in
  for _ = 1 to 10 do
    for i = 0 to (2 * lines) - 1 do
      ignore (Cache.access thrash (i * 64))
    done
  done;
  (* Cyclic sequential at 2x capacity under LRU misses every access. *)
  Alcotest.(check int) "thrashing set: all miss" (2 * lines * 10) (Cache.misses thrash)

(* ---- Sdc ------------------------------------------------------------- *)

let test_sdc_record_and_counters () =
  let sdc = Sdc.create ~assoc:4 in
  Sdc.record sdc ~depth:1;
  Sdc.record sdc ~depth:1;
  Sdc.record sdc ~depth:4;
  Sdc.record sdc ~depth:9;
  (* beyond assoc: a miss *)
  Sdc.record sdc ~depth:max_int;
  check_float "C1" 2.0 (Sdc.counter sdc 1);
  check_float "C4" 1.0 (Sdc.counter sdc 4);
  check_float "C>A" 2.0 (Sdc.counter sdc 5);
  check_float "accesses" 5.0 (Sdc.accesses sdc);
  check_float "hits" 3.0 (Sdc.hits sdc);
  check_float "misses" 2.0 (Sdc.misses sdc);
  check_float "miss rate" 0.4 (Sdc.miss_rate sdc)

let test_sdc_add_scale () =
  let a = Sdc.of_list ~assoc:2 [ 1.0; 2.0; 3.0 ] in
  let b = Sdc.of_list ~assoc:2 [ 10.0; 20.0; 30.0 ] in
  Alcotest.(check (list (float 1e-9))) "add" [ 11.0; 22.0; 33.0 ]
    (Sdc.to_list (Sdc.add a b));
  Alcotest.(check (list (float 1e-9))) "scale" [ 0.5; 1.0; 1.5 ]
    (Sdc.to_list (Sdc.scale a 0.5));
  let dst = Sdc.copy a in
  Sdc.add_into ~dst b;
  Alcotest.(check (list (float 1e-9))) "add_into" [ 11.0; 22.0; 33.0 ] (Sdc.to_list dst)

let test_sdc_reduce_associativity () =
  let sdc = Sdc.of_list ~assoc:4 [ 5.0; 4.0; 3.0; 2.0; 1.0 ] in
  let reduced = Sdc.reduce_associativity sdc ~assoc:2 in
  Alcotest.(check (list (float 1e-9))) "folded" [ 5.0; 4.0; 6.0 ] (Sdc.to_list reduced);
  check_float "accesses preserved" (Sdc.accesses sdc) (Sdc.accesses reduced)

let test_sdc_misses_with_ways () =
  let sdc = Sdc.of_list ~assoc:4 [ 5.0; 4.0; 3.0; 2.0; 1.0 ] in
  check_float "full ways" 1.0 (Sdc.misses_with_ways sdc ~ways:4.0);
  check_float "0 ways: everything misses" 15.0 (Sdc.misses_with_ways sdc ~ways:0.0);
  check_float "2 ways" 6.0 (Sdc.misses_with_ways sdc ~ways:2.0);
  (* Linear interpolation between 2 (6 misses) and 3 (3 misses). *)
  check_float "2.5 ways" 4.5 (Sdc.misses_with_ways sdc ~ways:2.5);
  check_float "beyond assoc clamps" 1.0 (Sdc.misses_with_ways sdc ~ways:10.0)

let test_sdc_reduction_matches_resimulation () =
  (* The paper's Sec. 2 claim: a 16-way profile reduced to 8 ways equals a
     direct 8-way profile with the same set count. *)
  let sets = 16 in
  let g16 = Geometry.make ~size_bytes:(sets * 16 * 64) ~line_bytes:64 ~associativity:16 in
  let g8 = Geometry.make ~size_bytes:(sets * 8 * 64) ~line_bytes:64 ~associativity:8 in
  Alcotest.(check int) "same set count" g16.Geometry.num_sets g8.Geometry.num_sets;
  let p16 = Sdc_profiler.create g16 in
  let p8 = Sdc_profiler.create g8 in
  let addrs = random_addresses ~seed:17 ~count:50_000 ~span:4096 in
  Array.iter
    (fun addr ->
      ignore (Sdc_profiler.access p16 addr);
      ignore (Sdc_profiler.access p8 addr))
    addrs;
  let reduced = Sdc.reduce_associativity (Sdc_profiler.lifetime_total p16) ~assoc:8 in
  Alcotest.(check (list (float 1e-9)))
    "derived = resimulated"
    (Sdc.to_list (Sdc_profiler.lifetime_total p8))
    (Sdc.to_list reduced)

let test_sdc_errors () =
  let sdc = Sdc.create ~assoc:4 in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad depth" true (raises (fun () -> Sdc.record sdc ~depth:0));
  Alcotest.(check bool) "assoc mismatch" true
    (raises (fun () -> ignore (Sdc.add sdc (Sdc.create ~assoc:2))));
  Alcotest.(check bool) "bad of_list" true
    (raises (fun () -> ignore (Sdc.of_list ~assoc:2 [ 1.0 ])))

(* ---- Sdc_profiler ---------------------------------------------------- *)

let test_profiler_intervals_sum_to_total () =
  let profiler = Sdc_profiler.create small_geometry in
  let addrs = random_addresses ~seed:23 ~count:5_000 ~span:512 in
  let cuts = ref [] in
  Array.iteri
    (fun i addr ->
      ignore (Sdc_profiler.access profiler addr);
      if (i + 1) mod 1000 = 0 then cuts := Sdc_profiler.cut_interval profiler :: !cuts)
    addrs;
  let total =
    List.fold_left Sdc.add (Sdc_profiler.current profiler) !cuts
  in
  Alcotest.(check (list (float 1e-9)))
    "interval sum equals lifetime"
    (Sdc.to_list (Sdc_profiler.lifetime_total profiler))
    (Sdc.to_list total);
  check_float "every access recorded" 5000.0 (Sdc.accesses total)

let test_profiler_depths_match_cache () =
  (* The profiler's histogram must agree with the cache's reported depths. *)
  let cache = Cache.create small_geometry in
  let profiler = Sdc_profiler.create small_geometry in
  let addrs = random_addresses ~seed:29 ~count:10_000 ~span:400 in
  let misses = ref 0 and hits_by_depth = Array.make 4 0 in
  Array.iter
    (fun addr ->
      (match Cache.access cache addr with
      | 0 -> incr misses
      | d -> hits_by_depth.(d - 1) <- hits_by_depth.(d - 1) + 1);
      ignore (Sdc_profiler.access profiler addr))
    addrs;
  let sdc = Sdc_profiler.lifetime_total profiler in
  check_float "misses agree" (float_of_int !misses) (Sdc.misses sdc);
  Array.iteri
    (fun i c ->
      check_float (Printf.sprintf "depth %d" (i + 1)) (float_of_int c)
        (Sdc.counter sdc (i + 1)))
    hits_by_depth

(* Mattson inclusion, checked against the cache simulator itself: one pass
   of the SDC profiler over an A-way stream predicts, for every k <= A, the
   misses of a k-way LRU cache with the same set count.  The profiler's
   depth codes must reproduce that cache's miss count exactly. *)
let test_profiler_mattson_inclusion () =
  let sets = 16 and assoc = 8 in
  let geometry ways =
    Geometry.make ~size_bytes:(sets * ways * 64) ~line_bytes:64 ~associativity:ways
  in
  List.iter
    (fun seed ->
      let addrs = random_addresses ~seed ~count:20_000 ~span:(8 * sets * assoc) in
      let profiler = Sdc_profiler.create (geometry assoc) in
      Array.iter (fun addr -> ignore (Sdc_profiler.access profiler addr)) addrs;
      let sdc = Sdc_profiler.lifetime_total profiler in
      for k = 1 to assoc do
        let cache = Cache.create (geometry k) in
        Array.iter (fun addr -> ignore (Cache.access cache addr)) addrs;
        check_float
          (Printf.sprintf "seed %d: %d-way misses" seed k)
          (float_of_int (Cache.misses cache))
          (Sdc.misses_with_ways sdc ~ways:(float_of_int k))
      done)
    [ 1; 7; 42 ]

(* ---- Hierarchy -------------------------------------------------------- *)

let tiny_hierarchy ?(llc_assoc = 8) () =
  let level size assoc latency =
    { Hierarchy.geometry = Geometry.make ~size_bytes:size ~line_bytes:64 ~associativity:assoc;
      latency }
  in
  {
    Hierarchy.l1i = level 1024 2 1;
    l1d = level 1024 2 1;
    l2 = level 4096 4 10;
    llc = level 16384 llc_assoc 16;
    memory_latency = 200;
  }

(* Level codes returned by Hierarchy.access. *)
let l1 = 0 and l2 = 1 and llc = 2 and memory = 3

let test_hierarchy_latencies () =
  let config = tiny_hierarchy () in
  let h = Hierarchy.create config in
  let latency level = Hierarchy.level_latency config ~kind:Hierarchy.Load level in
  (* Cold access goes to memory. *)
  let r1 = Hierarchy.access h ~kind:Hierarchy.Load ~addr:0 in
  Alcotest.(check int) "hit level" memory r1;
  Alcotest.(check int) "memory latency" 216 (latency r1);
  Alcotest.(check int) "llc miss code" 0 (Hierarchy.llc_depth h);
  (* Immediately again: L1 hit. *)
  let r2 = Hierarchy.access h ~kind:Hierarchy.Load ~addr:0 in
  Alcotest.(check int) "l1 hit" l1 r2;
  Alcotest.(check int) "l1 latency" 1 (latency r2);
  Alcotest.(check int) "no llc outcome on l1 hit" (-1) (Hierarchy.llc_depth h);
  Alcotest.(check int) "fetch side L1 latency" 1
    (Hierarchy.level_latency config ~kind:Hierarchy.Fetch l1)

let test_hierarchy_l2_path () =
  let h = Hierarchy.create (tiny_hierarchy ()) in
  (* Fill L1 set so the first line falls to L2 but stays there. *)
  ignore (Hierarchy.access h ~kind:Hierarchy.Load ~addr:0);
  ignore (Hierarchy.access h ~kind:Hierarchy.Load ~addr:1024);
  ignore (Hierarchy.access h ~kind:Hierarchy.Load ~addr:2048);
  let r = Hierarchy.access h ~kind:Hierarchy.Load ~addr:0 in
  Alcotest.(check int) "L2 hit" l2 r;
  Alcotest.(check int) "L2 latency" 10
    (Hierarchy.level_latency (tiny_hierarchy ()) ~kind:Hierarchy.Load r)

let test_hierarchy_perfect_llc () =
  let h = Hierarchy.create ~perfect_llc:true (tiny_hierarchy ()) in
  let r = Hierarchy.access h ~kind:Hierarchy.Load ~addr:0 in
  Alcotest.(check int) "perfect LLC hits" llc r;
  Alcotest.(check int) "at depth 1" 1 (Hierarchy.llc_depth h);
  Alcotest.(check int) "llc latency" 16
    (Hierarchy.level_latency (tiny_hierarchy ()) ~kind:Hierarchy.Load r);
  Alcotest.(check int) "no misses" 0 (Hierarchy.llc_misses h);
  Alcotest.(check int) "counted access" 1 (Hierarchy.llc_accesses h)

let test_hierarchy_fetch_uses_l1i () =
  let h = Hierarchy.create (tiny_hierarchy ()) in
  ignore (Hierarchy.access h ~kind:Hierarchy.Fetch ~addr:0);
  (* The same line via the data side must still miss L1D (separate caches),
     but hit in L2 where the fetch installed it. *)
  let r = Hierarchy.access h ~kind:Hierarchy.Load ~addr:0 in
  Alcotest.(check int) "L2 hit via shared L2" l2 r

let test_hierarchy_shared_llc () =
  let config = tiny_hierarchy () in
  let shared = Cache.create config.Hierarchy.llc.Hierarchy.geometry in
  let a = Hierarchy.create ~llc:shared config in
  let b = Hierarchy.create ~llc:shared config in
  ignore (Hierarchy.access a ~kind:Hierarchy.Load ~addr:0);
  (* Core B misses its private levels but finds the line in the shared
     LLC. *)
  let r = Hierarchy.access b ~kind:Hierarchy.Load ~addr:0 in
  Alcotest.(check int) "hits shared LLC" llc r;
  Alcotest.(check int) "a's stats" 1 (Hierarchy.llc_misses a);
  Alcotest.(check int) "b's stats" 0 (Hierarchy.llc_misses b)

let test_hierarchy_geometry_mismatch () =
  let config = tiny_hierarchy () in
  let wrong = Cache.create small_geometry in
  Alcotest.(check bool) "mismatch raises" true
    (try
       ignore (Hierarchy.create ~llc:wrong config);
       false
     with Invalid_argument _ -> true)

(* ---- Configs ----------------------------------------------------------- *)

let test_configs_table2 () =
  let expected =
    [ (1, 512, 8, 16); (2, 512, 16, 20); (3, 1024, 8, 18);
      (4, 1024, 16, 22); (5, 2048, 8, 20); (6, 2048, 16, 24) ]
  in
  List.iter
    (fun (n, kb, assoc, latency) ->
      let level = Configs.llc_config n in
      Alcotest.(check int) "size" (kb * 1024)
        level.Hierarchy.geometry.Geometry.size_bytes;
      Alcotest.(check int) "assoc" assoc
        level.Hierarchy.geometry.Geometry.associativity;
      Alcotest.(check int) "latency" latency level.Hierarchy.latency)
    expected;
  Alcotest.(check bool) "config 7 raises" true
    (try ignore (Configs.llc_config 7); false with Invalid_argument _ -> true)

let test_configs_table1 () =
  let b = Configs.baseline () in
  Alcotest.(check int) "L1I" (Geometry.kib 32) b.Hierarchy.l1i.Hierarchy.geometry.Geometry.size_bytes;
  Alcotest.(check int) "L1I ways" 4 b.Hierarchy.l1i.Hierarchy.geometry.Geometry.associativity;
  Alcotest.(check int) "L1D ways" 8 b.Hierarchy.l1d.Hierarchy.geometry.Geometry.associativity;
  Alcotest.(check int) "L2 size" (Geometry.kib 256) b.Hierarchy.l2.Hierarchy.geometry.Geometry.size_bytes;
  Alcotest.(check int) "memory" 200 b.Hierarchy.memory_latency;
  Alcotest.(check int) "default LLC is config #1" (Geometry.kib 512)
    b.Hierarchy.llc.Hierarchy.geometry.Geometry.size_bytes

(* ---- qcheck properties -------------------------------------------------- *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"hit depth never exceeds associativity" ~count:50
      small_int
      (fun seed ->
        let cache = Cache.create small_geometry in
        let rng = Rng.create ~seed in
        let ok = ref true in
        for _ = 1 to 2000 do
          let code = Cache.access cache (Rng.int rng 1024 * 64) in
          if code < 0 || code > 4 then ok := false
        done;
        !ok);
    Test.make ~name:"misses_with_ways is monotone decreasing" ~count:200
      (pair small_int (pair (float_range 0.0 8.0) (float_range 0.0 2.0)))
      (fun (seed, (ways, delta)) ->
        let rng = Rng.create ~seed in
        let sdc = Sdc.create ~assoc:8 in
        for _ = 1 to 100 do
          Sdc.record sdc ~depth:(1 + Rng.int rng 12)
        done;
        Sdc.misses_with_ways sdc ~ways:(ways +. delta)
        <= Sdc.misses_with_ways sdc ~ways +. 1e-9);
    Test.make ~name:"LRU inclusion: fewer ways never means fewer misses"
      ~count:50 small_int
      (fun seed ->
        let g8 = Geometry.make ~size_bytes:(16 * 8 * 64) ~line_bytes:64 ~associativity:8 in
        let g4 = Geometry.make ~size_bytes:(16 * 4 * 64) ~line_bytes:64 ~associativity:4 in
        let c8 = Cache.create g8 and c4 = Cache.create g4 in
        let rng = Rng.create ~seed in
        for _ = 1 to 5000 do
          let addr = Rng.int rng 512 * 64 in
          ignore (Cache.access c8 addr);
          ignore (Cache.access c4 addr)
        done;
        Cache.misses c4 >= Cache.misses c8);
  ]

let tests =
  [
    ( "cache.geometry",
      [
        Alcotest.test_case "derived fields" `Quick test_geometry_derived;
        Alcotest.test_case "indexing" `Quick test_geometry_indexing;
        Alcotest.test_case "invalid geometry" `Quick test_geometry_invalid;
        Alcotest.test_case "describe_size" `Quick test_geometry_describe;
      ] );
    ( "cache.cache",
      [
        Alcotest.test_case "matches reference LRU" `Quick test_cache_matches_reference;
        Alcotest.test_case "LRU eviction order" `Quick test_cache_lru_eviction_order;
        Alcotest.test_case "hit depth" `Quick test_cache_hit_depth;
        Alcotest.test_case "statistics" `Quick test_cache_stats;
        Alcotest.test_case "probe" `Quick test_cache_probe;
        Alcotest.test_case "clear and occupancy" `Quick test_cache_clear_and_occupancy;
        Alcotest.test_case "save layout" `Quick test_cache_save_layout;
        Alcotest.test_case "restore replays" `Quick test_cache_restore_replays;
        Alcotest.test_case "working-set behaviour" `Quick test_cache_working_set_behaviour;
      ] );
    ( "cache.sdc",
      [
        Alcotest.test_case "record and counters" `Quick test_sdc_record_and_counters;
        Alcotest.test_case "add and scale" `Quick test_sdc_add_scale;
        Alcotest.test_case "reduce associativity" `Quick test_sdc_reduce_associativity;
        Alcotest.test_case "misses with fractional ways" `Quick test_sdc_misses_with_ways;
        Alcotest.test_case "reduction matches resimulation" `Quick
          test_sdc_reduction_matches_resimulation;
        Alcotest.test_case "error cases" `Quick test_sdc_errors;
      ] );
    ( "cache.profiler",
      [
        Alcotest.test_case "intervals sum to lifetime" `Quick
          test_profiler_intervals_sum_to_total;
        Alcotest.test_case "depths match cache" `Quick test_profiler_depths_match_cache;
        Alcotest.test_case "Mattson inclusion vs k-way caches" `Quick
          test_profiler_mattson_inclusion;
      ] );
    ( "cache.hierarchy",
      [
        Alcotest.test_case "latency model" `Quick test_hierarchy_latencies;
        Alcotest.test_case "L2 path" `Quick test_hierarchy_l2_path;
        Alcotest.test_case "perfect LLC" `Quick test_hierarchy_perfect_llc;
        Alcotest.test_case "fetch side" `Quick test_hierarchy_fetch_uses_l1i;
        Alcotest.test_case "shared LLC" `Quick test_hierarchy_shared_llc;
        Alcotest.test_case "geometry mismatch" `Quick test_hierarchy_geometry_mismatch;
      ] );
    ( "cache.configs",
      [
        Alcotest.test_case "Table 2 values" `Quick test_configs_table2;
        Alcotest.test_case "Table 1 baseline" `Quick test_configs_table1;
      ] );
    ("cache.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
