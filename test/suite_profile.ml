(* Tests for mppm_profile: window aggregation (the heart of MPPM's
   per-iteration arithmetic), associativity derivation and serialization. *)

module Profile = Mppm_profile.Profile
module Sdc = Mppm_cache.Sdc

let check_close eps = Alcotest.(check (float eps))

(* A hand-built profile with easily checkable per-interval values:
   interval i has cycles 100*(i+1), stall 10*(i+1), i misses. *)
let assoc = 4

let make_interval i =
  let sdc = Sdc.create ~assoc in
  for _ = 1 to 20 do
    Sdc.record sdc ~depth:1
  done;
  for _ = 1 to i do
    Sdc.record sdc ~depth:(assoc + 1)
  done;
  {
    Profile.instructions = 1_000;
    cycles = 100.0 *. float_of_int (i + 1);
    memory_stall_cycles = 10.0 *. float_of_int (i + 1);
    llc_accesses = float_of_int (20 + i);
    llc_misses = float_of_int i;
    sdc;
  }

let sample_profile () =
  Profile.make ~benchmark:"synthetic" ~interval_instructions:1_000 ~llc_assoc:assoc
    (Array.init 5 make_interval)

let test_totals () =
  let p = sample_profile () in
  Alcotest.(check int) "instructions" 5_000 (Profile.total_instructions p);
  check_close 1e-9 "cycles" 1500.0 (Profile.total_cycles p);
  check_close 1e-9 "cpi" 0.3 (Profile.cpi p);
  check_close 1e-9 "memory cpi" 0.03 (Profile.memory_cpi p);
  check_close 1e-9 "memory fraction" 0.1 (Profile.memory_cpi_fraction p);
  check_close 1e-9 "mpki" (10.0 *. 1000.0 /. 5000.0) (Profile.llc_mpki p)

let test_make_validations () =
  let iv = make_interval 0 in
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true
    (invalid (fun () -> Profile.make ~benchmark:"x" ~interval_instructions:10 ~llc_assoc:assoc [||]));
  Alcotest.(check bool) "assoc mismatch" true
    (invalid (fun () ->
         Profile.make ~benchmark:"x" ~interval_instructions:10 ~llc_assoc:8 [| iv |]))

let test_window_full_trace () =
  let p = sample_profile () in
  let w = Profile.window p ~start:0.0 ~count:5000.0 in
  check_close 1e-6 "instructions" 5000.0 w.Profile.w_instructions;
  check_close 1e-6 "cycles" 1500.0 w.Profile.w_cycles;
  check_close 1e-6 "stall" 150.0 w.Profile.w_memory_stall_cycles;
  check_close 1e-6 "misses" 10.0 w.Profile.w_llc_misses;
  check_close 1e-6 "sdc misses agree" 10.0 (Sdc.misses w.Profile.w_sdc)

let test_window_single_interval () =
  let p = sample_profile () in
  let w = Profile.window p ~start:2000.0 ~count:1000.0 in
  check_close 1e-6 "third interval cycles" 300.0 w.Profile.w_cycles;
  check_close 1e-6 "third interval misses" 2.0 w.Profile.w_llc_misses

let test_window_fractional () =
  let p = sample_profile () in
  (* Half of interval 0 plus half of interval 1. *)
  let w = Profile.window p ~start:500.0 ~count:1000.0 in
  check_close 1e-6 "cycles" ((0.5 *. 100.0) +. (0.5 *. 200.0)) w.Profile.w_cycles;
  check_close 1e-6 "misses" 0.5 w.Profile.w_llc_misses;
  check_close 1e-6 "instructions" 1000.0 w.Profile.w_instructions

let test_window_additivity () =
  let p = sample_profile () in
  let whole = Profile.window p ~start:700.0 ~count:3100.0 in
  let first = Profile.window p ~start:700.0 ~count:1300.0 in
  let second = Profile.window p ~start:2000.0 ~count:1800.0 in
  check_close 1e-6 "cycles add"
    (first.Profile.w_cycles +. second.Profile.w_cycles)
    whole.Profile.w_cycles;
  check_close 1e-6 "misses add"
    (first.Profile.w_llc_misses +. second.Profile.w_llc_misses)
    whole.Profile.w_llc_misses

let test_window_wraps () =
  let p = sample_profile () in
  (* Start in the last interval and wrap into the first. *)
  let w = Profile.window p ~start:4500.0 ~count:1000.0 in
  check_close 1e-6 "wrap cycles" ((0.5 *. 500.0) +. (0.5 *. 100.0)) w.Profile.w_cycles;
  (* Start beyond one full trace behaves modulo. *)
  let w2 = Profile.window p ~start:(4500.0 +. 5000.0) ~count:1000.0 in
  check_close 1e-6 "modulo start" w.Profile.w_cycles w2.Profile.w_cycles

let test_window_multiple_laps () =
  let p = sample_profile () in
  let w = Profile.window p ~start:0.0 ~count:10_000.0 in
  check_close 1e-5 "two laps" 3000.0 w.Profile.w_cycles

let test_window_validations () =
  let p = sample_profile () in
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero count" true
    (invalid (fun () -> Profile.window p ~start:0.0 ~count:0.0));
  Alcotest.(check bool) "negative start" true
    (invalid (fun () -> Profile.window p ~start:(-1.0) ~count:10.0));
  List.iter
    (fun (start, count) ->
      Alcotest.(check bool) "non-finite or huge window rejected" true
        (invalid (fun () -> Profile.window p ~start ~count)))
    [ (nan, 10.0); (0.0, nan); (infinity, 10.0); (0.0, infinity); (0x1p52, 10.0);
      (0.0, 0x1p60) ]

let test_reduce_associativity () =
  let p = sample_profile () in
  let r = Profile.reduce_associativity p ~assoc:2 in
  Alcotest.(check int) "assoc" 2 r.Profile.llc_assoc;
  Array.iteri
    (fun i iv ->
      (* No hits deeper than depth 1 in the synthetic SDCs, so the fold
         does not create new misses. *)
      check_close 1e-9 "misses re-derived from SDC" (float_of_int i)
        iv.Profile.llc_misses)
    (Profile.intervals r);
  Alcotest.(check bool) "cannot increase" true
    (try ignore (Profile.reduce_associativity p ~assoc:8); false
     with Invalid_argument _ -> true)

let test_save_load_roundtrip () =
  (* Deliberately fractional values: window scaling and associativity
     folding make real SDC counters and miss counts non-integer, and
     those must survive the disk round-trip exactly. *)
  let fractional_interval i =
    let k = float_of_int (i + 1) in
    {
      Profile.instructions = 1_000;
      cycles = 110133.011905 *. k /. 3.0;
      memory_stall_cycles = 103919.047619 *. k /. 7.0;
      llc_accesses = 645.2861652717584 *. k;
      llc_misses = 0.07 *. k;
      sdc =
        Sdc.of_list ~assoc
          [ 20.25 *. k; k /. 3.0; 0.1 *. k; 1e-3 *. k; 0.07 *. k ];
    }
  in
  let p =
    Profile.make ~benchmark:"synthetic" ~interval_instructions:1_000
      ~llc_assoc:assoc
      (Array.init 5 fractional_interval)
  in
  let path = Filename.temp_file "mppm-test" ".prof" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile.save p path;
      let q = Profile.load path in
      Alcotest.(check string) "benchmark" p.Profile.benchmark q.Profile.benchmark;
      Alcotest.(check int) "interval len" p.Profile.interval_instructions
        q.Profile.interval_instructions;
      Alcotest.(check int) "assoc" p.Profile.llc_assoc q.Profile.llc_assoc;
      let p = Profile.intervals p and q = Profile.intervals q in
      Alcotest.(check int) "intervals" (Array.length p) (Array.length q);
      (* Round-trip must be exact: a cache hit and a recompute have to be
         bit-for-bit interchangeable (traces are golden-tested on it). *)
      let bits = Int64.bits_of_float in
      Array.iteri
        (fun i iv ->
          let jv = q.(i) in
          Alcotest.(check int64) "cycles" (bits iv.Profile.cycles)
            (bits jv.Profile.cycles);
          Alcotest.(check int64) "stall"
            (bits iv.Profile.memory_stall_cycles)
            (bits jv.Profile.memory_stall_cycles);
          Alcotest.(check (list int64)) "sdc"
            (List.map bits (Sdc.to_list iv.Profile.sdc))
            (List.map bits (Sdc.to_list jv.Profile.sdc)))
        p)

let test_load_rejects_garbage () =
  let path = Filename.temp_file "mppm-test" ".prof" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a profile\n";
      close_out oc;
      Alcotest.(check bool) "bad header fails" true
        (try ignore (Profile.load path); false with Failure _ -> true))

(* A truncated file, a non-numeric field, a negative counter and a NaN,
   infinite or negative cycle, access or miss count each fail with a
   located [Profile.load: <path>:<line>:] message. *)
let test_load_corrupt_is_located () =
  let path = Filename.temp_file "mppm-test" ".prof" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profile.save (sample_profile ()) path;
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> not (String.equal l ""))
      in
      let write ls =
        Out_channel.with_open_text path (fun oc ->
            List.iter (fun l -> output_string oc (l ^ "\n")) ls)
      in
      let replace_field line k v =
        String.split_on_char ' ' line
        |> List.mapi (fun i f -> if Int.equal i k then v else f)
        |> String.concat " "
      in
      let last = List.length lines - 1 in
      let edit at f = List.mapi (fun i l -> if Int.equal i at then f l else l) lines in
      List.iter
        (fun (what, contents, line) ->
          write contents;
          let prefix = Printf.sprintf "Profile.load: %s:%d: " path line in
          match Profile.load path with
          | _ -> Alcotest.failf "%s: loaded" what
          | exception Failure msg ->
              if not (String.starts_with ~prefix msg) then
                Alcotest.failf "%s: %S lacks %S" what msg prefix)
        [
          ("truncated", List.filteri (fun i _ -> i < last) lines, last + 1);
          ("non-numeric cycles", edit 6 (fun l -> replace_field l 1 "1.5x"), 7);
          ("non-numeric interval", edit 2 (fun _ -> "interval ten"), 3);
          ("negative counter", edit last (fun l -> replace_field l 6 "-2"), last + 1);
          ("infinite counter", edit last (fun l -> replace_field l 5 "inf"), last + 1);
          ("NaN cycles", edit 6 (fun l -> replace_field l 1 "nan"), 7);
          ("infinite stall cycles", edit 5 (fun l -> replace_field l 2 "inf"), 6);
          ("negative accesses", edit 7 (fun l -> replace_field l 3 "-1"), 8);
          ("-infinite misses", edit last (fun l -> replace_field l 4 "-inf"), last + 1);
          ("NaN misses", edit 5 (fun l -> replace_field l 4 "nan"), 6);
        ])

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"window instruction count is exact" ~count:200
      (pair (float_range 0.0 20_000.0) (float_range 1.0 8_000.0))
      (fun (start, count) ->
        let p = sample_profile () in
        let w = Profile.window p ~start ~count in
        abs_float (w.Profile.w_instructions -. count) < 1e-6 *. count +. 1e-6);
    Test.make ~name:"window cycles positive and bounded" ~count:200
      (pair (float_range 0.0 5_000.0) (float_range 1.0 5_000.0))
      (fun (start, count) ->
        let p = sample_profile () in
        let w = Profile.window p ~start ~count in
        (* Bounded by count * max interval CPI (0.5). *)
        w.Profile.w_cycles > 0.0 && w.Profile.w_cycles <= (0.5 *. count) +. 1e-6);
  ]

let tests =
  [
    ( "profile.core",
      [
        Alcotest.test_case "totals" `Quick test_totals;
        Alcotest.test_case "make validations" `Quick test_make_validations;
        Alcotest.test_case "window full trace" `Quick test_window_full_trace;
        Alcotest.test_case "window single interval" `Quick test_window_single_interval;
        Alcotest.test_case "window fractional" `Quick test_window_fractional;
        Alcotest.test_case "window additivity" `Quick test_window_additivity;
        Alcotest.test_case "window wraps" `Quick test_window_wraps;
        Alcotest.test_case "window multiple laps" `Quick test_window_multiple_laps;
        Alcotest.test_case "window validations" `Quick test_window_validations;
        Alcotest.test_case "reduce associativity" `Quick test_reduce_associativity;
        Alcotest.test_case "save/load roundtrip" `Quick test_save_load_roundtrip;
        Alcotest.test_case "load rejects garbage" `Quick test_load_rejects_garbage;
        Alcotest.test_case "load locates corruption" `Quick test_load_corrupt_is_located;
      ] );
    ("profile.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
