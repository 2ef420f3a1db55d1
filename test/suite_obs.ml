(* Tests for the Mppm_obs observability layer: event serialization and
   round-trips, histogram merge algebra, the model core's event
   stream (deterministic and matching the checked-in golden trace), the
   registry aggregates the simulators push, and the hard guarantee that
   attaching a trace never changes results bit-for-bit.  The tail drives
   the built bin/mppm.exe (trace-report, predict --trace for the bytes it
   writes, trace-stats, argument errors and concurrent cache writers) and
   tools/benchdiff.exe for their exit-code and error-message contracts. *)

module Event = Mppm_obs.Event
module Trace = Mppm_obs.Trace
module Histogram = Mppm_obs.Histogram
module Registry = Mppm_obs.Registry
module Prof = Mppm_obs.Prof
module Render = Mppm_obs.Render
module Model = Mppm_core.Model
module Mix = Mppm_workload.Mix
open Mppm_experiments

let canonical_mix = Mix.of_names [| "gamess"; "gamess"; "hmmer"; "soplex" |]

(* Predict the canonical mix with a trace collector attached; returns the
   model result and the collected events. *)
let traced_run () =
  Suite_experiments.with_ctx @@ fun ctx ->
  let obs, events = Trace.memory () in
  let result = Context.predict ~obs ctx ~llc_config:1 canonical_mix in
  (result, events ())

let jsonl_lines events = List.map Event.to_jsonl events

(* ---- events -------------------------------------------------------------- *)

let test_event_validation () =
  Alcotest.check_raises "reserved field rejected"
    (Invalid_argument "Event.make: field name shadows a reserved key")
    (fun () -> ignore (Event.make ~name:"x" ~time:0.0 [ ("t", Event.Int 1) ]));
  Alcotest.check_raises "empty name rejected"
    (Invalid_argument "Event.make: empty name") (fun () ->
      ignore (Event.make ~name:"" ~time:0.0 []));
  (match Event.of_jsonl "{broken" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSONL must not parse");
  let ev =
    Event.make ~name:"e" ~time:1.5 ~dur:2.0
      [
        ("i", Event.Int 42);
        ("f", Event.Float 0.1);
        ("s", Event.String "a \"b\"\n\t\\");
        ("l", Event.List [ Event.Float 1.0; Event.Float 2.5 ]);
      ]
  in
  match Event.of_jsonl (Event.to_jsonl ev) with
  | Error msg -> Alcotest.fail ("round-trip parse failed: " ^ msg)
  | Ok ev' ->
      Alcotest.(check string) "serialization is a fixpoint"
        (Event.to_jsonl ev) (Event.to_jsonl ev')

(* ---- the model's event stream ------------------------------------------- *)

let test_trace_schema () =
  let result, events = traced_run () in
  let named n = List.filter (fun e -> e.Event.name = n) events in
  Alcotest.(check int) "one start event" 1 (List.length (named "model.start"));
  Alcotest.(check int) "one result event" 1 (List.length (named "model.result"));
  Alcotest.(check int) "one quantum event per iteration"
    result.Model.iterations
    (List.length (named "model.quantum"));
  Alcotest.(check int) "one convergence record per iteration"
    result.Model.iterations
    (List.length (named "model.convergence"));
  (match named "model.start" with
  | [ start ] ->
      Alcotest.(check (option (list string))) "programs match the mix"
        (Some (Array.to_list (Mix.names canonical_mix)))
        (Event.string_list_field start "programs")
  | _ -> Alcotest.fail "expected exactly one model.start");
  List.iter
    (fun q ->
      (match q.Event.dur with
      | Some d when d > 0.0 -> ()
      | _ -> Alcotest.fail "quantum must be a positive-duration span");
      match Event.float_list_field q "r_after" with
      | Some rs ->
          Alcotest.(check int) "one R_p per program" 4 (List.length rs);
          List.iter
            (fun r ->
              if r < 1.0 then Alcotest.fail "slowdowns must stay >= 1")
            rs
      | None -> Alcotest.fail "quantum carries r_after")
    (named "model.quantum")

let test_trace_deterministic () =
  let _, a = traced_run () in
  let _, b = traced_run () in
  Alcotest.(check (list string)) "two runs, byte-identical JSONL"
    (jsonl_lines a) (jsonl_lines b)

(* The golden trace is checked into the repository (and diffed again by
   CI through the CLI): any change to the event schema or to the model's
   numerical behaviour shows up as a diff here and must be intentional. *)
let golden_file = "golden_canonical_trace.jsonl"

let test_trace_matches_golden () =
  if not (Sys.file_exists golden_file) then
    Alcotest.fail ("missing golden trace " ^ golden_file);
  let ic = open_in_bin golden_file in
  let golden = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let _, events = traced_run () in
  let ours =
    String.concat "" (List.map (fun l -> l ^ "\n") (jsonl_lines events))
  in
  Alcotest.(check string) "trace matches the checked-in golden" golden ours

(* The hard constraint: collecting a trace must not change any result bit. *)
let test_traced_equals_untraced () =
  let untraced =
    Suite_experiments.with_ctx @@ fun ctx ->
    Context.predict ctx ~llc_config:1 canonical_mix
  in
  let traced, _ = traced_run () in
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) "STP bit-for-bit" (bits untraced.Model.stp)
    (bits traced.Model.stp);
  Alcotest.(check int64) "ANTT bit-for-bit" (bits untraced.Model.antt)
    (bits traced.Model.antt);
  Alcotest.(check int) "same iteration count" untraced.Model.iterations
    traced.Model.iterations;
  Array.iteri
    (fun i p ->
      Alcotest.(check int64)
        (Printf.sprintf "slowdown %d bit-for-bit" i)
        (bits p.Model.slowdown)
        (bits traced.Model.programs.(i).Model.slowdown))
    untraced.Model.programs

(* ---- registry aggregates ------------------------------------------------- *)

let test_registry_aggregates () =
  Registry.reset ();
  Suite_experiments.with_ctx @@ fun ctx ->
  ignore (Context.predict ctx ~llc_config:1 canonical_mix);
  Alcotest.(check bool) "profile computations counted" true
    (Registry.get "profile_cache.misses" >= 3.0);
  Alcotest.(check bool) "memoized lookups counted" true
    (Registry.get "profile_cache.memo_hits" >= 1.0);
  Alcotest.(check bool) "profiling runs counted" true
    (Registry.get "simcore.profiles" >= 3.0);
  Alcotest.(check bool) "simcore hierarchy counters pushed" true
    (Registry.get "simcore.l1d.accesses" > 0.0);
  Alcotest.(check bool) "SDC summary pushed" true
    (Registry.get "cache.sdc.mass" > 0.0);
  ignore (Context.detailed ctx ~llc_config:1 canonical_mix);
  Alcotest.(check bool) "multicore run counted" true
    (Registry.get "multicore.runs" >= 1.0);
  Alcotest.(check bool) "shared LLC aggregates pushed" true
    (Registry.get "multicore.shared_llc.accesses" > 0.0);
  let snapshot = Registry.snapshot_prefix "profile_cache" in
  Alcotest.(check bool) "snapshot_prefix selects the namespace" true
    (List.for_all
       (fun (name, _) -> String.length name > 14)
       snapshot
    && snapshot <> []);
  Registry.reset ()

let test_registry_rejects_non_finite () =
  let rejects what f =
    match f () with
    | () -> Alcotest.failf "%s: non-finite delta accepted" what
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (what ^ " error is prefixed: " ^ msg)
          true
          (String.starts_with ~prefix:"Registry.add:" msg)
  in
  List.iter
    (fun delta ->
      rejects "add" (fun () -> Registry.add "test.non_finite" delta);
      rejects "add_all" (fun () ->
          Registry.add_all ~prefix:"test" [ ("non_finite", delta) ]))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check (float 0.0)) "rejected deltas create no counter" 0.0
    (Registry.get "test.non_finite")

(* ---- histogram algebra -------------------------------------------------- *)

(* Shared by the histogram qcheck laws: samples over fixed bounds. *)
let quantile_bounds = [| 10.0; 25.0; 50.0; 75.0 |]

let hist_of samples =
  let h = Histogram.create ~bounds:quantile_bounds in
  List.iter (fun x -> Histogram.observe h (float_of_int x)) samples;
  h

let samples_gen = QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 120))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"histogram merge commutes and associates"
      ~count:300
      QCheck.(
        triple (small_list (int_range 0 100)) (small_list (int_range 0 100))
          (small_list (int_range 0 100)))
      (fun (xs, ys, zs) ->
        let bounds = [| 10.0; 25.0; 50.0; 75.0 |] in
        let hist samples =
          let h = Histogram.create ~bounds in
          List.iter (fun x -> Histogram.observe h (float_of_int x)) samples;
          h
        in
        let a = hist xs and b = hist ys and c = hist zs in
        let counts h = Histogram.bucket_counts h in
        counts (Histogram.merge a b) = counts (Histogram.merge b a)
        && counts (Histogram.merge (Histogram.merge a b) c)
           = counts (Histogram.merge a (Histogram.merge b c)));
    QCheck.Test.make ~name:"quantile is monotone in p" ~count:300
      QCheck.(triple samples_gen (int_range 0 100) (int_range 0 100))
      (fun (xs, a, b) ->
        let h = hist_of xs in
        let p1 = float_of_int (min a b) /. 100.0
        and p2 = float_of_int (max a b) /. 100.0 in
        Histogram.quantile h p1 <= Histogram.quantile h p2);
    QCheck.Test.make ~name:"quantile stays within [min, max]" ~count:300
      QCheck.(pair samples_gen (int_range 0 100))
      (fun (xs, pi) ->
        let h = hist_of xs in
        let q = Histogram.quantile h (float_of_int pi /. 100.0) in
        match (Histogram.min_value h, Histogram.max_value h) with
        | Some lo, Some hi -> q >= lo && q <= hi
        | _ -> false);
    QCheck.Test.make ~name:"quantile invariant under merge order" ~count:300
      QCheck.(triple samples_gen samples_gen (int_range 0 100))
      (fun (xs, ys, pi) ->
        let p = float_of_int pi /. 100.0 in
        let a = hist_of xs and b = hist_of ys in
        Float.equal
          (Histogram.quantile (Histogram.merge a b) p)
          (Histogram.quantile (Histogram.merge b a) p));
    QCheck.Test.make ~name:"JSONL floats round-trip exactly" ~count:500
      QCheck.(float)
      (fun f ->
        QCheck.assume (Float.is_finite f);
        let ev = Event.make ~name:"x" ~time:0.0 [ ("v", Event.Float f) ] in
        match Event.of_jsonl (Event.to_jsonl ev) with
        | Ok ev' -> (
            match Event.float_field ev' "v" with
            | Some f' ->
                Int64.bits_of_float f = Int64.bits_of_float f'
                (* -0.0 and 0.0 share a JSON rendering; either bit
                   pattern is a faithful read-back. *)
                (* lint: allow F1 exact zero-bit check intended *)
                || (f = 0.0 && f' = 0.0)
            | None -> false)
        | Error _ -> false);
  ]

let test_histogram_basics () =
  let h = Histogram.create_exponential ~first:1.0 ~ratio:2.0 ~buckets:4 in
  List.iter (Histogram.observe h) [ 0.5; 1.5; 3.0; 100.0 ];
  Alcotest.(check (float 0.0)) "count" 4.0 (Histogram.count h);
  Alcotest.(check (float 0.0)) "sum" 105.0 (Histogram.sum h);
  Alcotest.(check (option (float 0.0))) "min" (Some 0.5)
    (Histogram.min_value h);
  Alcotest.(check (option (float 0.0))) "max" (Some 100.0)
    (Histogram.max_value h);
  Alcotest.(check int) "bucket count" 5
    (Array.length (Histogram.bucket_counts h))

let test_quantile_basics () =
  let h = Histogram.create ~bounds:[| 10.0; 20.0; 30.0 |] in
  Alcotest.(check (float 0.0)) "empty histogram reads 0" 0.0
    (Histogram.quantile h 0.5);
  Alcotest.check_raises "p out of range rejected"
    (Invalid_argument "Histogram.quantile: p must lie in [0, 1]") (fun () ->
      ignore (Histogram.quantile h 1.5));
  List.iter (Histogram.observe h) [ 1.0; 5.0; 15.0; 25.0; 100.0 ];
  Alcotest.(check (float 0.0)) "quantile 0 is the min" 1.0
    (Histogram.quantile h 0.0);
  Alcotest.(check (float 0.0)) "quantile 1 is the max" 100.0
    (Histogram.quantile h 1.0);
  (* rank 2.5 of 5 lands mid-bucket [10, 20): interpolates to 15. *)
  Alcotest.(check (float 1e-9)) "median interpolates inside its bucket" 15.0
    (Histogram.quantile h 0.5)

(* ---- the injected-clock profiler ------------------------------------------ *)

(* A deterministic clock: each read advances virtual time by one second. *)
let counter_clock () =
  let t = ref 0.0 in
  fun () ->
    t := !t +. 1.0;
    !t

let test_prof_null () =
  let p = Prof.null in
  Alcotest.(check bool) "null is disabled" false (Prof.enabled p);
  Alcotest.(check bool) "null has no clock" true
    (Option.is_none (Prof.clock p));
  Alcotest.(check int) "time is transparent" 42
    (Prof.time p "x" (fun () -> 42));
  Prof.task p ~domain:0 ~start:0.0 ~wait:0.0 ~dur:1.0;
  Prof.note_jobs p 8;
  Alcotest.(check int) "no spans recorded" 0 (List.length (Prof.spans p));
  Alcotest.(check int) "no tasks recorded" 0 (List.length (Prof.tasks p));
  Alcotest.(check bool) "no pool stats" true
    (Option.is_none (Prof.pool_stats p))

let test_prof_spans () =
  let p = Prof.make ~clock:(counter_clock ()) in
  Alcotest.(check bool) "live profiler enabled" true (Prof.enabled p);
  Alcotest.(check int) "result passes through" 7
    (Prof.time p "alpha" (fun () -> 7));
  ignore (Prof.time p "alpha" (fun () -> 1));
  ignore (Prof.time p "beta" (fun () -> 2));
  (* A raising scope still records its span. *)
  (try ignore (Prof.time p "beta" (fun () : int -> failwith "boom"))
   with Failure _ -> ());
  let spans = Prof.spans p in
  Alcotest.(check int) "every scope recorded, raises included" 4
    (List.length spans);
  Alcotest.(check (list string)) "completion order"
    [ "alpha"; "alpha"; "beta"; "beta" ]
    (List.map (fun s -> s.Prof.sp_name) spans);
  List.iter
    (fun s ->
      (* The counter clock ticks once per read: entry and exit are one
         virtual second apart. *)
      Alcotest.(check (float 1e-9)) "span duration is one clock tick" 1.0
        s.Prof.sp_dur)
    spans

let test_prof_pool_stats () =
  let p = Prof.make ~clock:(counter_clock ()) in
  Prof.note_jobs p 2;
  Prof.task p ~domain:0 ~start:0.0 ~wait:0.0 ~dur:2.0;
  Prof.task p ~domain:1 ~start:1.0 ~wait:0.5 ~dur:1.0;
  (* Clock skew clamps to zero instead of corrupting the aggregates. *)
  Prof.task p ~domain:0 ~start:2.0 ~wait:(-0.1) ~dur:2.0;
  Alcotest.(check int) "tasks logged in order" 3 (List.length (Prof.tasks p));
  (match Prof.tasks p with
  | [ _; _; t3 ] ->
      Alcotest.(check (float 0.0)) "negative wait clamped" 0.0 t3.Prof.tk_wait
  | _ -> Alcotest.fail "expected 3 tasks");
  match Prof.pool_stats p with
  | None -> Alcotest.fail "expected pool stats"
  | Some s ->
      Alcotest.(check int) "jobs" 2 s.Prof.p_jobs;
      Alcotest.(check (float 0.0)) "task count" 3.0 s.Prof.p_tasks;
      Alcotest.(check (float 1e-9)) "elapsed spans first start to last end"
        4.0 s.Prof.p_elapsed;
      (* 5s busy over a 4s window on 2 workers. *)
      Alcotest.(check (float 1e-9)) "utilization" 0.625 s.Prof.p_utilization;
      (match s.Prof.p_domains with
      | [ d0; d1 ] ->
          Alcotest.(check int) "domain ids sorted" 0 d0.Prof.d_domain;
          Alcotest.(check (float 0.0)) "domain 0 tasks" 2.0 d0.Prof.d_tasks;
          Alcotest.(check (float 1e-9)) "domain 0 busy" 4.0 d0.Prof.d_busy;
          Alcotest.(check (float 0.0)) "domain 1 tasks" 1.0 d1.Prof.d_tasks
      | ds -> Alcotest.failf "expected 2 domains, got %d" (List.length ds));
      Alcotest.(check bool) "wait quantiles non-negative" true
        (s.Prof.p_wait_p50 >= 0.0 && s.Prof.p_wait_p99 >= 0.0);
      Alcotest.(check bool) "duration quantiles ordered" true
        (s.Prof.p_dur_p50 <= s.Prof.p_dur_p90
        && s.Prof.p_dur_p90 <= s.Prof.p_dur_p99)

(* The profiling analogue of the tracing guarantee: wrapping the
   canonical prediction in Prof spans changes no result bit. *)
let test_profiled_equals_unprofiled () =
  let unprofiled =
    Suite_experiments.with_ctx @@ fun ctx ->
    Context.predict ctx ~llc_config:1 canonical_mix
  in
  let prof = Prof.make ~clock:(counter_clock ()) in
  let profiled =
    Suite_experiments.with_ctx @@ fun ctx ->
    Prof.time prof "predict" (fun () ->
        Context.predict ctx ~llc_config:1 canonical_mix)
  in
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) "STP bit-for-bit" (bits unprofiled.Model.stp)
    (bits profiled.Model.stp);
  Alcotest.(check int64) "ANTT bit-for-bit" (bits unprofiled.Model.antt)
    (bits profiled.Model.antt);
  Alcotest.(check int) "same iteration count" unprofiled.Model.iterations
    profiled.Model.iterations;
  Array.iteri
    (fun i p ->
      Alcotest.(check int64)
        (Printf.sprintf "slowdown %d bit-for-bit" i)
        (bits p.Model.slowdown)
        (bits profiled.Model.programs.(i).Model.slowdown))
    unprofiled.Model.programs;
  Alcotest.(check int) "exactly one span recorded" 1
    (List.length (Prof.spans prof))

(* ---- renderers ----------------------------------------------------------- *)

let test_render_jsonl () =
  let ev1 = Event.make ~name:"a" ~time:1.0 [] in
  let ev2 = Event.make ~name:"b" ~time:2.0 ~dur:1.0 [ ("k", Event.Int 3) ] in
  Alcotest.(check string) "empty list renders nothing" ""
    (Render.to_string (Render.jsonl ()) []);
  Alcotest.(check string) "one line per event"
    (Event.to_jsonl ev1 ^ "\n" ^ Event.to_jsonl ev2 ^ "\n")
    (Render.to_string (Render.jsonl ()) [ ev1; ev2 ])

let test_render_chrome () =
  let ev1 = Event.make ~name:"a" ~time:1.0 [] in
  let ev2 = Event.make ~name:"b" ~time:2.0 ~dur:1.0 [ ("k", Event.Int 3) ] in
  (* The exact byte framing bin/mppm.ml's --trace-format chrome always
     produced: "[", "\n" before the first object, ",\n" between objects,
     "\n]\n" at the end. *)
  Alcotest.(check string) "array framing"
    ("[\n" ^ Event.to_chrome ev1 ^ ",\n" ^ Event.to_chrome ev2 ^ "\n]\n")
    (Render.to_string (Render.chrome ()) [ ev1; ev2 ]);
  Alcotest.(check string) "empty stream still well-formed" "[\n]\n"
    (Render.to_string (Render.chrome ()) []);
  let lane ev =
    Option.value (Event.int_field ev "domain") ~default:0
  in
  let ev3 = Event.make ~name:"t" ~time:0.0 ~dur:1.0 [ ("domain", Event.Int 3) ] in
  let out = Render.to_string (Render.chrome ~lane ()) [ ev3; ev1 ] in
  Alcotest.(check bool) "lane routes tid" true
    (let sub = "\"tid\":3" in
     let rec find i =
       i + String.length sub <= String.length out
       && (String.sub out i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  Alcotest.(check bool) "default lane stays 0" true
    (let sub = "\"tid\":0" in
     let rec find i =
       i + String.length sub <= String.length out
       && (String.sub out i (String.length sub) = sub || find (i + 1))
     in
     find 0)

(* ---- the CLIs ------------------------------------------------------------ *)

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

(* Locate the built executables the dune test stanza declares as deps;
   source checkouts without a build skip gracefully (same discipline as
   suite_sema's driver test). *)
let built_exe rel =
  let candidates =
    (match Sys.getenv_opt "MPPM_LINT_ROOT" with Some r -> [ r ] | None -> [])
    @ [ ".."; "../.."; "." ]
  in
  List.find_map
    (fun root ->
      let path = Filename.concat root rel in
      if Sys.file_exists path then Some path else None)
    candidates

let run_cli cmd =
  let out = Filename.temp_file "mppm_cli_out" ".txt" in
  let rc = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote out)) in
  let text = read_file out in
  Sys.remove out;
  (rc, text)

let test_trace_report_bad_input () =
  match built_exe "bin/mppm.exe" with
  | None -> () (* source checkout without a build *)
  | Some exe ->
      let empty = Filename.temp_file "mppm_trace_empty" ".jsonl" in
      write_file empty "";
      let rc, text =
        run_cli
          (Printf.sprintf "%s trace-report %s" (Filename.quote exe)
             (Filename.quote empty))
      in
      Sys.remove empty;
      Alcotest.(check int) "empty trace exits 2" 2 rc;
      Alcotest.(check bool) "error names the command" true
        (contains text "Mppm.trace_report");
      Alcotest.(check bool) "error hints at recording a trace" true
        (contains text "hint");
      let chrome = Filename.temp_file "mppm_trace_chrome" ".jsonl" in
      write_file chrome "[\n{\"ph\": \"X\"}\n]\n";
      let rc, text =
        run_cli
          (Printf.sprintf "%s trace-report %s" (Filename.quote exe)
             (Filename.quote chrome))
      in
      Sys.remove chrome;
      Alcotest.(check int) "chrome trace exits 2" 2 rc;
      Alcotest.(check bool) "error carries file and line" true
        (contains text "Mppm.trace_report");
      Alcotest.(check bool) "hint says it looks like a Chrome trace" true
        (contains text "Chrome")

(* The --trace writer: each mix's events are collected in memory and the
   file is rendered once after the batch, so its bytes must equal the
   golden JSONL, the in-process Chrome rendering, and themselves for any
   --jobs.  Each test profiles into its own scratch cache. *)
let with_temp_dir f =
  let dir = Filename.temp_dir "mppm_cli_trace" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* [mppm predict ARGS --trace FILE] in [dir]; returns the trace bytes. *)
let cli_trace exe dir ~args ~file =
  let path = Filename.concat dir file in
  let rc, text =
    run_cli
      (Printf.sprintf "%s predict %s --length 100000 --seed 7 --cache %s \
                       --trace %s"
         (Filename.quote exe) args (Filename.quote dir) (Filename.quote path))
  in
  if rc <> 0 then Alcotest.failf "mppm predict exited %d: %s" rc text;
  read_file path

let canonical_args = "gamess gamess hmmer soplex"

let test_cli_trace_golden () =
  match built_exe "bin/mppm.exe" with
  | None -> () (* source checkout without a build *)
  | Some exe ->
      with_temp_dir @@ fun dir ->
      Alcotest.(check string) "--trace JSONL equals the checked-in golden"
        (read_file golden_file)
        (cli_trace exe dir ~args:canonical_args ~file:"canonical.jsonl")

let test_cli_trace_chrome () =
  match built_exe "bin/mppm.exe" with
  | None -> () (* source checkout without a build *)
  | Some exe ->
      with_temp_dir @@ fun dir ->
      Alcotest.(check string) "--trace-format chrome equals Render.chrome"
        (Render.to_string (Render.chrome ()) (snd (traced_run ())))
        (cli_trace exe dir
           ~args:(canonical_args ^ " --trace-format chrome")
           ~file:"canonical.json")

let test_cli_trace_jobs () =
  match built_exe "bin/mppm.exe" with
  | None -> () (* source checkout without a build *)
  | Some exe ->
      with_temp_dir @@ fun dir ->
      let batch = "gamess,gamess,hmmer,soplex mcf,lbm,milc,GemsFDTD" in
      let sequential =
        cli_trace exe dir ~args:(batch ^ " --jobs 1") ~file:"jobs1.jsonl"
      in
      Alcotest.(check string) "batch trace identical at --jobs 1 and 2"
        sequential
        (cli_trace exe dir ~args:(batch ^ " --jobs 2") ~file:"jobs2.jsonl");
      Alcotest.(check int) "one model.start per mix" 2
        (List.length
           (List.filter
              (fun line -> contains line "\"model.start\"")
              (String.split_on_char '\n' sequential)))

(* trace-stats records the benchmark's stream into an empty cache and
   prints the SDC Context.llc_sdc computes for the requested LLC. *)
let test_cli_trace_stats () =
  match built_exe "bin/mppm.exe" with
  | None -> () (* source checkout without a build *)
  | Some exe ->
      with_temp_dir @@ fun dir ->
      let rc, text =
        run_cli
          (Printf.sprintf
             "%s trace-stats soplex --length 100000 --cache %s --size 1024 \
              --assoc 16"
             (Filename.quote exe) (Filename.quote dir))
      in
      Alcotest.(check int) "exits 0" 0 rc;
      Alcotest.(check bool) "the stream was recorded" true
        (Array.exists
           (fun f -> Filename.check_suffix f ".stream")
           (Sys.readdir dir));
      let sdc =
        Context.llc_sdc
          (Context.create ~seed:7 ~cache_dir:dir (Scale.of_trace 100_000))
          ~llc:
            (Mppm_cache.Geometry.make
               ~size_bytes:(Mppm_cache.Geometry.mib 1)
               ~line_bytes:64 ~associativity:16)
          (Mppm_trace.Suite.index "soplex")
      in
      Alcotest.(check bool) "says what it counts" true
        (contains text "LLC-bound references");
      Alcotest.(check bool) "prints Context.llc_sdc" true
        (contains text (Format.asprintf "%a" Mppm_cache.Sdc.pp sdc))

(* An out-of-range argument is one "mppm: ..." line on stderr and exit 2,
   not an uncaught exception. *)
let test_cli_invalid_arguments () =
  match built_exe "bin/mppm.exe" with
  | None -> () (* source checkout without a build *)
  | Some exe ->
      with_temp_dir @@ fun dir ->
      let run args =
        run_cli
          (Printf.sprintf "%s %s --length 100000 --cache %s"
             (Filename.quote exe) args (Filename.quote dir))
      in
      let rc, text = run "profile gamess --config 9" in
      Alcotest.(check int) "--config 9 exits 2" 2 rc;
      Alcotest.(check string) "--config 9: one line"
        "mppm: Configs.llc_config: no config #9\n" text;
      let rc, text = run "trace-stats gamess --assoc 0" in
      Alcotest.(check int) "--assoc 0 exits 2" 2 rc;
      Alcotest.(check bool) "--assoc 0: one mppm: line" true
        (String.starts_with ~prefix:"mppm: Geometry.make: " text
        && String.index text '\n' = String.length text - 1)

(* Two cold [mppm profile] processes started together on one empty cache
   directory both succeed and leave the bytes one process writes alone:
   each stages its writes in a .tmp file of its own. *)
let test_cli_concurrent_cold_writers () =
  match built_exe "bin/mppm.exe" with
  | None -> () (* source checkout without a build *)
  | Some exe ->
      with_temp_dir @@ fun alone ->
      with_temp_dir @@ fun shared ->
      let spawn dir =
        let err = Filename.temp_file "mppm_cli_err" ".txt" in
        let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
        let pid =
          Unix.create_process exe
            [| exe; "profile"; "gamess"; "mcf"; "soplex"; "lbm";
               "--length"; "1000000"; "--cache"; dir |]
            Unix.stdin fd fd
        in
        Unix.close fd;
        (pid, err)
      in
      let wait (pid, err) =
        let status = snd (Unix.waitpid [] pid) in
        let output = read_file err in
        Sys.remove err;
        match status with
        | Unix.WEXITED 0 -> ()
        | _ -> Alcotest.failf "mppm profile failed: %s" output
      in
      wait (spawn alone);
      let a = spawn shared in
      let b = spawn shared in
      wait a;
      wait b;
      let cached dir =
        List.filter
          (fun f ->
            Filename.check_suffix f ".prof" || Filename.check_suffix f ".stream")
          (List.sort compare (Array.to_list (Sys.readdir dir)))
      in
      Alcotest.(check (list string)) "same entries" (cached alone) (cached shared);
      Alcotest.(check int) "four profiles and four streams" 8
        (List.length (cached shared));
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " byte-identical") true
            (String.equal
               (read_file (Filename.concat alone f))
               (read_file (Filename.concat shared f))))
        (cached alone)

(* benchdiff on the committed fixtures (test/benchdiff_*.json, in the
   [perf.exe --workload all] format) against BENCHMARK.json's bounds. *)
let test_benchdiff_exit_codes () =
  match built_exe "tools/benchdiff.exe" with
  | None -> () (* source checkout without a build *)
  | Some exe ->
      let diff ?(flags = "") base cur =
        run_cli
          (Printf.sprintf "%s %s benchdiff_%s.json benchdiff_%s.json"
             (Filename.quote exe) flags base cur)
      in
      let rc, _ = diff "base" "noise" in
      Alcotest.(check int) "noise within every bound exits 0" 0 rc;
      let rc, text = diff "base" "slow" in
      Alcotest.(check int) "throughput 30% below exits 1" 1 rc;
      Alcotest.(check bool) "names the workload and the metric" true
        (contains text "benchdiff: rank-500 throughput");
      let rc, _ = diff ~flags:"--warn-only" "base" "slow" in
      Alcotest.(check int) "--warn-only exits 0" 0 rc;
      let rc, text = diff "base" "incorrect" in
      Alcotest.(check int) "\"correct\": false exits 1" 1 rc;
      Alcotest.(check bool) "names the incorrect workload" true
        (contains text "fig4-quick: \"correct\": false");
      let rc, _ = diff "layers_base" "layers" in
      Alcotest.(check int) "a per-layer change only exits 0" 0 rc;
      let rc, text = diff "base" "missing" in
      Alcotest.(check int) "a missing workload exits 1" 1 rc;
      Alcotest.(check bool) "names the missing workload" true
        (contains text "partition-bw");
      let bad = Filename.temp_file "benchdiff_bad" ".json" in
      write_file bad "this is not a bench result";
      let rc, text =
        run_cli
          (Printf.sprintf "%s benchdiff_base.json %s" (Filename.quote exe)
             (Filename.quote bad))
      in
      Sys.remove bad;
      Alcotest.(check int) "non-JSON input exits 2" 2 rc;
      Alcotest.(check bool) "error is prefixed" true
        (String.starts_with ~prefix:"benchdiff: " text)

let test_benchdiff_baseline () =
  match built_exe "tools/benchdiff.exe" with
  | None -> () (* source checkout without a build *)
  | Some exe ->
      let rc, text =
        run_cli
          (Printf.sprintf "%s ../BENCH_perf.json ../BENCH_perf.json"
             (Filename.quote exe))
      in
      Alcotest.(check int) ("BENCH_perf.json against itself exits 0: " ^ text)
        0 rc

let tests =
  [
    ( "obs.event",
      [
        Alcotest.test_case "validation and round-trip" `Quick
          test_event_validation;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "model event schema" `Quick test_trace_schema;
        Alcotest.test_case "deterministic across runs" `Quick
          test_trace_deterministic;
        Alcotest.test_case "matches checked-in golden" `Quick
          test_trace_matches_golden;
        Alcotest.test_case "traced run bit-identical to untraced" `Quick
          test_traced_equals_untraced;
      ] );
    ( "obs.registry",
      [
        Alcotest.test_case "end-to-end aggregates" `Slow
          test_registry_aggregates;
        Alcotest.test_case "non-finite delta rejected" `Quick
          test_registry_rejects_non_finite;
      ] );
    ( "obs.metrics",
      Alcotest.test_case "histogram basics" `Quick test_histogram_basics
      :: Alcotest.test_case "quantile basics" `Quick test_quantile_basics
      :: List.map QCheck_alcotest.to_alcotest qcheck_tests );
    ( "obs.prof",
      [
        Alcotest.test_case "null profiler is a no-op" `Quick test_prof_null;
        Alcotest.test_case "spans and per-name order" `Quick test_prof_spans;
        Alcotest.test_case "pool task aggregates" `Quick test_prof_pool_stats;
        Alcotest.test_case "profiled run bit-identical to unprofiled" `Quick
          test_profiled_equals_unprofiled;
      ] );
    ( "obs.render",
      [
        Alcotest.test_case "jsonl stream" `Quick test_render_jsonl;
        Alcotest.test_case "chrome framing and lanes" `Quick
          test_render_chrome;
      ] );
    ( "bench-cli",
      [
        Alcotest.test_case "benchdiff exit codes" `Quick
          test_benchdiff_exit_codes;
        Alcotest.test_case "benchdiff of BENCH_perf.json with itself" `Quick
          test_benchdiff_baseline;
        Alcotest.test_case "trace-report rejects empty/foreign traces" `Quick
          test_trace_report_bad_input;
      ] );
    ( "obs.cli-trace",
      [
        Alcotest.test_case "JSONL equals the golden" `Quick
          test_cli_trace_golden;
        Alcotest.test_case "chrome equals Render.chrome" `Quick
          test_cli_trace_chrome;
        Alcotest.test_case "batch bytes independent of --jobs" `Quick
          test_cli_trace_jobs;
      ] );
    ( "cli",
      [
        Alcotest.test_case "trace-stats replays the stream" `Quick
          test_cli_trace_stats;
        Alcotest.test_case "invalid arguments: one line" `Quick
          test_cli_invalid_arguments;
        Alcotest.test_case "concurrent cold writers" `Quick
          test_cli_concurrent_cold_writers;
      ] );
  ]
