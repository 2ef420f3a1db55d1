(* Tests for Mppm_pool: the domain pool's maps are bit-for-bit equal to
   their sequential counterparts for any job count, errors and progress
   callbacks are deterministic, the single-flight table computes each key
   exactly once, and a traced canonical compare run through the pool
   matches the sequential run exactly. *)

module Pool = Mppm_pool.Pool
module Single_flight = Mppm_pool.Single_flight
module Prof = Mppm_obs.Prof
module Rng = Mppm_util.Rng
module Registry = Mppm_obs.Registry
module Trace = Mppm_obs.Trace
module Event = Mppm_obs.Event
module Mix = Mppm_workload.Mix
open Mppm_experiments

let job_counts = [ 1; 2; 4; 8 ]

(* A seed-driven task: every input is its own RNG seed, as pool tasks are
   throughout the tree. *)
let seeded_task seed =
  let rng = Rng.create ~seed in
  let acc = ref 0 in
  for _ = 1 to 32 do
    acc := (!acc * 31) + Rng.int rng 1_000_003
  done;
  !acc

(* ---- map matches sequential -------------------------------------------- *)

let test_map_matches_sequential () =
  let prop (seeds, jobs_idx, chunk) =
    let xs = Array.of_list seeds in
    let jobs = List.nth job_counts (jobs_idx mod List.length job_counts) in
    let chunk = 1 + (chunk mod 5) in
    let expected = Array.map seeded_task xs in
    let actual =
      Pool.with_pool ~jobs (fun pool -> Pool.map ~chunk pool seeded_task xs)
    in
    expected = actual
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:30
       ~name:"Pool.map f xs = Array.map f xs for jobs in {1,2,4,8}"
       QCheck.(
         triple (list_of_size (Gen.int_range 0 40) small_int) small_int
           small_int)
       prop)

let test_map_reduce_matches_fold () =
  let xs = Array.init 57 (fun i -> i * 13) in
  let seq =
    Array.fold_left (fun acc x -> acc + seeded_task x) 0 xs
  in
  List.iter
    (fun jobs ->
      let par =
        Pool.with_pool ~jobs (fun pool ->
            Pool.map_reduce pool ~map:seeded_task
              ~reduce:(fun acc y -> acc + y)
              ~init:0 xs)
      in
      Alcotest.(check int)
        (Printf.sprintf "map_reduce, %d jobs" jobs)
        seq par)
    job_counts

let test_empty_and_reuse () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check int) "pool job count" 4 (Pool.jobs pool);
      Alcotest.(check (array int)) "empty input" [||]
        (Pool.map pool (fun x -> x) [||]);
      (* Several batches on one pool. *)
      for n = 1 to 5 do
        let xs = Array.init (n * 7) Fun.id in
        Alcotest.(check (array int))
          (Printf.sprintf "batch %d" n)
          (Array.map succ xs)
          (Pool.map pool succ xs)
      done)

let test_invalid_jobs () =
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0 ()))

let test_shutdown_rejects_map () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  Alcotest.check_raises "map on a stopped pool"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool succ [| 1 |]))

(* ---- error determinism -------------------------------------------------- *)

exception Boom of int

let test_lowest_index_error () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let raised =
            try
              ignore
                (Pool.map pool
                   (fun i -> if i mod 3 = 2 then raise (Boom i) else i)
                   (Array.init 20 Fun.id));
              None
            with Boom i -> Some i
          in
          Alcotest.(check (option int))
            (Printf.sprintf "lowest failing index, %d jobs" jobs)
            (Some 2) raised;
          (* The pool survives a failed batch. *)
          Alcotest.(check (array int)) "usable after error" [| 2; 3 |]
            (Pool.map pool succ [| 1; 2 |])))
    job_counts

(* ---- progress callback --------------------------------------------------- *)

let test_on_done_serialized () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let seen = ref [] in
          let total = 23 in
          ignore
            (Pool.map
               ~on_done:(fun ~done_ ~total:t ->
                 seen := (done_, t) :: !seen)
               pool seeded_task
               (Array.init total Fun.id));
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "done_ counts 1..total, %d jobs" jobs)
            (List.init total (fun i -> (i + 1, total)))
            (List.rev !seen)))
    job_counts

(* ---- registry counters ---------------------------------------------------- *)

let test_pool_counters () =
  Registry.reset ();
  Pool.with_pool ~jobs:2 (fun pool ->
      ignore (Pool.map pool succ (Array.init 11 Fun.id));
      ignore (Pool.map pool succ (Array.init 5 Fun.id)));
  Alcotest.(check (float 0.0)) "pool.batches" 2.0 (Registry.get "pool.batches");
  Alcotest.(check (float 0.0)) "pool.tasks" 16.0 (Registry.get "pool.tasks");
  Alcotest.(check (float 0.0)) "pool.queue_depth_hwm" 11.0
    (Registry.get "pool.queue_depth_hwm")

(* ---- profiler attachment -------------------------------------------------- *)

(* A profiler's clock is read from worker domains, so the test clock is
   an atomic tick counter: thread-safe, deterministic count, strictly
   increasing across all readers. *)
let atomic_clock () =
  let ticks = Atomic.make 0 in
  fun () -> float_of_int (Atomic.fetch_and_add ticks 1)

let test_prof_attached_identical () =
  let xs = Array.init 40 Fun.id in
  let plain =
    Pool.with_pool ~jobs:1 (fun pool -> Pool.map pool seeded_task xs)
  in
  List.iter
    (fun jobs ->
      let prof = Prof.make ~clock:(atomic_clock ()) in
      let timed =
        Pool.with_pool ~jobs ~prof (fun pool -> Pool.map pool seeded_task xs)
      in
      Alcotest.(check (array int))
        (Printf.sprintf "results bit-identical with prof, %d jobs" jobs)
        plain timed;
      let tasks = Prof.tasks prof in
      Alcotest.(check int)
        (Printf.sprintf "every task recorded, %d jobs" jobs)
        (Array.length xs) (List.length tasks);
      List.iter
        (fun tk ->
          Alcotest.(check bool)
            (Printf.sprintf "worker index in [0, %d), %d jobs" jobs jobs)
            true
            (tk.Prof.tk_domain >= 0 && tk.Prof.tk_domain < jobs);
          Alcotest.(check bool) "wait and duration non-negative" true
            (tk.Prof.tk_wait >= 0.0 && tk.Prof.tk_dur >= 0.0))
        tasks;
      match Prof.pool_stats prof with
      | None -> Alcotest.fail "pool_stats must be Some after a profiled run"
      | Some st ->
          Alcotest.(check int)
            (Printf.sprintf "pool size recorded, %d jobs" jobs)
            jobs st.Prof.p_jobs;
          Alcotest.(check (float 0.0))
            (Printf.sprintf "task total, %d jobs" jobs)
            (float_of_int (Array.length xs))
            st.Prof.p_tasks;
          let domain_total =
            List.fold_left
              (fun acc d -> acc +. d.Prof.d_tasks)
              0.0 st.Prof.p_domains
          in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "per-domain counts sum to total, %d jobs" jobs)
            (float_of_int (Array.length xs))
            domain_total)
    job_counts

let test_prof_null_pool_records_nothing () =
  let xs = Array.init 9 Fun.id in
  let result = Pool.with_pool ~jobs:2 (fun pool -> Pool.map pool succ xs) in
  Alcotest.(check (array int)) "plain pool still maps" (Array.map succ xs)
    result;
  Alcotest.(check int) "null profiler records no tasks" 0
    (List.length (Prof.tasks Prof.null));
  Alcotest.(check bool) "null profiler has no pool stats" true
    (Option.is_none (Prof.pool_stats Prof.null))

(* ---- single flight -------------------------------------------------------- *)

let test_single_flight_once () =
  List.iter
    (fun jobs ->
      Registry.reset ();
      let table = Single_flight.create () in
      let computed = ref 0 in
      let count_mutex = Mutex.create () in
      let compute key =
        Mutex.lock count_mutex;
        incr computed;
        Mutex.unlock count_mutex;
        key * 2
      in
      let requests = 24 in
      let results =
        Pool.with_pool ~jobs (fun pool ->
            Pool.map pool
              (fun _ -> Single_flight.get table 21 compute)
              (Array.init requests Fun.id))
      in
      Alcotest.(check (array int))
        (Printf.sprintf "every requester sees the value, %d jobs" jobs)
        (Array.make requests 42) results;
      Alcotest.(check int)
        (Printf.sprintf "exactly one computation, %d jobs" jobs)
        1 !computed;
      Alcotest.(check bool) "mem after compute" true
        (Single_flight.mem table 21);
      Alcotest.(check bool) "mem on absent key" false
        (Single_flight.mem table 22);
      Alcotest.(check (float 0.0)) "computes counter" 1.0
        (Registry.get "pool.single_flight.computes");
      Alcotest.(check (float 0.0)) "hits counter"
        (float_of_int (requests - 1))
        (Registry.get "pool.single_flight.hits"))
    job_counts

let test_single_flight_failure_retries () =
  let table = Single_flight.create () in
  let attempts = ref 0 in
  let flaky key =
    incr attempts;
    if !attempts = 1 then failwith "first attempt fails" else key + 1
  in
  (try ignore (Single_flight.get table 7 flaky)
   with Failure _ -> ());
  Alcotest.(check bool) "failed key is released" false
    (Single_flight.mem table 7);
  Alcotest.(check int) "later request retries" 8
    (Single_flight.get table 7 flaky)

let test_single_flight_metric () =
  Registry.reset ();
  let table = Single_flight.create ~metric:"profile_cache" () in
  ignore (Single_flight.get table 1 Fun.id);
  ignore (Single_flight.get table 1 Fun.id);
  ignore (Single_flight.get table 1 Fun.id);
  Alcotest.(check (float 0.0)) "metric-scoped hits" 2.0
    (Registry.get "profile_cache.memo_hits")

(* ---- parallel model runs are bit-identical, tracing attached ------------- *)


let mixes =
  [|
    Mix.of_names [| "gamess"; "gamess"; "hmmer"; "soplex" |];
    Mix.of_names [| "hmmer"; "povray"; "namd"; "gromacs" |];
    Mix.of_names [| "mcf"; "lbm"; "milc"; "GemsFDTD" |];
  |]

(* Predict + simulate each mix with a per-mix trace collector, the way
   bin/mppm batches mixes; returns per-mix (predicted, measured STP,
   trace lines). *)
let compare_all map_fn =
  Suite_experiments.with_ctx @@ fun ctx ->
  map_fn
    (fun mix ->
      let obs, events = Trace.memory () in
      let predicted = Context.predict ~obs ctx ~llc_config:1 mix in
      let measured = Context.detailed ctx ~llc_config:1 mix in
      ( predicted,
        measured.Context.m_stp,
        List.map Event.to_jsonl (events ()) ))
    mixes

let test_canonical_compare_parallel_identical () =
  let seq = compare_all Array.map in
  List.iter
    (fun jobs ->
      let par =
        Pool.with_pool ~jobs (fun pool -> compare_all (Pool.map pool))
      in
      Array.iteri
        (fun i (p_seq, m_seq, t_seq) ->
          let p_par, m_par, t_par = par.(i) in
          Alcotest.(check bool)
            (Printf.sprintf "mix %d predicted bit-identical, %d jobs" i jobs)
            true (p_seq = p_par);
          Alcotest.(check (float 0.0))
            (Printf.sprintf "mix %d measured STP, %d jobs" i jobs)
            m_seq m_par;
          Alcotest.(check (list string))
            (Printf.sprintf "mix %d trace bit-identical, %d jobs" i jobs)
            t_seq t_par)
        seq)
    [ 2; 4 ]

let tests =
  [
    ( "pool",
      [
        Alcotest.test_case "map matches sequential (qcheck)" `Quick
          test_map_matches_sequential;
        Alcotest.test_case "map_reduce matches sequential fold" `Quick
          test_map_reduce_matches_fold;
        Alcotest.test_case "empty input and pool reuse" `Quick
          test_empty_and_reuse;
        Alcotest.test_case "invalid job count rejected" `Quick
          test_invalid_jobs;
        Alcotest.test_case "map after shutdown rejected" `Quick
          test_shutdown_rejects_map;
        Alcotest.test_case "lowest-index error wins" `Quick
          test_lowest_index_error;
        Alcotest.test_case "on_done is serialized and monotonic" `Quick
          test_on_done_serialized;
        Alcotest.test_case "registry counters" `Quick test_pool_counters;
        Alcotest.test_case "profiled map bit-identical, tasks recorded" `Quick
          test_prof_attached_identical;
        Alcotest.test_case "null profiler records nothing" `Quick
          test_prof_null_pool_records_nothing;
      ] );
    ( "single-flight",
      [
        Alcotest.test_case "concurrent requests compute once" `Quick
          test_single_flight_once;
        Alcotest.test_case "failed compute releases the key" `Quick
          test_single_flight_failure_retries;
        Alcotest.test_case "metric-scoped hit counter" `Quick
          test_single_flight_metric;
      ] );
    ( "pool-model",
      [
        Alcotest.test_case "traced compare bit-identical across jobs" `Slow
          test_canonical_compare_parallel_identical;
      ] );
  ]
