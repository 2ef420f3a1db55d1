(* Cold profile-set builds: the set-up of every in-process workload.

   A set is the suite's 29 single-core profiles for one hierarchy, built
   on the two-domain pool from an empty cache directory.  setup_s is the
   median wall time of one set; a workload that needs fewer than three
   sets builds its first one again in a throwaway context, so the median
   always has three or more samples. *)

module Pool = Mppm_pool.Pool
module Suite = Mppm_trace.Suite
module Context = Mppm_experiments.Context
module Single_core = Mppm_simcore.Single_core

type timed = { start : float; stop : float; lane : int }

let timed f =
  let start = Run.now () in
  let v = f () in
  (v, { start; stop = Run.now (); lane = (Domain.self () :> int) })

(* One profile through the context's memo and cache directory, exactly as
   Context.all_profiles builds it. *)
let context_profile ctx ~llc_config i =
  snd (timed (fun () -> ignore (Context.profile ctx ~llc_config i)))

(* Memory-channel profiles (private 16-cycle channel) are not cached by
   Context; partition-bw keeps them in an array. *)
let transfer_cycles = 16.0

let bandwidth_profile ~scale i =
  timed (fun () ->
      let benchmark = Suite.all.(i) in
      Single_core.profile
        (Single_core.config ~bandwidth:transfer_cycles
           (Mppm_cache.Configs.baseline ~llc:1 ()))
        ~benchmark
        ~seed:(Suite.seed_for benchmark.Mppm_trace.Benchmark.name)
        ~trace_instructions:scale.Mppm_experiments.Scale.trace_instructions
        ~interval_instructions:
          scale.Mppm_experiments.Scale.interval_instructions)

let suite_indices = Array.init Suite.count Fun.id

(* Records the set as a "setup.<label>" span with one child span per
   profile, and returns its wall time. *)
let record spans label ~start ~stop (profiles : timed array) =
  let parent = Spans.add spans ("setup." ^ label) ~start ~stop in
  Array.iteri
    (fun i (t : timed) ->
      ignore
        (Spans.add spans ~parent ~key:i ~lane:t.lane "single_core.profile"
           ~start:t.start ~stop:t.stop))
    profiles;
  stop -. start

let context_set spans pool ctx ~llc_config =
  let start = Run.now () in
  let profiles = Pool.map pool (context_profile ctx ~llc_config) suite_indices in
  record spans (Printf.sprintf "cfg%d" llc_config) ~start ~stop:(Run.now ())
    profiles

let bandwidth_set spans pool ~scale =
  let start = Run.now () in
  let built = Pool.map pool (bandwidth_profile ~scale) suite_indices in
  let wall =
    record spans "bandwidth" ~start ~stop:(Run.now ()) (Array.map snd built)
  in
  (Array.map fst built, wall)

(* A context on a fresh, empty cache directory under the run's scratch
   directory. *)
let fresh_context (o : Run.options) name =
  let dir = Filename.concat o.Run.tmp name in
  Run.mkdir_p dir;
  Context.create ~seed:o.Run.seed ~cache_dir:dir (Run.scale o)

(* A throwaway repeat of a workload's first set (see the header), in its
   own context and empty directory [name]. *)
let repeat_set spans pool o ~name ~llc_config =
  context_set spans pool (fresh_context o name) ~llc_config
