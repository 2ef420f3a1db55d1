(* fig4-quick and partition-bw: seeded mix populations through the
   detailed multi-core simulator (Context.detailed / Multi_core.run) and
   MPPM (Context.predict / Model), one task per mix on the two-domain
   pool, largest mixes first so both domains stay busy to the end.

   The population is fixed by the seed and re-run in at least three
   passes, more while the measurement budget lasts; every pass must
   reproduce the first bit for bit.  Each mix, and the pool as a whole,
   counts with the lower quartile of its passes (Run.lower_quartile). *)

module Pool = Mppm_pool.Pool
module Rng = Mppm_util.Rng
module Stats = Mppm_util.Stats
module Mix = Mppm_workload.Mix
module Sampler = Mppm_workload.Sampler
module Context = Mppm_experiments.Context
module Multi_core = Mppm_multicore.Multi_core
module Model = Mppm_core.Model
module Metrics = Mppm_core.Metrics
module Profile = Mppm_profile.Profile
module Contention = Mppm_contention.Contention
module Suite = Mppm_trace.Suite

type kind =
  | Shared of int  (* the paper's fully shared LRU LLC, Table 2 config *)
  | Partitioned  (* config 1 way-partitioned by [quotas] *)
  | Bandwidth  (* config 1 behind one shared memory channel *)

type job = { kind : kind; mix : Mix.t }

type outcome = {
  fingerprint : string;  (* the simulated statistics, bit for bit *)
  m_stp : float;
  m_antt : float;
  m_slowdowns : float array;
  p_stp : float;
  p_antt : float;
  p_slowdowns : float array;
  retired : int;  (* instructions the simulator retired, re-iterations included *)
  start : float;
  sim_stop : float;
  stop : float;
  lane : int;
}

(* Deliberately asymmetric, as in bench/main.exe's partition section. *)
let quotas = [| 4; 2; 1; 1 |]

(* bench/main.exe's bandwidth section: the queueing term's exposure. *)
let exposed_fraction = 0.35

let fingerprint (d : Multi_core.result) =
  Run.digest_of
    (Array.to_list
       (Array.map
          (fun (p : Multi_core.program_result) ->
            Printf.sprintf "%s %d %d %d" (Run.float_bits p.cycles)
              p.llc_accesses p.llc_misses p.total_retired)
          d.programs))

let bandwidth_detailed ctx ~bw_profiles mix =
  let offsets = Multi_core.default_offsets ~seed:(Context.seed ctx) 16 in
  let indices = Mix.indices mix in
  let programs =
    Array.mapi
      (fun slot i ->
        let benchmark = Suite.all.(i) in
        {
          Multi_core.benchmark;
          seed = Suite.seed_for benchmark.Mppm_trace.Benchmark.name;
          offset = offsets.(slot);
        })
      indices
  in
  let detail =
    Multi_core.run
      (Multi_core.config ~bandwidth:Setup.transfer_cycles
         (Context.hierarchy ctx ~llc_config:1))
      ~programs
      ~trace_instructions:
        (Context.scale ctx).Mppm_experiments.Scale.trace_instructions
  in
  let cpi_single = Array.map (fun i -> Profile.cpi bw_profiles.(i)) indices in
  (detail, cpi_single)

(* One pool task: a pure function of the job (lint rule S6); it returns
   its own timings for the submitting domain to record. *)
let run_job ctx ~bw_profiles job =
  let start = Run.now () in
  let detail, cpi_single =
    match job.kind with
    | Shared llc_config ->
        let m = Context.detailed ctx ~llc_config job.mix in
        (m.Context.m_detail, m.Context.m_cpi_single)
    | Partitioned ->
        let m = Context.detailed ~llc_partition:quotas ctx ~llc_config:1 job.mix in
        (m.Context.m_detail, m.Context.m_cpi_single)
    | Bandwidth -> bandwidth_detailed ctx ~bw_profiles job.mix
  in
  let sim_stop = Run.now () in
  let base = Context.model_params ctx in
  let predicted =
    match job.kind with
    | Shared llc_config -> Context.predict ctx ~llc_config job.mix
    | Partitioned ->
        Context.predict_with ctx
          ~params:
            {
              base with
              Model.contention =
                Contention.Way_partition (Array.map float_of_int quotas);
            }
          ~llc_config:1 job.mix
    | Bandwidth ->
        Model.predict_profiles
          {
            base with
            Model.bandwidth =
              Some
                { Model.transfer_cycles = Setup.transfer_cycles; exposed_fraction };
          }
          (Array.map (fun i -> bw_profiles.(i)) (Mix.indices job.mix))
  in
  let cpi_multi =
    Array.map (fun p -> p.Multi_core.multicore_cpi) detail.Multi_core.programs
  in
  {
    fingerprint = fingerprint detail;
    m_stp = Metrics.stp ~cpi_single ~cpi_multi;
    m_antt = Metrics.antt ~cpi_single ~cpi_multi;
    m_slowdowns = Metrics.slowdowns ~cpi_single ~cpi_multi;
    p_stp = predicted.Model.stp;
    p_antt = predicted.Model.antt;
    p_slowdowns = Array.map (fun p -> p.Model.slowdown) predicted.Model.programs;
    retired =
      Array.fold_left
        (fun acc p -> acc + p.Multi_core.total_retired)
        0 detail.Multi_core.programs;
    start;
    sim_stop;
    stop = Run.now ();
    lane = (Domain.self () :> int);
  }

(* ---- populations ---------------------------------------------------- *)

(* (kind, cores, count) groups.  Program slots are filled from seeded
   permutations of the suite laid end to end, so every benchmark occurs
   equally often (to within one) and the population's simulation cost
   barely depends on the seed; which benchmarks share a mix does. *)
let population ~seed groups =
  let rng = Rng.create ~seed in
  let perm = Array.init Suite.count Fun.id and used = ref Suite.count in
  let next () =
    if !used = Suite.count then begin
      Rng.shuffle_in_place rng perm;
      used := 0
    end;
    incr used;
    perm.(!used - 1)
  in
  let jobs =
    List.concat_map
      (fun (kind, cores, count) ->
        List.init count (fun _ ->
            { kind; mix = Mix.of_indices ~n:Suite.count (Array.init cores (fun _ -> next ())) }))
      groups
  in
  (* Largest first; stable, so the order is a function of the seed. *)
  Array.of_list
    (List.stable_sort
       (fun a b -> compare (Mix.size b.mix) (Mix.size a.mix))
       jobs)

(* No 16-program mix: one takes 5 s at this scale and would carry half of
   a pass's work, so the seed's choice of its 16 benchmarks would move the
   pass's cost by more than the bounds allow. *)
let fig4_groups smoke =
  let n k = if smoke then 2 else k in
  [ (Shared 1, 8, n 2); (Shared 1, 4, n 6); (Shared 1, 2, n 8) ]

let partition_groups smoke =
  let n k = if smoke then 2 else k in
  [ (Partitioned, 4, n 6); (Bandwidth, 4, n 5) ]

(* ---- checks --------------------------------------------------------- *)

(* Bounds every correct simulation and prediction satisfies: STP of n
   programs lies in (0, n] and ANTT is at least 1, up to the few-percent
   speed-ups LRU interleaving can give a program. *)
let sane cores (o : outcome) =
  let n = float_of_int cores in
  let ok_stp x = Float.is_finite x && x > 0.0 && x <= n *. 1.05 in
  let ok_antt x = Float.is_finite x && x >= 0.95 in
  ok_stp o.m_stp && ok_stp o.p_stp && ok_antt o.m_antt && ok_antt o.p_antt
  && o.retired > 0

let same a b =
  String.equal a.fingerprint b.fingerprint
  && Float.equal a.p_stp b.p_stp
  && Float.equal a.p_antt b.p_antt

let expected_row i job o =
  [ string_of_int i; Mix.to_string job.mix; o.fingerprint;
    Json.number o.p_stp; Json.number o.p_antt ]

let matches_row job o = function
  | [ _; mix; fp; stp; antt ] -> (
      match (float_of_string_opt stp, float_of_string_opt antt) with
      | Some stp, Some antt ->
          String.equal mix (Mix.to_string job.mix)
          && String.equal fp o.fingerprint
          && Run.rel_close stp o.p_stp && Run.rel_close antt o.p_antt
      | _ -> false)
  | _ -> false

(* ---- accuracy ------------------------------------------------------- *)

let mean_err pairs =
  100.0
  *. Stats.mean_relative_error
       ~predicted:(Array.map fst pairs) ~measured:(Array.map snd pairs)

(* MPPM against detailed simulation, in percent: the accuracy that sits
   next to every timing (model.*_err_pct). *)
let accuracy (outcomes : outcome array) =
  let slowdowns =
    Array.concat
      (Array.to_list
         (Array.map
            (fun o ->
              Array.mapi (fun i p -> (p, o.m_slowdowns.(i))) o.p_slowdowns)
            outcomes))
  in
  [
    ("model.stp_err_pct", mean_err (Array.map (fun o -> (o.p_stp, o.m_stp)) outcomes));
    ("model.antt_err_pct", mean_err (Array.map (fun o -> (o.p_antt, o.m_antt)) outcomes));
    ("model.slowdown_err_pct", mean_err slowdowns);
  ]

(* Accuracy on a few 4-core mixes for workloads that run no detailed
   simulation themselves (rank-500, serve-predict); traced runs
   only. *)
let sampled_accuracy ctx mixes =
  let jobs = Array.map (fun mix -> { kind = Shared 1; mix }) mixes in
  Run.with_pool (fun pool ->
      accuracy (Pool.map pool (run_job ctx ~bw_profiles:[||]) jobs))

(* ---- the workload --------------------------------------------------- *)

let record_spans spans ~pass_start ~pass_stop (outcomes : outcome array) =
  let parent = Spans.add spans "pass" ~start:pass_start ~stop:pass_stop in
  Array.iteri
    (fun key o ->
      let mix =
        Spans.add spans ~parent ~key ~lane:o.lane "mix" ~start:o.start
          ~stop:o.stop
      in
      ignore
        (Spans.add spans ~parent:mix ~key ~lane:o.lane "multi_core.run"
           ~start:o.start ~stop:o.sim_stop);
      ignore
        (Spans.add spans ~parent:mix ~key ~lane:o.lane "context.predict"
           ~start:o.sim_stop ~stop:o.stop))
    outcomes

let run ~workload (o : Run.options) spans =
  Run.with_pool @@ fun pool ->
  let partition = String.equal workload "partition-bw" in
  let groups = if partition then partition_groups o.smoke else fig4_groups o.smoke in
  let jobs = population ~seed:o.seed groups in
  (* Set-up: three cold profile sets. *)
  let ctx = Setup.fresh_context o "profiles" in
  let repeat = Setup.repeat_set spans pool o ~name:"repeat1" ~llc_config:1 in
  let cfg1 = Setup.context_set spans pool ctx ~llc_config:1 in
  let bw_profiles, third =
    if partition then Setup.bandwidth_set spans pool ~scale:(Run.scale o)
    else ([||], Setup.repeat_set spans pool o ~name:"repeat2" ~llc_config:1)
  in
  let setup = [| repeat; cfg1; third |] in
  (* Measurement: passes over the population until the budget is spent. *)
  let task = run_job ctx ~bw_profiles in
  let passes =
    Run.repeat ~seconds:o.seconds (fun () ->
        let pass_start = Run.now () in
        let outcomes = Pool.map pool task jobs in
        record_spans spans ~pass_start ~pass_stop:(Run.now ()) outcomes;
        outcomes)
  in
  let first = snd (List.hd passes) in
  (* Checks: one attempt per mix per pass. *)
  let checks = Run.checks () in
  let expected = if o.smoke then None else Expected.load ~workload ~seed:o.seed in
  (match expected with
  | Some rows when List.length rows <> Array.length jobs ->
      Run.check checks false "%s: expected file has %d rows for %d mixes"
        workload (List.length rows) (Array.length jobs)
  | _ -> ());
  List.iteri
    (fun k (_, outcomes) ->
      Array.iteri
        (fun i out ->
          let job = jobs.(i) in
          let vs_expected =
            match expected with
            | Some rows when i < List.length rows ->
                matches_row job out (List.nth rows i)
            | _ -> true
          in
          Run.check checks
            (sane (Mix.size job.mix) out && same out first.(i) && vs_expected)
            "%s pass %d mix %d (%s): fingerprint %s STP %.6f/%.6f ANTT %.6f/%.6f"
            workload (k + 1) i (Mix.to_string job.mix) out.fingerprint
            out.p_stp out.m_stp out.p_antt out.m_antt)
        outcomes)
    passes;
  let all = Array.concat (List.map snd passes) in
  let wall = List.fold_left (fun acc (d, _) -> acc +. d) 0.0 passes in
  let pass_wall = Run.lower_quartile (Array.of_list (List.map fst passes)) in
  let retired = Array.fold_left (fun acc o -> acc + o.retired) 0 first in
  (* Each mix's passes summarised, then summed: host time per simulated
     instruction on one domain. *)
  let task_time =
    Array.fold_left ( +. ) 0.0
      (Array.mapi
         (fun i _ ->
           Run.lower_quartile
             (Array.of_list
                (List.map (fun (_, outs) -> outs.(i).stop -. outs.(i).start) passes)))
         jobs)
  in
  let summed f = Array.fold_left (fun acc o -> acc +. f o) 0.0 all in
  let busy = summed (fun o -> o.stop -. o.start) in
  let setup_total = Array.fold_left ( +. ) 0.0 setup in
  {
    Run.end_to_end =
      [
        ("setup_s", Stats.median setup);
        ("throughput", float_of_int retired /. pass_wall);
        ("latency_ms", task_time *. 1e9 /. float_of_int retired);
        ("peak_rss_mb", Run.peak_rss_mb 0);
      ];
    layers =
      accuracy first
      @ [ ("run.setup_share", setup_total /. (setup_total +. wall)) ];
    checks;
    digest =
      Run.digest_of
        (Array.to_list
           (Array.map
              (fun o ->
                o.fingerprint ^ Run.float_bits o.p_stp ^ Run.float_bits o.p_antt)
              first));
    details =
      [
        ("passes", float_of_int (List.length passes));
        ("mixes_per_pass", float_of_int (Array.length jobs));
        ("measure_s", wall);
        ("share.multi_core", summed (fun o -> o.sim_stop -. o.start) /. busy);
        ("share.model", summed (fun o -> o.stop -. o.sim_stop) /. busy);
        ("pool.busy_share", busy /. (wall *. float_of_int Run.jobs));
      ];
    expected_rows = Array.to_list (Array.mapi (fun i j -> expected_row i j first.(i)) jobs);
    ctx;
    mixes = Array.map (fun j -> j.mix) jobs;
  }
