(* rank-500: the Fig. 7 ranking by MPPM over a sampled population, through
   the same Dispatch.rank_configs the rank request runs, at the CLI's
   default size — 500 four-program mixes predicted on each of the six
   Table 2 configs, 3000 predictions on one domain per call.  The call
   repeats while the budget lasts (at least three times) and the lower
   quartile of its durations counts.  Set-up is a cold build of all 174 profiles, one config at a
   time. *)

module Dispatch = Mppm_serve.Dispatch
module Context = Mppm_experiments.Context
module Sampler = Mppm_workload.Sampler
module Configs = Mppm_cache.Configs

let cores = 4
let count o = if o.Run.smoke then 20 else 500

let expected_rows ranking =
  Array.to_list
    (Array.mapi
       (fun rank (cfg, mean) ->
         [ string_of_int (rank + 1); string_of_int cfg; Json.number mean ])
       ranking)

let matches_row (cfg, mean) = function
  | [ _; c; m ] -> (
      match (int_of_string_opt c, float_of_string_opt m) with
      | Some c, Some m -> c = cfg && Run.rel_close m mean
      | _ -> false)
  | _ -> false

let run (o : Run.options) spans =
  let ctx = Setup.fresh_context o "profiles" in
  let setup =
    Run.with_pool (fun pool ->
        Array.init Configs.llc_config_count (fun i ->
            Setup.context_set spans pool ctx ~llc_config:(i + 1)))
  in
  (* Measured with no pool alive, as the CLI's rank runs. *)
  let count = count o in
  let calls =
    Run.repeat ~seconds:o.seconds (fun () ->
        Spans.within spans "dispatch.rank_configs" (fun _ ->
            Dispatch.rank_configs ctx ~cores ~count))
  in
  let first = snd (List.hd calls) in
  (* Checks: each config's mean STP is one attempt. *)
  let checks = Run.checks () in
  let expected = if o.smoke then None else Expected.load ~workload:"rank-500" ~seed:o.seed in
  List.iteri
    (fun k (_, ranking) ->
      Array.iteri
        (fun rank ((cfg, mean) as entry) ->
          let sorted = rank = 0 || snd ranking.(rank - 1) >= mean in
          let vs_expected =
            match expected with
            | Some rows -> (
                match List.nth_opt rows rank with
                | Some row -> matches_row entry row
                | None -> false)
            | None -> true
          in
          Run.check checks
            (sorted && mean >= 1.0 && mean <= float_of_int cores
            && Float.equal mean (snd first.(rank))
            && cfg = fst first.(rank)
            && vs_expected)
            "rank call %d rank %d: config %d mean STP %.17g" (k + 1) (rank + 1)
            cfg mean)
        ranking)
    calls;
  let durations = Array.of_list (List.map fst calls) in
  let wall = Array.fold_left ( +. ) 0.0 durations in
  let call = Run.lower_quartile durations in
  let setup_total = Array.fold_left ( +. ) 0.0 setup in
  let sample =
    Array.sub
      (Sampler.random_mixes (Context.rng ctx "cli-rank") ~cores ~count)
      0 (min count 6)
  in
  {
    Run.end_to_end =
      [
        ("setup_s", Mppm_util.Stats.median setup);
        ("throughput", float_of_int (count * Configs.llc_config_count) /. call);
        ("latency_ms", 1e3 *. call);
        ("peak_rss_mb", Run.peak_rss_mb 0);
      ];
    layers =
      (if o.traced then Sim_load.sampled_accuracy ctx sample else [])
      @ [ ("run.setup_share", setup_total /. (setup_total +. wall)) ];
    checks;
    digest =
      Run.digest_of
        (Array.to_list
           (Array.map
              (fun (cfg, mean) -> string_of_int cfg ^ Run.float_bits mean)
              first));
    details =
      [ ("rank_calls", float_of_int (List.length calls)); ("measure_s", wall) ];
    expected_rows = expected_rows first;
    ctx;
    mixes = sample;
  }
