module Suite = Mppm_trace.Suite
module Single_core = Mppm_simcore.Single_core
module Sampler = Mppm_workload.Sampler

type t = {
  profile_seconds : float;
  one_time_cost_seconds : float;
  detailed_seconds_per_mix : (int * float) list;
  mppm_seconds_per_mix : float;
  speedup_model_only : (int * float) list;
  speedup_study_150 : (int * float) list;
}

(* Sample sizes: the core counts, the detailed simulations timed per core
   count, and the MPPM predictions timed. *)
let cores_list = [ 2; 4; 8 ]
let sim_mixes = 3
let model_mixes = 50

let measure ctx ~clock =
  (* Timings are reported, never fed back into model state. *)
  let time f =
    let t0 = clock () in
    let result = f () in
    (clock () -. t0, result)
  in
  let rng = Context.rng ctx "speed" in
  let scale = Context.scale ctx in
  (* Fresh profiling run (bypasses the context cache deliberately). *)
  let profile_seconds, _ =
    time (fun () ->
        Single_core.profile
          (Single_core.config (Context.hierarchy ctx ~llc_config:1))
          ~benchmark:(Suite.find "soplex")
          ~seed:(Suite.seed_for "soplex")
          ~trace_instructions:scale.Scale.trace_instructions
          ~interval_instructions:scale.Scale.interval_instructions)
  in
  let one_time_cost_seconds = profile_seconds *. float_of_int Suite.count in
  let detailed_seconds_per_mix =
    List.map
      (fun cores ->
        let mixes = Sampler.random_mixes rng ~cores ~count:sim_mixes in
        let seconds, _ =
          time (fun () ->
              Array.iter
                (fun mix -> ignore (Context.detailed ctx ~llc_config:1 mix))
                mixes)
        in
        (cores, seconds /. float_of_int sim_mixes))
      cores_list
  in
  (* Warm the profile cache before timing the model alone. *)
  ignore (Context.all_profiles ctx ~llc_config:1);
  let model_mix_set = Sampler.random_mixes rng ~cores:4 ~count:model_mixes in
  let model_seconds, _ =
    time (fun () ->
        Array.iter
          (fun mix -> ignore (Context.predict ctx ~llc_config:1 mix))
          model_mix_set)
  in
  let mppm_seconds_per_mix = model_seconds /. float_of_int model_mixes in
  let speedup_model_only =
    List.map
      (fun (cores, s) -> (cores, s /. mppm_seconds_per_mix))
      detailed_seconds_per_mix
  in
  let speedup_study_150 =
    List.map
      (fun (cores, s) ->
        let detailed_study = 150.0 *. s in
        let mppm_study =
          one_time_cost_seconds +. (150.0 *. mppm_seconds_per_mix)
        in
        (cores, detailed_study /. mppm_study))
      detailed_seconds_per_mix
  in
  {
    profile_seconds;
    one_time_cost_seconds;
    detailed_seconds_per_mix;
    mppm_seconds_per_mix;
    speedup_model_only;
    speedup_study_150;
  }

let pp ppf t =
  Format.fprintf ppf "single-core profiling: %.2fs per benchmark (one-time %.1fs for the suite)@."
    t.profile_seconds t.one_time_cost_seconds;
  Format.fprintf ppf "MPPM prediction: %.4fs per mix@." t.mppm_seconds_per_mix;
  List.iter
    (fun (cores, s) ->
      let model_only = List.assoc cores t.speedup_model_only in
      let study = List.assoc cores t.speedup_study_150 in
      Format.fprintf ppf
        "%2d cores: detailed %.2fs/mix; MPPM speedup %.0fx (model only), \
         %.1fx (150-mix study incl. one-time profiling)@."
        cores s model_only study)
    t.detailed_seconds_per_mix
