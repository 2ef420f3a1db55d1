module Profile = Mppm_profile.Profile
module Contention = Mppm_contention.Contention
module Sdc = Mppm_cache.Sdc

type params = {
  contention : Contention.model;
  max_iterations : int;
  tolerance : float;
  damping : float;
}

let default_params =
  {
    contention = Contention.default;
    max_iterations = 100;
    tolerance = 1e-6;
    damping = 0.3;
  }

type aggregate = {
  label : string;
  cpi : float;
  sdc : Sdc.t;  (** whole-trace SDC *)
  trace_instructions : float;
  miss_penalty : float;  (** aggregate cycles per LLC miss *)
}

let aggregate_of_profile profile =
  {
    label = profile.Profile.benchmark;
    cpi = Profile.cpi profile;
    sdc = (Profile.totals profile).Profile.sdc;
    trace_instructions = float_of_int (Profile.total_instructions profile);
    miss_penalty = Profile.miss_penalty profile;
  }

let validate params profiles =
  if Array.length profiles = 0 then invalid_arg "Static_model.predict: no programs";
  if params.max_iterations <= 0 then
    invalid_arg "Static_model.predict: max_iterations <= 0";
  if not (params.damping >= 0.0 && params.damping < 1.0) then
    invalid_arg "Static_model.predict: damping must be in [0, 1)";
  let assoc = profiles.(0).Profile.llc_assoc in
  Array.iter
    (fun p ->
      if p.Profile.llc_assoc <> assoc then
        invalid_arg "Static_model.predict: profiles at different associativities")
    profiles

let predict params profiles =
  validate params profiles;
  let aggregates = Array.map aggregate_of_profile profiles in
  let n = Array.length aggregates in
  let r = Array.make n 1.0 in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < params.max_iterations do
    incr iterations;
    (* A common time window: the slowest program runs its whole trace. *)
    let window_cycles =
      Array.to_list aggregates
      |> List.mapi (fun i a -> a.cpi *. r.(i) *. a.trace_instructions)
      |> List.fold_left Float.max 0.0
    in
    let instructions =
      Array.mapi (fun i a -> window_cycles /. (a.cpi *. r.(i))) aggregates
    in
    let sdcs =
      Array.mapi
        (fun i a -> Sdc.scale a.sdc (instructions.(i) /. a.trace_instructions))
        aggregates
    in
    let contention = Contention.predict params.contention sdcs in
    let max_delta = ref 0.0 in
    Array.iteri
      (fun i a ->
        let miss_cycles =
          contention.Contention.extra_misses.(i) *. a.miss_penalty
        in
        let isolated_cycles = a.cpi *. instructions.(i) in
        let target = 1.0 +. (miss_cycles /. isolated_cycles) in
        let updated =
          (params.damping *. r.(i)) +. ((1.0 -. params.damping) *. target)
        in
        max_delta := Float.max !max_delta (abs_float (updated -. r.(i)));
        r.(i) <- updated)
      aggregates;
    if !max_delta < params.tolerance then converged := true
  done;
  let programs =
    Array.mapi
      (fun i a ->
        {
          Model.name = a.label;
          slowdown = r.(i);
          cpi_single = a.cpi;
          cpi_multi = a.cpi *. r.(i);
          instructions_modelled = a.trace_instructions;
        })
      aggregates
  in
  {
    Model.programs;
    stp = Metrics.stp_of_slowdowns r;
    antt = Metrics.antt_of_slowdowns r;
    iterations = !iterations;
  }
