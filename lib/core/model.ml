module Profile = Mppm_profile.Profile
module Contention = Mppm_contention.Contention
module Sdc = Mppm_cache.Sdc
module Invariant = Mppm_util.Invariant
module Trace = Mppm_obs.Trace
module Event = Mppm_obs.Event

type update_rule = Paper_literal | Consistent

type bandwidth = { transfer_cycles : float; exposed_fraction : float }

type params = {
  iteration_instructions : int;
  smoothing : float;
  stop_trace_multiplier : float;
  contention : Contention.model;
  update_rule : update_rule;
  bandwidth : bandwidth option;
}

let default_params ~trace_instructions =
  if trace_instructions <= 0 then
    invalid_arg "Model.default_params: trace_instructions <= 0";
  {
    iteration_instructions = max 1 (trace_instructions / 5);
    smoothing = 0.5;
    stop_trace_multiplier = 5.0;
    contention = Contention.default;
    update_rule = Consistent;
    bandwidth = None;
  }

type program_input = { label : string; profile : Profile.t }

type program_output = {
  name : string;
  slowdown : float;
  cpi_single : float;
  cpi_multi : float;
  instructions_modelled : float;
}

type result = {
  programs : program_output array;
  stp : float;
  antt : float;
  iterations : int;
}

type iteration_record = {
  epoch_cycles : float;
  progress : float array;
  extra_misses : float array;
  slowdown_estimate : float array;
}

let validate params inputs =
  if params.iteration_instructions <= 0 then
    invalid_arg "Model.predict: iteration_instructions <= 0";
  if not (params.smoothing >= 0.0 && params.smoothing < 1.0) then
    invalid_arg "Model.predict: smoothing must be in [0, 1)";
  if params.stop_trace_multiplier <= 0.0 then
    invalid_arg "Model.predict: stop_trace_multiplier <= 0";
  (match params.bandwidth with
  | Some b when b.transfer_cycles <= 0.0 || b.exposed_fraction < 0.0 ->
      invalid_arg "Model.predict: malformed bandwidth parameters"
  | Some _ | None -> ());
  if Array.length inputs = 0 then invalid_arg "Model.predict: no programs";
  let assoc = inputs.(0).profile.Profile.llc_assoc in
  Array.iter
    (fun i ->
      if i.profile.Profile.llc_assoc <> assoc then
        invalid_arg "Model.predict: profiles at different LLC associativities")
    inputs

(* M/D/1 queueing wait at channel utilization [rho], capped at 0.98. *)
(* mppm: unit _ -> 1 -> cycles *)
let md1_wait b rho =
  let rho = Float.min rho 0.98 in
  b.transfer_cycles *. rho /. (2.0 *. (1.0 -. rho))

(* Programs [i..] have all executed [stop_trace_multiplier] traces. *)
(* mppm: unit _ -> ip:insns -> trace_length:insns -> _ -> _ *)
let rec stopped_from params ~ip ~trace_length i =
  i >= Array.length ip
  || (ip.(i) >= params.stop_trace_multiplier *. trace_length.(i)
     && stopped_from params ~ip ~trace_length (i + 1))

(* mppm: unit result *)
(* mppm: hot — the per-quantum convergence loop *)
let run ?(obs = Trace.null) params inputs ~record =
  validate params inputs;
  let n = Array.length inputs in
  let profiles = Array.map (fun input -> input.profile) inputs in
  let trace_length =
    Array.map (fun p -> float_of_int (Profile.total_instructions p)) profiles
  in
  (* The model prices a window that has no misses at the whole-trace
     penalty (the division in Fig. 2 needs a denominator). *)
  let fallback = Array.map Profile.miss_penalty profiles in
  (* Per-program model state: slowdown R_p and instruction pointer I_p. *)
  let r = Array.make n 1.0 and ip = Array.make n 0.0 in
  let l = float_of_int params.iteration_instructions in
  (* Per-run scratch, so the per-quantum loop allocates nothing: each
     quantum overwrites every cell it reads. *)
  let budget = Array.make n l in
  let cpi = Array.make n 0.0 and progress = Array.make n 0.0 in
  let sums = Array.init n (fun _ -> Array.make Profile.sums_length 0.0) in
  let sdcs = Array.map (fun p -> Sdc.create ~assoc:p.Profile.llc_assoc) profiles in
  let contention = Contention.make_prediction n in
  (* The bandwidth extension's conflict-miss queueing cycles; stays 0 when
     no channel model is configured. *)
  let queueing = Array.make n 0.0 and shared_total = [| 0.0 |] in
  let history = ref [] in
  let iterations = ref 0 in
  (* Virtual clock for trace timestamps: cumulative epoch cycles.  Only
     read by the observability layer; never feeds back into the model.  A
     one-cell float array rather than a ref: the cells of a float array
     are unboxed, so the per-epoch advance stores no fresh box. *)
  let clock = [| 0.0 |] in
  let observing = Trace.enabled obs in
  (* Per-epoch scratch only the trace needs; left empty when no sink is
     attached so the untraced hot loop allocates nothing extra. *)
  let obs_penalty = if observing then Array.make n 0.0 else [||] in
  let obs_miss_cycles = if observing then Array.make n 0.0 else [||] in
  let obs_r_before = if observing then Array.make n 0.0 else [||] in
  Trace.emit obs (fun () ->
      Event.make ~name:"model.start" ~time:0.0
        [
          ("programs",
           Event.List
             (Array.to_list
                (Array.map (fun input -> Event.String input.label) inputs)));
          ("iteration_instructions", Event.Int params.iteration_instructions);
          ("smoothing", Event.Float params.smoothing);
          ("stop_trace_multiplier", Event.Float params.stop_trace_multiplier);
          ("contention", Event.String (Contention.model_name params.contention));
        ]);
  (* Argmax scratch, hoisted so each epoch reuses the two cells. *)
  let slowest = ref 0 in
  let best = ref 0.0 in
  while not (stopped_from params ~ip ~trace_length 0) do
    incr iterations;
    (* Step 1: find the epoch budget C set by the slowest program. *)
    for i = 0 to n - 1 do
      Profile.fill_window_cpi profiles.(i) ~start:ip ~count:budget i
        ~sums:sums.(i);
      cpi.(i) <- sums.(i).(Profile.sum_cycles) /. sums.(i).(Profile.sum_instructions)
    done;
    (* Same value as a Float.max fold; additionally remembers which
       program set the budget (the first argmax). *)
    slowest := 0;
    best := 0.0;
    for i = 0 to n - 1 do
      let projected = cpi.(i) *. r.(i) *. l in
      if projected > !best then begin
        best := projected;
        slowest := i
      end
    done;
    let epoch_cycles = !best in
    (* Step 2: per-program progress within C cycles. *)
    for i = 0 to n - 1 do
      progress.(i) <- epoch_cycles /. (cpi.(i) *. r.(i))
    done;
    (* Step 3: window statistics over each program's actual progress. *)
    for i = 0 to n - 1 do
      Profile.fill_window profiles.(i) ~start:ip ~count:progress i
        ~sums:sums.(i) sdcs.(i)
    done;
    (* Step 4: contention model on the epoch SDCs. *)
    Contention.predict_into params.contention sdcs contention;
    (* Step 4b (extension): bandwidth queueing.  The M/D/1 wait at the
       mix's channel utilization, minus the program's own-alone wait. *)
    (match params.bandwidth with
    | None -> ()
    | Some b ->
        let shared = contention.Contention.shared_misses in
        shared_total.(0) <- 0.0;
        for i = 0 to n - 1 do
          shared_total.(0) <- shared_total.(0) +. shared.(i)
        done;
        let rho_mix = shared_total.(0) *. b.transfer_cycles /. epoch_cycles in
        for i = 0 to n - 1 do
          let w = sums.(i) in
          let alone_cycles =
            Float.max 1.0
              (w.(Profile.sum_cycles) /. w.(Profile.sum_instructions)
              *. w.(Profile.sum_instructions))
          in
          let rho_alone =
            w.(Profile.sum_llc_misses) *. b.transfer_cycles /. alone_cycles
          in
          let delta = Float.max 0.0 (md1_wait b rho_mix -. md1_wait b rho_alone) in
          queueing.(i) <- b.exposed_fraction *. delta *. shared.(i)
        done);
    (* Step 5: price the conflict misses and update the slowdowns. *)
    if observing then Array.blit r 0 obs_r_before 0 n;
    for i = 0 to n - 1 do
      let w = sums.(i) in
      let penalty =
        if w.(Profile.sum_llc_misses) > 0.0 then
          w.(Profile.sum_memory_stall_cycles) /. w.(Profile.sum_llc_misses)
        else fallback.(i)
      in
      let miss_cycles =
        (contention.Contention.extra_misses.(i) *. penalty) +. queueing.(i)
      in
      if observing then begin
        obs_penalty.(i) <- penalty;
        obs_miss_cycles.(i) <- miss_cycles
      end;
      let current =
        match params.update_rule with
        | Paper_literal -> 1.0 +. (miss_cycles /. epoch_cycles)
        | Consistent -> 1.0 +. (miss_cycles *. r.(i) /. epoch_cycles)
      in
      let previous = r.(i) in
      r.(i) <- (params.smoothing *. r.(i)) +. ((1.0 -. params.smoothing) *. current);
      if Invariant.enabled () then begin
        let label = inputs.(i).label and r_i = r.(i) in
        Invariant.checkf "model.slowdown_ge_1" (r_i >= 1.0) (fun () ->
            Printf.sprintf "%s: R_p = %g < 1" label r_i);
        Invariant.check "model.slowdown_finite" (Float.is_finite r_i);
        (* The EMA is a convex combination of the previous estimate and
           the current target, so it must stay between them. *)
        let lo = Float.min previous current
        and hi = Float.max previous current in
        let eps = 1e-12 *. Float.max 1.0 hi in
        Invariant.checkf "model.ema_bounded"
          (r_i >= lo -. eps && r_i <= hi +. eps)
          (fun () ->
            Printf.sprintf "%s: R_p = %g outside [%g, %g]" label r_i lo hi)
      end;
      ip.(i) <- ip.(i) +. progress.(i)
    done;
    if Invariant.enabled () then
      Invariant.check "model.epoch_positive"
        (Float.is_finite epoch_cycles && epoch_cycles > 0.0);
    if observing then begin
      let floats a = Event.List (Array.to_list (Array.map (fun x -> Event.Float x) a)) in
      let iter = !iterations in
      let time = clock.(0) in
      Trace.emit obs (fun () ->
          Event.make ~name:"model.quantum" ~time ~dur:epoch_cycles
            [
              ("iter", Event.Int iter);
              ("slowest", Event.Int !slowest);
              ("budget_cycles", Event.Float epoch_cycles);
              ("progress", floats progress);
              ("sdc_mass", floats (Array.map Sdc.accesses sdcs));
              ("extra_misses", floats contention.Contention.extra_misses);
              ("miss_penalty", floats obs_penalty);
              ("penalty_cycles", floats obs_miss_cycles);
              ("r_before", floats obs_r_before);
              ("r_after", floats r);
            ]);
      let max_delta = ref 0.0 and r_sum = ref 0.0 in
      Array.iteri
        (fun i r_i ->
          let d = Float.abs (r_i -. obs_r_before.(i)) in
          if d > !max_delta then max_delta := d;
          r_sum := !r_sum +. r_i)
        r;
      let max_delta = !max_delta and mean_r = !r_sum /. float_of_int n in
      Trace.emit obs (fun () ->
          Event.make ~name:"model.convergence" ~time:(time +. epoch_cycles)
            [
              ("iter", Event.Int iter);
              ("max_delta_r", Event.Float max_delta);
              ("mean_r", Event.Float mean_r);
            ])
    end;
    clock.(0) <- clock.(0) +. epoch_cycles;
    (* mppm: cold — history recording is opt-in: predict runs with ~record:false *)
    if record then
      history :=
        {
          epoch_cycles;
          progress = Array.copy progress;
          extra_misses = Array.copy contention.Contention.extra_misses;
          slowdown_estimate = Array.copy r;
        }
        :: !history
  done;
  let programs =
    Array.mapi
      (fun i input ->
        let cpi_single = Profile.cpi input.profile in
        {
          name = input.label;
          slowdown = r.(i);
          cpi_single;
          cpi_multi = cpi_single *. r.(i);
          instructions_modelled = ip.(i);
        })
      inputs
  in
  let slowdowns = Array.map (fun p -> p.slowdown) programs in
  let result =
    {
      programs;
      stp = Metrics.stp_of_slowdowns slowdowns;
      antt = Metrics.antt_of_slowdowns slowdowns;
      iterations = !iterations;
    }
  in
  Trace.emit obs (fun () ->
      Event.make ~name:"model.result" ~time:clock.(0)
        [
          ("iterations", Event.Int result.iterations);
          ("stp", Event.Float result.stp);
          ("antt", Event.Float result.antt);
          ("slowdowns",
           Event.List
             (Array.to_list (Array.map (fun s -> Event.Float s) slowdowns)));
        ]);
  (result, List.rev !history)

let predict ?obs params inputs = fst (run ?obs params inputs ~record:false)

let predict_profiles ?obs params profiles =
  predict ?obs params
    (Array.map
       (fun profile -> { label = profile.Profile.benchmark; profile })
       profiles)

let predict_with_history ?obs params inputs = run ?obs params inputs ~record:true
