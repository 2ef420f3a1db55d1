module Profile = Mppm_profile.Profile
module Contention = Mppm_contention.Contention
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

(* Mutable per-program model state. *)
type state = {
  input : program_input;
  trace_length : float;
  mutable r : float;  (* slowdown R_p *)
  mutable ip : float;  (* instruction pointer I_p *)
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

(* Average LLC miss penalty over a window: cycles lost to LLC misses per
   miss.  Falls back to the whole-trace average when the window has no
   misses (the division in Fig. 2 needs a denominator). *)
(* mppm: unit _ -> _ -> cycles/accesses *)
let miss_penalty profile (w : Profile.window) =
  if w.Profile.w_llc_misses > 0.0 then
    w.Profile.w_memory_stall_cycles /. w.Profile.w_llc_misses
  else
    let total_misses =
      Array.fold_left
        (fun acc iv -> acc +. iv.Profile.llc_misses)
        0.0 profile.Profile.intervals
    in
    if total_misses > 0.0 then
      Array.fold_left
        (fun acc iv -> acc +. iv.Profile.memory_stall_cycles)
        0.0 profile.Profile.intervals
      /. total_misses
    else 0.0

(* mppm: unit result *)
(* mppm: hot — the per-quantum convergence loop *)
let run ?(obs = Trace.null) params inputs ~record =
  validate params inputs;
  let states =
    Array.map
      (fun input ->
        {
          input;
          trace_length =
            float_of_int (Profile.total_instructions input.profile);
          r = 1.0;
          ip = 0.0;
        })
      inputs
  in
  let n = Array.length states in
  let l = float_of_int params.iteration_instructions in
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
                (Array.map (fun st -> Event.String st.input.label) states)));
          ("iteration_instructions", Event.Int params.iteration_instructions);
          ("smoothing", Event.Float params.smoothing);
          ("stop_trace_multiplier", Event.Float params.stop_trace_multiplier);
          ("contention", Event.String (Contention.model_name params.contention));
        ]);
  (* The stop predicate is hoisted out of [stop_reached] so the per-epoch
     test allocates no closure: it is built once, before the loop. *)
  let stop_pred st = st.ip >= params.stop_trace_multiplier *. st.trace_length in
  let stop_reached () = Array.for_all stop_pred states in
  (* Argmax scratch, likewise hoisted so each epoch reuses the two cells. *)
  let slowest = ref 0 in
  let best = ref 0.0 in
  while not (stop_reached ()) do
    incr iterations;
    (* Step 1: find the epoch budget C set by the slowest program. *)
    let window_l =
      Array.map (* lint: allow P1 per-epoch window vector: n entries per quantum, each already a fresh Profile.window record *)
        (fun st -> Profile.window st.input.profile ~start:st.ip ~count:l)
        states
    in
    (* Same value as a Float.max fold; additionally remembers which
       program set the budget (the first argmax). *)
    slowest := 0;
    best := 0.0;
    for i = 0 to n - 1 do
      let projected = Profile.window_cpi window_l.(i) *. states.(i).r *. l in
      if projected > !best then begin
        best := projected;
        slowest := i
      end
    done;
    let epoch_cycles = !best in
    (* Step 2: per-program progress within C cycles. *)
    let progress =
      Array.mapi (* lint: allow P1 per-epoch progress vector: n floats per quantum, read by the next two steps *)
        (fun i st ->
          let cpi = Profile.window_cpi window_l.(i) in
          epoch_cycles /. (cpi *. st.r))
        states
    in
    (* Step 3: window statistics over each program's actual progress. *)
    let windows =
      Array.mapi (* lint: allow P1 per-epoch window vector: n entries per quantum, each already a fresh Profile.window record *)
        (fun i st ->
          Profile.window st.input.profile ~start:st.ip ~count:progress.(i))
        states
    in
    (* Step 4: contention model on the epoch SDCs. *)
    (* lint: allow P1 per-epoch SDC vector: Contention.predict takes the mix's SDCs as one array *)
    let sdcs = Array.map (fun w -> w.Profile.w_sdc) windows in
    let contention = Contention.predict params.contention sdcs in
    (* Step 4b (extension): bandwidth queueing.  The M/D/1 wait at the
       mix's channel utilization, minus the program's own-alone wait. *)
    let queueing_extra =
      match params.bandwidth with
      | None -> fun _ -> 0.0
      | Some b ->
          (* lint: allow P1 bandwidth-extension closures; built only when a channel model is configured *)
          let wait rho =
            let rho = Float.min rho 0.98 in
            b.transfer_cycles *. rho /. (2.0 *. (1.0 -. rho))
          in
          let total_shared =
            Array.fold_left ( +. ) 0.0 contention.Contention.shared_misses
          in
          let rho_mix = total_shared *. b.transfer_cycles /. epoch_cycles in
          (* lint: allow P1 bandwidth-extension closure; see above *)
          fun i ->
            let w = windows.(i) in
            let alone_cycles =
              Float.max 1.0 (Profile.window_cpi w *. w.Profile.w_instructions)
            in
            let rho_alone =
              w.Profile.w_llc_misses *. b.transfer_cycles /. alone_cycles
            in
            let delta = Float.max 0.0 (wait rho_mix -. wait rho_alone) in
            b.exposed_fraction *. delta
            *. contention.Contention.shared_misses.(i)
    in
    (* Step 5: price the conflict misses and update the slowdowns. *)
    if observing then
      Array.iteri (fun i st -> obs_r_before.(i) <- st.r) states;
    Array.iteri (* lint: allow P1 per-epoch update closure over the epoch's windows and contention result, built once per quantum *)
      (fun i st ->
        let penalty = miss_penalty st.input.profile windows.(i) in
        let miss_cycles =
          (contention.Contention.extra_misses.(i) *. penalty)
          +. queueing_extra i
        in
        if observing then begin
          obs_penalty.(i) <- penalty;
          obs_miss_cycles.(i) <- miss_cycles
        end;
        let current =
          match params.update_rule with
          | Paper_literal -> 1.0 +. (miss_cycles /. epoch_cycles)
          | Consistent -> 1.0 +. (miss_cycles *. st.r /. epoch_cycles)
        in
        let previous = st.r in
        st.r <-
          (params.smoothing *. st.r) +. ((1.0 -. params.smoothing) *. current);
        if Invariant.enabled () then begin
          Invariant.checkf "model.slowdown_ge_1" (st.r >= 1.0) (fun () ->
              Printf.sprintf "%s: R_p = %g < 1" st.input.label st.r);
          Invariant.check "model.slowdown_finite" (Float.is_finite st.r);
          (* The EMA is a convex combination of the previous estimate and
             the current target, so it must stay between them. *)
          let lo = Float.min previous current
          and hi = Float.max previous current in
          let eps = 1e-12 *. Float.max 1.0 hi in
          Invariant.checkf "model.ema_bounded"
            (st.r >= lo -. eps && st.r <= hi +. eps)
            (fun () ->
              Printf.sprintf "%s: R_p = %g outside [%g, %g]" st.input.label
                st.r lo hi)
        end;
        st.ip <- st.ip +. progress.(i))
      states;
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
              ("sdc_mass",
               floats (Array.map Mppm_cache.Sdc.accesses sdcs));
              ("extra_misses",
               floats contention.Contention.extra_misses);
              ("miss_penalty", floats obs_penalty);
              ("penalty_cycles", floats obs_miss_cycles);
              ("r_before", floats obs_r_before);
              ("r_after", floats (Array.map (fun st -> st.r) states));
            ]);
      let max_delta = ref 0.0 and r_sum = ref 0.0 in
      Array.iteri
        (fun i st ->
          let d = Float.abs (st.r -. obs_r_before.(i)) in
          if d > !max_delta then max_delta := d;
          r_sum := !r_sum +. st.r)
        states;
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
          progress;
          extra_misses = Array.copy contention.Contention.extra_misses;
          slowdown_estimate = Array.map (fun st -> st.r) states;
        }
        :: !history
  done;
  let programs =
    Array.map
      (fun st ->
        let cpi_single = Profile.cpi st.input.profile in
        {
          name = st.input.label;
          slowdown = st.r;
          cpi_single;
          cpi_multi = cpi_single *. st.r;
          instructions_modelled = st.ip;
        })
      states
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
