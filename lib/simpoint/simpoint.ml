module Profile = Mppm_profile.Profile
module Sdc = Mppm_cache.Sdc

type phases = {
  assignment : int array;
  representatives : int array;
  weights : float array;
}

let features_of_profile profile =
  let intervals = Profile.intervals profile in
  let assoc = profile.Profile.llc_assoc in
  let raw =
    Array.map
      (fun iv ->
        let insns = float_of_int iv.Profile.instructions in
        let sdc_total = Float.max 1.0 (Sdc.accesses iv.Profile.sdc) in
        let shape =
          List.map (fun c -> c /. sdc_total) (Sdc.to_list iv.Profile.sdc)
        in
        Array.of_list
          ([
             iv.Profile.cycles /. insns;
             iv.Profile.memory_stall_cycles /. insns;
             iv.Profile.llc_accesses *. 1000.0 /. insns;
             iv.Profile.llc_misses *. 1000.0 /. insns;
           ]
          @ shape))
      intervals
  in
  (* Winsorize each dimension at the 5th/95th percentile, then range-
     normalize: a single cold-start interval must not compress the scale
     the real phases live on. *)
  let dim = 4 + assoc + 1 in
  let lo = Array.make dim 0.0 and hi = Array.make dim 0.0 in
  for d = 0 to dim - 1 do
    let column = Array.map (fun v -> v.(d)) raw in
    lo.(d) <- Mppm_util.Stats.percentile column ~p:5.0;
    hi.(d) <- Mppm_util.Stats.percentile column ~p:95.0
  done;
  Array.map
    (Array.mapi (fun d x ->
         if hi.(d) > lo.(d) then
           Float.max 0.0 (Float.min 1.0 ((x -. lo.(d)) /. (hi.(d) -. lo.(d))))
         else 0.0))
    raw

let phases_of_profile ?(k = 8) ?(seed = 1) profile =
  let features = features_of_profile profile in
  let { Kmeans.assignment; centroids; _ } = Kmeans.cluster ~seed ~k features in
  let k = Array.length centroids in
  let representatives = Array.make k (-1) in
  let best = Array.make k infinity in
  Array.iteri
    (fun i f ->
      let c = assignment.(i) in
      let d = Kmeans.squared_distance f centroids.(c) in
      if d < best.(c) then begin
        best.(c) <- d;
        representatives.(c) <- i
      end)
    features;
  let counts = Array.make k 0 in
  Array.iter (fun c -> counts.(c) <- counts.(c) + 1) assignment;
  (* Drop clusters that ended empty (possible when k exceeds the number of
     distinct behaviours): re-point them at representative 0. *)
  Array.iteri
    (fun c r -> if r < 0 then representatives.(c) <- 0)
    representatives;
  {
    assignment;
    representatives;
    weights =
      Array.map
        (fun c -> float_of_int c /. float_of_int (Array.length assignment))
        counts;
  }

let quantize ?(k = 8) ?seed profile =
  let phases = phases_of_profile ~k ?seed profile in
  let intervals = Profile.intervals profile in
  (* [make] copies every interval into its own row, so the
     representatives can be shared. *)
  Profile.make ~benchmark:profile.Profile.benchmark
    ~interval_instructions:profile.Profile.interval_instructions
    ~llc_assoc:profile.Profile.llc_assoc
    (Array.map (fun c -> intervals.(phases.representatives.(c))) phases.assignment)

let distinct_intervals profile =
  let table = Hashtbl.create ~random:false 16 in
  Array.iter
    (fun iv ->
      let key =
        ( iv.Profile.cycles,
          iv.Profile.memory_stall_cycles,
          iv.Profile.llc_accesses,
          iv.Profile.llc_misses,
          Sdc.to_list iv.Profile.sdc )
      in
      Hashtbl.replace table key ())
    (Profile.intervals profile);
  Hashtbl.length table
