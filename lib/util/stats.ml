let ensure_nonempty name a =
  if Array.length a = 0 then invalid_arg (name ^ ": empty sample")

let mean a =
  ensure_nonempty "Stats.mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let variance a =
  if Array.length a < 2 then invalid_arg "Stats.variance: need >= 2 samples";
  let m = mean a in
  let sum_sq = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 a in
  sum_sq /. float_of_int (Array.length a - 1)

let stddev a = sqrt (variance a)

let min_max a =
  ensure_nonempty "Stats.min_max" a;
  Array.fold_left
    (fun (lo, hi) x -> (min lo x, max hi x))
    (a.(0), a.(0)) a

let percentile a ~p =
  ensure_nonempty "Stats.percentile" a;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p not in [0,100]";
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median a = percentile a ~p:50.0

type interval = {
  mean : float;
  lower : float;
  upper : float;
  half_width : float;
  samples : int;
}

let confidence_interval ?(level = 0.95) a =
  if Array.length a < 2 then
    invalid_arg "Stats.confidence_interval: need >= 2 samples";
  if not (level > 0.0 && level < 1.0) then
    invalid_arg "Stats.confidence_interval: level not in (0,1)";
  let n = Array.length a in
  let m = mean a in
  let s = stddev a in
  let df = float_of_int (n - 1) in
  let t = Special.student_t_quantile ~df (1.0 -. ((1.0 -. level) /. 2.0)) in
  let half_width = t *. s /. sqrt (float_of_int n) in
  { mean = m; lower = m -. half_width; upper = m +. half_width; half_width; samples = n }

let relative_half_width iv =
  if Float.equal iv.mean 0.0 then
    invalid_arg "Stats.relative_half_width: zero mean"
  else iv.half_width /. abs_float iv.mean

let check_paired name predicted measured =
  let n = Array.length predicted in
  if n = 0 || n <> Array.length measured then
    invalid_arg (name ^ ": arrays must have equal non-zero length")

let mean_relative_error ~predicted ~measured =
  check_paired "Stats.mean_relative_error" predicted measured;
  let n = Array.length predicted in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    if Float.equal measured.(i) 0.0 then
      invalid_arg "Stats.mean_relative_error: zero measured value";
    total := !total +. (abs_float (predicted.(i) -. measured.(i)) /. abs_float measured.(i))
  done;
  !total /. float_of_int n
