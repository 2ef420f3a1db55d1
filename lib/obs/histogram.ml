type t = {
  bounds : float array;
  counts : float array;  (* length = Array.length bounds + 1 *)
  mutable total : float;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
}

let create ~bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Histogram.create: no bucket bounds";
  for i = 0 to n - 1 do
    if not (Float.is_finite bounds.(i)) then
      invalid_arg "Histogram.create: non-finite bound";
    if i > 0 && bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Histogram.create: bounds must be strictly increasing"
  done;
  {
    bounds = Array.copy bounds;
    counts = Array.make (n + 1) 0.0;
    total = 0.0;
    sum = 0.0;
    lo = infinity;
    hi = neg_infinity;
  }

(* Geometric bounds [first, first*ratio, ...]: the natural shape for
   cycle/instruction magnitudes that span decades. *)
let create_exponential ~first ~ratio ~buckets =
  if first <= 0.0 || ratio <= 1.0 || buckets < 1 then
    invalid_arg "Histogram.create_exponential: need first > 0, ratio > 1";
  create ~bounds:(Array.init buckets (fun i -> first *. (ratio ** float_of_int i)))

let bucket_index t x =
  (* First bucket whose upper bound exceeds x; the last bucket is open. *)
  let n = Array.length t.bounds in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if x < t.bounds.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 n

let observe t x =
  if not (Float.is_finite x) then invalid_arg "Histogram.observe: non-finite";
  let i = bucket_index t x in
  t.counts.(i) <- t.counts.(i) +. 1.0;
  t.total <- t.total +. 1.0;
  t.sum <- t.sum +. x;
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let count t = t.total
let sum t = t.sum
let mean t = if t.total > 0.0 then t.sum /. t.total else 0.0
let min_value t = if t.total > 0.0 then Some t.lo else None
let max_value t = if t.total > 0.0 then Some t.hi else None
let bucket_counts t = Array.copy t.counts

let same_bounds a b =
  Array.length a.bounds = Array.length b.bounds
  && (let ok = ref true in
      Array.iteri
        (fun i x -> if not (Float.equal x b.bounds.(i)) then ok := false)
        a.bounds;
      !ok)

let merge a b =
  if not (same_bounds a b) then
    invalid_arg "Histogram.merge: bucket bounds differ";
  let t = create ~bounds:a.bounds in
  Array.iteri (fun i c -> t.counts.(i) <- c +. b.counts.(i)) a.counts;
  t.total <- a.total +. b.total;
  t.sum <- a.sum +. b.sum;
  t.lo <- Float.min a.lo b.lo;
  t.hi <- Float.max a.hi b.hi;
  t

let quantile t p =
  if not (Float.is_finite p && p >= 0.0 && p <= 1.0) then
    invalid_arg "Histogram.quantile: p must lie in [0, 1]";
  if t.total <= 0.0 then 0.0
  else begin
    (* Linear interpolation inside the bucket holding rank [p * total].
       The open end buckets borrow the observed extremes as edges, and
       the result is clamped to [lo, hi], so quantile 0 = min and
       quantile 1 = max.  Every input (counts, total, lo, hi) is
       invariant under merge order, hence so is the estimate. *)
    let clamp x = Float.min t.hi (Float.max t.lo x) in
    let rank = p *. t.total in
    let n = Array.length t.bounds in
    let rec go i cum =
      if i > n then t.hi
      else
        let c = t.counts.(i) in
        if c > 0.0 && cum +. c >= rank then begin
          let lo_edge = if i = 0 then t.lo else t.bounds.(i - 1) in
          let hi_edge = if i = n then t.hi else t.bounds.(i) in
          let frac = Float.max 0.0 (Float.min 1.0 ((rank -. cum) /. c)) in
          clamp (lo_edge +. (frac *. (hi_edge -. lo_edge)))
        end
        else go (i + 1) (cum +. c)
    in
    go 0 0.0
  end
