module Invariant = Mppm_util.Invariant

type t = { assoc : int; counters : float array (* length assoc + 1 *) }

(* Tolerant float comparison for the sanitizer's mass-conservation checks:
   counter sums are regrouped, so exact equality is too strict. *)
let mass_close a b =
  Float.abs (a -. b)
  <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let create ~assoc =
  if assoc <= 0 then invalid_arg "Sdc.create: assoc must be positive";
  { assoc; counters = Array.make (assoc + 1) 0.0 }

let assoc t = t.assoc

(* mppm: hot — per-access SDC update *)
let record t ~depth =
  if depth < 1 then invalid_arg "Sdc.record: depth must be >= 1";
  let i = if depth > t.assoc then t.assoc else depth - 1 in
  t.counters.(i) <- t.counters.(i) +. 1.0

let counter t i =
  if i < 1 || i > t.assoc + 1 then invalid_arg "Sdc.counter: index out of range";
  t.counters.(i - 1)

let counters t = t.counters

(* [dst.(i) <- counters.(first) +. ... +. counters.(last)], summed left
   to right from 0.0 like [Array.fold_left ( +. ) 0.0], so bit-equal to
   it.  The running sum lives in the cell: a float accumulator argument
   would be boxed at every step, a float array cell is not. *)
(* mppm: unit _ -> ways -> ways -> _ -> _ -> _ *)
let sum_into counters first last dst i =
  dst.(i) <- 0.0;
  for j = first to last do
    dst.(i) <- dst.(i) +. counters.(j)
  done

let accesses_into t dst i = sum_into t.counters 0 t.assoc dst i
let misses_into t dst i = dst.(i) <- t.counters.(t.assoc)

let accesses t =
  let cell = [| 0.0 |] in
  accesses_into t cell 0;
  cell.(0)

let misses t = t.counters.(t.assoc)
let hits t = accesses t -. misses t

let miss_rate t =
  let total = accesses t in
  if Float.equal total 0.0 then 0.0 else misses t /. total

let copy t = { assoc = t.assoc; counters = Array.copy t.counters }

let add a b =
  if a.assoc <> b.assoc then invalid_arg "Sdc.add: associativity mismatch";
  let sum = { assoc = a.assoc; counters = Array.map2 ( +. ) a.counters b.counters } in
  if Invariant.enabled () then
    Invariant.checkf "sdc.add_mass"
      (mass_close (accesses sum) (accesses a +. accesses b))
      (fun () ->
        Printf.sprintf "sum %g <> %g + %g" (accesses sum) (accesses a)
          (accesses b));
  sum

(* mppm: hot — in-place SDC summation *)
let add_into ~dst src =
  if not (Int.equal dst.assoc src.assoc) then
    invalid_arg "Sdc.add_into: associativity mismatch";
  let before =
    if Invariant.enabled () then accesses dst +. accesses src else 0.0
  in
  for i = 0 to dst.assoc do
    dst.counters.(i) <- dst.counters.(i) +. src.counters.(i)
  done;
  if Invariant.enabled () then
    Invariant.check "sdc.add_mass" (mass_close (accesses dst) before)

let scale t k =
  if k < 0.0 then invalid_arg "Sdc.scale: negative factor";
  let scaled = { assoc = t.assoc; counters = Array.map (fun v -> v *. k) t.counters } in
  if Invariant.enabled () then
    Invariant.check "sdc.scale_mass"
      (mass_close (accesses scaled) (accesses t *. k));
  scaled

let reduce_associativity t ~assoc:new_assoc =
  if new_assoc <= 0 || new_assoc > t.assoc then
    invalid_arg "Sdc.reduce_associativity: bad target associativity";
  let counters = Array.make (new_assoc + 1) 0.0 in
  for i = 0 to new_assoc - 1 do
    counters.(i) <- t.counters.(i)
  done;
  for i = new_assoc to t.assoc do
    counters.(new_assoc) <- counters.(new_assoc) +. t.counters.(i)
  done;
  let reduced = { assoc = new_assoc; counters } in
  if Invariant.enabled () then
    Invariant.checkf "sdc.reduce_mass"
      (mass_close (accesses reduced) (accesses t))
      (fun () ->
        Printf.sprintf "%d->%d-way reduction changed mass %g -> %g" t.assoc
          new_assoc (accesses t) (accesses reduced));
  reduced

(* misses(k) for integer k ways = sum of the counters deeper than k; the
   fractional part of [ways] interpolates between misses(k) and
   misses(k+1).  Both sums run left to right through [dst.(i)]. *)
(* mppm: hot — per-quantum miss projection *)
let misses_with_ways_into t ~ways dst i =
  let w = ways.(i) in
  if w < 0.0 then invalid_arg "Sdc.misses_with_ways: negative ways";
  if w >= float_of_int t.assoc then dst.(i) <- t.counters.(t.assoc)
  else begin
    let k = int_of_float (floor w) in
    let frac = w -. float_of_int k in
    sum_into t.counters k t.assoc dst i;
    let lo = dst.(i) in
    sum_into t.counters (k + 1) t.assoc dst i;
    let hi = dst.(i) in
    (* lint: allow U1 the interpolation weight [ways -. floor ways] is a dimensionless fraction of one way *)
    dst.(i) <- lo +. (frac *. (hi -. lo))
  end

let misses_with_ways t ~ways =
  let cell = [| ways |] in
  misses_with_ways_into t ~ways:cell cell 0;
  cell.(0)

let to_list t = Array.to_list t.counters

let of_list ~assoc counters =
  if List.length counters <> assoc + 1 then
    invalid_arg "Sdc.of_list: length must be assoc + 1";
  if List.exists (fun c -> c < 0.0) counters then
    invalid_arg "Sdc.of_list: negative counter";
  { assoc; counters = Array.of_list counters }

let pp ppf t =
  Format.fprintf ppf "@[<h>SDC(%d-way:" t.assoc;
  Array.iteri
    (fun i c ->
      if i = t.assoc then Format.fprintf ppf " >%.0f" c
      else Format.fprintf ppf " %.0f" c)
    t.counters;
  Format.fprintf ppf ")@]"
