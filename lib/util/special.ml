(* Lanczos approximation, g = 7, n = 9 coefficients.  Accurate to ~1e-13 for
   x > 0, which is far more than the statistics layer needs. *)
let lanczos_coefficients =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if x <= 0.0 then invalid_arg "Special.log_gamma: x <= 0"
  else if x < 0.5 then
    (* Reflection formula keeps the Lanczos series in its accurate range. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else
    let x = x -. 1.0 in
    let acc = ref lanczos_coefficients.(0) in
    for i = 1 to 8 do
      acc := !acc +. (lanczos_coefficients.(i) /. (x +. float_of_int i))
    done;
    let t = x +. 7.5 in
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc

(* Continued fraction for the incomplete beta function (Numerical Recipes
   "betacf"), evaluated with the modified Lentz algorithm. *)
let beta_continued_fraction ~a ~b ~x =
  let max_iterations = 300 in
  let eps = 3e-14 in
  let fp_min = 1e-300 in
  let qab = a +. b in
  let qap = a +. 1.0 in
  let qam = a -. 1.0 in
  let c = ref 1.0 in
  let d = ref (1.0 -. (qab *. x /. qap)) in
  if abs_float !d < fp_min then d := fp_min;
  d := 1.0 /. !d;
  let h = ref !d in
  let m = ref 1 in
  let converged = ref false in
  while (not !converged) && !m <= max_iterations do
    let mf = float_of_int !m in
    let m2 = 2.0 *. mf in
    let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1.0 +. (aa *. !d);
    if abs_float !d < fp_min then d := fp_min;
    c := 1.0 +. (aa /. !c);
    if abs_float !c < fp_min then c := fp_min;
    d := 1.0 /. !d;
    h := !h *. !d *. !c;
    let aa = -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1.0 +. (aa *. !d);
    if abs_float !d < fp_min then d := fp_min;
    c := 1.0 +. (aa /. !c);
    if abs_float !c < fp_min then c := fp_min;
    d := 1.0 /. !d;
    let delta = !d *. !c in
    h := !h *. delta;
    if abs_float (delta -. 1.0) < eps then converged := true;
    incr m
  done;
  !h

let incomplete_beta ~a ~b ~x =
  if x < 0.0 || x > 1.0 then invalid_arg "Special.incomplete_beta: x not in [0,1]";
  if a <= 0.0 || b <= 0.0 then invalid_arg "Special.incomplete_beta: a,b must be > 0";
  (* The domain check above makes <= / >= exactly the boundary cases. *)
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else
    let log_front =
      log_gamma (a +. b) -. log_gamma a -. log_gamma b
      +. (a *. log x) +. (b *. log (1.0 -. x))
    in
    let front = exp log_front in
    (* Use the continued fraction directly where it converges fast, the
       symmetry transformation elsewhere. *)
    if x < (a +. 1.0) /. (a +. b +. 2.0) then
      front *. beta_continued_fraction ~a ~b ~x /. a
    else
      1.0 -. (front *. beta_continued_fraction ~a:b ~b:a ~x:(1.0 -. x) /. b)

let student_t_cdf ~df t =
  if df <= 0.0 then invalid_arg "Special.student_t_cdf: df <= 0";
  let x = df /. (df +. (t *. t)) in
  let p = 0.5 *. incomplete_beta ~a:(df /. 2.0) ~b:0.5 ~x in
  if t > 0.0 then 1.0 -. p else p

let student_t_quantile ~df p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Special.student_t_quantile: p not in (0,1)";
  if Float.equal p 0.5 then 0.0
  else
    (* Bisection on the CDF: robust, and quantiles are computed rarely. *)
    let rec widen hi =
      if student_t_cdf ~df hi >= max p (1.0 -. p) then hi else widen (hi *. 2.0)
    in
    let bound = widen 2.0 in
    let lo = ref (-.bound) and hi = ref bound in
    for _ = 1 to 200 do
      let mid = 0.5 *. (!lo +. !hi) in
      if student_t_cdf ~df mid < p then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
