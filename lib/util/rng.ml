(* The generator runs in the hot path of the trace-driven simulators (one
   or more draws per simulated instruction block), so the core is a
   xorshift128+ variant over OCaml's native 63-bit ints: no boxing, no
   Int64 traffic.  Seeding goes through a splitmix-style mixer so that
   small or equal-ish user seeds still yield well-separated states. *)

type t = { mutable a : int; mutable b : int }

(* 63-bit splitmix-style mixer (constants from splitmix64, truncated). *)
let mix z =
  let z = (z + 0x1E3779B97F4A7C15) land max_int in
  let z = (z lxor (z lsr 30)) * 0x1F58476D1CE4E5B9 land max_int in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land max_int in
  z lxor (z lsr 31)

let create ~seed =
  let s0 = mix (seed land max_int) in
  let s1 = mix s0 in
  let s2 = mix s1 in
  (* Guarantee a non-zero state: xorshift must not start at (0, 0). *)
  let a = if s1 = 0 then 0x9E3779B9 else s1 in
  { a; b = s2 lor 1 }

let copy t = { a = t.a; b = t.b }
let save t put =
  put t.a;
  put t.b

let restore t get =
  let a = get () in
  let b = get () in
  if a = 0 && b = 0 then invalid_arg "Rng.restore: not a saved state";
  t.a <- a;
  t.b <- b

(* mppm: unit _ -- raw xorshift bits carry no unit *)
let next t =
  let s1 = t.a and s0 = t.b in
  t.a <- s0;
  let s1 = s1 lxor (s1 lsl 23) in
  let s1 = s1 lxor (s1 lsr 17) lxor s0 lxor (s0 lsr 26) in
  t.b <- s1;
  (s0 + s1) land max_int

let split t = create ~seed:(next t)

(* mppm: unit _ -- uniform draw carries no unit *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Modulo over 62 random bits: bias is < bound / 2^62, negligible for the
     simulator-sized bounds used here. *)
  next t mod bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

(* The low 53 bits of one draw: a mask, not a division, so callers that
   scale it to a float in their own module pay no [mod] and box nothing. *)
(* mppm: unit _ -- raw draw bits carry no unit *)
let bits53 t = next t land ((1 lsl 53) - 1)

let float_scale = 1.0 /. 9007199254740992.0 (* 2^-53 *)

(* mppm: unit _ -- uniform draw carries no unit *)
let float t bound = float_of_int (bits53 t) *. float_scale *. bound

(* Written out rather than through [float t 1.0], so the draw never leaves
   this function as a boxed float ([x *. 1.0] is exact, so the result is
   unchanged). *)
let bernoulli t ~p = float_of_int (bits53 t) *. float_scale < p

let geometric t ~p =
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Rng.geometric: p not in (0,1]";
  if p >= 1.0 then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (floor (log u /. log (1.0 -. p)))

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 0.0 then draw ()
    else
      let u2 = float t 1.0 in
      mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
  in
  draw ()

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let pick_weighted t ~weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if not (total > 0.0) then invalid_arg "Rng.pick_weighted: weights sum <= 0";
  let target = float t total in
  let n = Array.length weights in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t ~n ~k =
  if k > n || k < 0 then invalid_arg "Rng.sample_without_replacement";
  (* Partial Fisher-Yates over an index array: O(n) setup, O(k) swaps. *)
  let idx = Array.init n (fun i -> i) in
  for i = 0 to k - 1 do
    let j = int_in t ~lo:i ~hi:(n - 1) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 k
