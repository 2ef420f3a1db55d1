let binomial n k =
  if k < 0 || k > n then 0.0
  else
    let k = min k (n - k) in
    let acc = ref 1.0 in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    (* The product is exact as long as intermediate values stay within 53
       bits; rounding keeps results integral in the exact range. *)
    Float.round !acc

let multisets_count ~n ~m = binomial (n + m - 1) m

let enumerate_multisets ~n ~m =
  if n <= 0 || m <= 0 then invalid_arg "Combinatorics.enumerate_multisets";
  if multisets_count ~n ~m > 2_000_000.0 then
    invalid_arg "Combinatorics.enumerate_multisets: population too large";
  (* Generate non-decreasing index sequences in lexicographic order by
     advancing the last position like an odometer with a per-digit floor. *)
  let current = Array.make m 0 in
  let acc = ref [] in
  let rec emit_from slot =
    if slot = m then acc := Array.copy current :: !acc
    else
      for v = (if slot = 0 then 0 else current.(slot - 1)) to n - 1 do
        current.(slot) <- v;
        emit_from (slot + 1)
      done
  in
  emit_from 0;
  List.rev !acc

(* Stars-and-bars bijection: a sorted multiset (x_1 <= ... <= x_m) over n
   elements corresponds to the strictly increasing combination
   (x_1 + 0 < x_2 + 1 < ... < x_m + m - 1) over n + m - 1 elements. *)
let random_multiset rng ~n ~m =
  if n <= 0 || m <= 0 then invalid_arg "Combinatorics.random_multiset";
  let universe = n + m - 1 in
  let combo = Rng.sample_without_replacement rng ~n:universe ~k:m in
  Array.sort compare combo;
  Array.mapi (fun i x -> x - i) combo

let random_selection_with_repetition rng ~n ~m =
  if n <= 0 || m <= 0 then
    invalid_arg "Combinatorics.random_selection_with_repetition";
  let mix = Array.init m (fun _ -> Rng.int rng n) in
  Array.sort compare mix;
  mix

let rank_multiset ~n mix =
  let m = Array.length mix in
  if m = 0 then invalid_arg "Combinatorics.rank_multiset: empty mix";
  Array.iteri
    (fun i x ->
      if x < 0 || x >= n then invalid_arg "Combinatorics.rank_multiset: out of range";
      if i > 0 && x < mix.(i - 1) then
        invalid_arg "Combinatorics.rank_multiset: mix not sorted")
    mix;
  (* Rank = number of multisets lexicographically smaller.  At slot i with
     current floor [lo], choosing any value v in [lo, mix.(i)) leaves a
     multiset tail of size m-i-1 over elements >= v. *)
  let rank = ref 0.0 in
  let lo = ref 0 in
  for i = 0 to m - 1 do
    let remaining = m - i - 1 in
    for v = !lo to mix.(i) - 1 do
      rank := !rank +. multisets_count ~n:(n - v) ~m:remaining
    done;
    lo := mix.(i)
  done;
  !rank

let unrank_multiset ~n ~m r =
  if n <= 0 || m <= 0 then invalid_arg "Combinatorics.unrank_multiset";
  let total = multisets_count ~n ~m in
  if r < 0.0 || r >= total then
    invalid_arg "Combinatorics.unrank_multiset: rank out of range";
  let result = Array.make m 0 in
  let rank = ref r in
  let lo = ref 0 in
  for i = 0 to m - 1 do
    let remaining = m - i - 1 in
    let v = ref !lo in
    let block = ref (multisets_count ~n:(n - !v) ~m:remaining) in
    while !rank >= !block do
      rank := !rank -. !block;
      incr v;
      block := multisets_count ~n:(n - !v) ~m:remaining
    done;
    result.(i) <- !v;
    lo := !v
  done;
  result
