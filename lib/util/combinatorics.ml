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

let random_selection_with_repetition rng ~n ~m =
  if n <= 0 || m <= 0 then
    invalid_arg "Combinatorics.random_selection_with_repetition";
  let mix = Array.init m (fun _ -> Rng.int rng n) in
  Array.sort compare mix;
  mix
