module Rng = Mppm_util.Rng
module Combinatorics = Mppm_util.Combinatorics
module Suite = Mppm_trace.Suite

let n = Suite.count

let random_mixes rng ~cores ~count =
  Array.init count (fun _ ->
      Mix.of_indices ~n (Combinatorics.random_selection_with_repetition rng ~n ~m:cores))

let distinct_random_mixes rng ~cores ~count =
  let population = Combinatorics.multisets_count ~n ~m:cores in
  if float_of_int count > population then
    invalid_arg "Sampler.distinct_random_mixes: count exceeds population";
  let seen = Hashtbl.create ~random:false (2 * count) in
  let result = ref [] in
  while Hashtbl.length seen < count do
    let mix =
      Mix.of_indices ~n
        (Combinatorics.random_selection_with_repetition rng ~n ~m:cores)
    in
    let key = Mix.to_string mix in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      result := mix :: !result
    end
  done;
  Array.of_list (List.rev !result)
