module Rng = Mppm_util.Rng
module Profile = Mppm_profile.Profile

type t = Mem | Comp

let classify ~memory_fraction ~threshold =
  if memory_fraction >= threshold then Mem else Comp

let classify_profiles ?(threshold = 0.5) profiles =
  Array.map
    (fun p ->
      classify ~memory_fraction:(Profile.memory_cpi_fraction p) ~threshold)
    profiles

let partition classes =
  let mem = ref [] and comp = ref [] in
  Array.iteri
    (fun i cls ->
      match cls with Mem -> mem := i :: !mem | Comp -> comp := i :: !comp)
    classes;
  (Array.of_list (List.rev !mem), Array.of_list (List.rev !comp))

type composition = All_mem | All_comp | Half_half

let compositions = [ All_mem; All_comp; Half_half ]

let draw rng pool count =
  if Array.length pool = 0 then
    invalid_arg "Category.random_mix: empty benchmark class";
  Array.init count (fun _ -> Rng.pick rng pool)

let random_mix rng ~mem ~comp ~cores composition =
  if cores <= 0 then invalid_arg "Category.random_mix: cores <= 0";
  let picks =
    match composition with
    | All_mem -> draw rng mem cores
    | All_comp -> draw rng comp cores
    | Half_half ->
        let mem_count = cores / 2 in
        Array.append (draw rng mem mem_count) (draw rng comp (cores - mem_count))
  in
  Mix.of_indices ~n:Mppm_trace.Suite.count picks

let pp ppf = function
  | Mem -> Format.pp_print_string ppf "MEM"
  | Comp -> Format.pp_print_string ppf "COMP"
