module Sdc = Mppm_cache.Sdc

(* lint: allow-file P1 per-prediction result vectors: predict returns fresh arrays that the model reads for one epoch *)

type model =
  | Foa
  | Sdc_competition
  | Prob of { iterations : int }
  | Way_partition of float array

let default = Foa

type prediction = {
  isolated_misses : float array;
  shared_misses : float array;
  extra_misses : float array;
  effective_ways : float array;
}

(* mppm: unit ways *)
let check_inputs sdcs =
  let n = Array.length sdcs in
  if Int.equal n 0 then invalid_arg "Contention.predict: no programs";
  let assoc = Sdc.assoc sdcs.(0) in
  for i = 0 to n - 1 do
    if not (Int.equal (Sdc.assoc sdcs.(i)) assoc) then
      invalid_arg "Contention.predict: associativity mismatch"
  done;
  assoc

(* mppm: unit prediction *)
let finish sdcs shared effective_ways =
  let isolated = Array.map Sdc.misses sdcs in
  {
    isolated_misses = isolated;
    shared_misses = shared;
    extra_misses =
      Array.mapi (fun i s -> Float.max 0.0 (s -. isolated.(i))) shared;
    effective_ways;
  }

(* mppm: unit prediction *)
let no_contention sdcs assoc =
  let n = Array.length sdcs in
  finish sdcs (Array.map Sdc.misses sdcs)
    (Array.make n (float_of_int assoc))

(* FOA: effective ways proportional to access frequency. *)
(* mppm: unit prediction *)
let predict_foa sdcs assoc =
  let accesses = Array.map Sdc.accesses sdcs in
  let total = Array.fold_left ( +. ) 0.0 accesses in
  if total <= 0.0 then no_contention sdcs assoc
  else
    let ways =
      Array.map (fun a -> float_of_int assoc *. a /. total) accesses
    in
    let shared =
      Array.mapi (fun i sdc -> Sdc.misses_with_ways sdc ~ways:ways.(i)) sdcs
    in
    finish sdcs shared ways

(* Stack-distance competition: greedily hand out the A ways, one at a time,
   to the program whose next (deeper) stack-distance counter is largest —
   i.e. the program that would convert the most hits by owning one more
   way. *)
(* mppm: unit prediction *)
let predict_sdc_competition sdcs assoc =
  let n = Array.length sdcs in
  let owned = Array.make n 0 in
  for _ = 1 to assoc do
    let best = ref (-1) in
    let best_gain = ref neg_infinity in
    for p = 0 to n - 1 do
      if owned.(p) < assoc then begin
        let gain = Sdc.counter sdcs.(p) (owned.(p) + 1) in
        if gain > !best_gain then begin
          best_gain := gain;
          best := p
        end
      end
    done;
    if !best >= 0 then owned.(!best) <- owned.(!best) + 1
  done;
  let ways = Array.map float_of_int owned in
  let shared =
    Array.mapi (fun i sdc -> Sdc.misses_with_ways sdc ~ways:ways.(i)) sdcs
  in
  finish sdcs shared ways

(* Prob-style dilation: between two accesses by program p at stack distance
   d, co-runners allocate (d / accesses_p) * sum_q misses_q new lines on
   average, dilating the distance to d * (1 + others_misses / accesses_p).
   An access survives iff its dilated distance fits in A, i.e. its original
   distance fits in A / (1 + r).  Misses feed back into the dilation, so we
   iterate to a fixed point. *)
(* mppm: unit prediction *)
let predict_prob ~iterations sdcs assoc =
  let n = Array.length sdcs in
  let accesses = Array.map Sdc.accesses sdcs in
  let shared = Array.map Sdc.misses sdcs in
  let ways = Array.make n (float_of_int assoc) in
  for _ = 1 to max 1 iterations do
    let total_misses = Array.fold_left ( +. ) 0.0 shared in
    for p = 0 to n - 1 do
      if accesses.(p) > 0.0 then begin
        let others = total_misses -. shared.(p) in
        let dilation = 1.0 +. (others /. accesses.(p)) in
        ways.(p) <- float_of_int assoc /. dilation;
        shared.(p) <- Sdc.misses_with_ways sdcs.(p) ~ways:ways.(p)
      end
    done
  done;
  finish sdcs shared ways

(* Way partitioning decouples the programs entirely: each one owns its
   quota regardless of how the others behave, so its shared misses are its
   isolated SDC evaluated at the quota. *)
(* mppm: unit prediction *)
let predict_way_partition quotas sdcs assoc =
  if Array.length quotas < Array.length sdcs then
    invalid_arg "Contention.predict: partition smaller than the mix";
  Array.iter
    (fun q -> if q <= 0.0 then invalid_arg "Contention.predict: non-positive quota")
    quotas;
  let ways =
    Array.mapi
      (fun i _ -> Float.min quotas.(i) (float_of_int assoc))
      sdcs
  in
  let shared =
    Array.mapi (fun i sdc -> Sdc.misses_with_ways sdc ~ways:ways.(i)) sdcs
  in
  finish sdcs shared ways

(* mppm: hot — per-quantum FOA / contention prediction *)
let predict model sdcs =
  let assoc = check_inputs sdcs in
  match model with
  | Way_partition quotas -> predict_way_partition quotas sdcs assoc
  | (Foa | Sdc_competition | Prob _) when Int.equal (Array.length sdcs) 1 ->
      no_contention sdcs assoc
  | Foa -> predict_foa sdcs assoc
  | Sdc_competition -> predict_sdc_competition sdcs assoc
  | Prob { iterations } -> predict_prob ~iterations sdcs assoc

let model_name = function
  | Foa -> "foa"
  | Sdc_competition -> "sdc"
  | Prob { iterations } -> Printf.sprintf "prob:%d" iterations
  | Way_partition quotas ->
      "part:"
      ^ String.concat ","
          (List.map (Printf.sprintf "%g") (Array.to_list quotas))

let of_string s =
  match String.lowercase_ascii s with
  | "foa" -> Foa
  | "sdc" -> Sdc_competition
  | "prob" -> Prob { iterations = 5 }
  | s when String.length s > 5 && String.sub s 0 5 = "prob:" -> (
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some iterations when iterations > 0 -> Prob { iterations }
      | Some _ | None -> invalid_arg "Contention.of_string: bad prob iterations")
  | s when String.length s > 5 && String.sub s 0 5 = "part:" -> (
      try
        Way_partition
          (String.sub s 5 (String.length s - 5)
          |> String.split_on_char ','
          |> List.map float_of_string
          |> Array.of_list)
      with Failure _ -> invalid_arg "Contention.of_string: bad partition")
  | _ ->
      invalid_arg "Contention.of_string: expected foa|sdc|prob[:n]|part:<ways>"
