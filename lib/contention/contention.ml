module Sdc = Mppm_cache.Sdc

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

(* mppm: unit _ -> prediction *)
let make_prediction n =
  {
    isolated_misses = Array.make n 0.0;
    shared_misses = Array.make n 0.0;
    extra_misses = Array.make n 0.0;
    effective_ways = Array.make n 0.0;
  }

(* mppm: unit ways *)
let check_inputs sdcs p =
  let n = Array.length sdcs in
  if Int.equal n 0 then invalid_arg "Contention.predict: no programs";
  if
    not
      (Int.equal (Array.length p.isolated_misses) n
      && Int.equal (Array.length p.shared_misses) n
      && Int.equal (Array.length p.extra_misses) n
      && Int.equal (Array.length p.effective_ways) n)
  then invalid_arg "Contention.predict_into: prediction arrays not one per program";
  let assoc = Sdc.assoc sdcs.(0) in
  for i = 0 to n - 1 do
    if not (Int.equal (Sdc.assoc sdcs.(i)) assoc) then
      invalid_arg "Contention.predict: associativity mismatch"
  done;
  assoc

(* Each model below fills [p.shared_misses] and [p.effective_ways]; the
   isolated and extra misses follow from them. *)
(* mppm: unit _ -> _ -> _ *)
let finish sdcs p =
  for i = 0 to Array.length sdcs - 1 do
    Sdc.misses_into sdcs.(i) p.isolated_misses i;
    p.extra_misses.(i) <-
      Float.max 0.0 (p.shared_misses.(i) -. p.isolated_misses.(i))
  done

(* mppm: unit _ -> _ -> _ *)
let shared_at_ways sdcs p =
  for i = 0 to Array.length sdcs - 1 do
    Sdc.misses_with_ways_into sdcs.(i) ~ways:p.effective_ways p.shared_misses i
  done

(* mppm: unit _ -> ways -> _ -> _ *)
let no_contention sdcs assoc p =
  for i = 0 to Array.length sdcs - 1 do
    Sdc.misses_into sdcs.(i) p.shared_misses i;
    p.effective_ways.(i) <- float_of_int assoc
  done

(* FOA: effective ways proportional to access frequency.  The accesses go
   to [shared_misses] and their running total, in the order of a left
   fold, to [extra_misses] before both are overwritten. *)
(* mppm: unit _ -> ways -> _ -> _ *)
let predict_foa sdcs assoc p =
  let n = Array.length sdcs in
  let accesses = p.shared_misses and running = p.extra_misses in
  for i = 0 to n - 1 do
    Sdc.accesses_into sdcs.(i) accesses i;
    running.(i) <- (if Int.equal i 0 then 0.0 else running.(i - 1)) +. accesses.(i)
  done;
  let total = running.(n - 1) in
  if total <= 0.0 then no_contention sdcs assoc p
  else begin
    for i = 0 to n - 1 do
      p.effective_ways.(i) <- float_of_int assoc *. accesses.(i) /. total
    done;
    shared_at_ways sdcs p
  end

(* Scanning programs [q..] in order: the first whose next stack-distance
   counter C_{k+1} (the hits one more way would convert) beats [best]'s,
   among those owning k < [assoc] ways; [best = -1] beats nothing. *)
(* mppm: unit _ -> _ -> ways -> _ -> _ -> _ *)
let rec greediest sdcs owned assoc q best =
  if q >= Array.length sdcs then best
  else
    let k = int_of_float owned.(q) in
    let better =
      k < assoc
      && (Sdc.counters sdcs.(q)).(k)
         > (if best < 0 then neg_infinity
            else (Sdc.counters sdcs.(best)).(int_of_float owned.(best)))
    in
    greediest sdcs owned assoc (q + 1) (if better then q else best)

(* Stack-distance competition: greedily hand out the A ways, one at a time,
   to the program whose next (deeper) stack-distance counter is largest —
   i.e. the program that would convert the most hits by owning one more
   way.  [effective_ways] counts the ways each program owns. *)
(* mppm: unit _ -> ways -> _ -> _ *)
let predict_sdc_competition sdcs assoc p =
  let owned = p.effective_ways in
  Array.fill owned 0 (Array.length sdcs) 0.0;
  for _ = 1 to assoc do
    let best = greediest sdcs owned assoc 0 (-1) in
    if best >= 0 then owned.(best) <- owned.(best) +. 1.0
  done;
  shared_at_ways sdcs p

(* Prob-style dilation: between two accesses by program p at stack distance
   d, co-runners allocate (d / accesses_p) * sum_q misses_q new lines on
   average, dilating the distance to d * (1 + others_misses / accesses_p).
   An access survives iff its dilated distance fits in A, i.e. its original
   distance fits in A / (1 + r).  Misses feed back into the dilation, so we
   iterate to a fixed point.  Until {!finish} overwrites them,
   [extra_misses] holds each program's accesses and [isolated_misses] the
   running total of the shared misses (the order of a left fold). *)
(* mppm: unit iterations:_ -> _ -> ways -> _ -> _ *)
let predict_prob ~iterations sdcs assoc p =
  let n = Array.length sdcs in
  let accesses = p.extra_misses and running = p.isolated_misses in
  let shared = p.shared_misses and ways = p.effective_ways in
  for i = 0 to n - 1 do
    Sdc.accesses_into sdcs.(i) accesses i;
    Sdc.misses_into sdcs.(i) shared i;
    ways.(i) <- float_of_int assoc
  done;
  for _ = 1 to max 1 iterations do
    for i = 0 to n - 1 do
      running.(i) <- (if Int.equal i 0 then 0.0 else running.(i - 1)) +. shared.(i)
    done;
    let total_misses = running.(n - 1) in
    for q = 0 to n - 1 do
      if accesses.(q) > 0.0 then begin
        let others = total_misses -. shared.(q) in
        let dilation = 1.0 +. (others /. accesses.(q)) in
        ways.(q) <- float_of_int assoc /. dilation;
        Sdc.misses_with_ways_into sdcs.(q) ~ways shared q
      end
    done
  done

(* Way partitioning decouples the programs entirely: each one owns its
   quota regardless of how the others behave, so its shared misses are its
   isolated SDC evaluated at the quota. *)
(* mppm: unit ways -> _ -> ways -> _ -> _ *)
let predict_way_partition quotas sdcs assoc p =
  let n = Array.length sdcs in
  if Array.length quotas < n then
    invalid_arg "Contention.predict: partition smaller than the mix";
  for i = 0 to Array.length quotas - 1 do
    if quotas.(i) <= 0.0 then invalid_arg "Contention.predict: non-positive quota"
  done;
  for i = 0 to n - 1 do
    p.effective_ways.(i) <- Float.min quotas.(i) (float_of_int assoc)
  done;
  shared_at_ways sdcs p

(* mppm: hot — per-quantum FOA / contention prediction *)
let predict_into model sdcs p =
  let assoc = check_inputs sdcs p in
  (match model with
  | Way_partition quotas -> predict_way_partition quotas sdcs assoc p
  | (Foa | Sdc_competition | Prob _) when Int.equal (Array.length sdcs) 1 ->
      no_contention sdcs assoc p
  | Foa -> predict_foa sdcs assoc p
  | Sdc_competition -> predict_sdc_competition sdcs assoc p
  | Prob { iterations } -> predict_prob ~iterations sdcs assoc p);
  finish sdcs p

let predict model sdcs =
  let p = make_prediction (Array.length sdcs) in
  predict_into model sdcs p;
  p

let model_name = function
  | Foa -> "foa"
  | Sdc_competition -> "sdc"
  | Prob { iterations } -> Printf.sprintf "prob:%d" iterations
  | Way_partition quotas ->
      "part:"
      ^ String.concat ","
          (List.map (Printf.sprintf "%g") (Array.to_list quotas))
