let ranks a =
  let n = Array.length a in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare a.(i) a.(j)) order;
  let result = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    (* Find the run of tied values starting at sorted position !i. *)
    let j = ref !i in
    while !j + 1 < n && a.(order.(!j + 1)) = a.(order.(!i)) do incr j done;
    (* Mid-rank: average of 1-based ranks i+1 .. j+1. *)
    let mid_rank = float_of_int (!i + !j + 2) /. 2.0 in
    for k = !i to !j do
      result.(order.(k)) <- mid_rank
    done;
    i := !j + 1
  done;
  result

let pearson a b =
  let n = Array.length a in
  if n < 2 || n <> Array.length b then
    invalid_arg "Rank.pearson: arrays must have equal length >= 2";
  let nf = float_of_int n in
  let mean_a = Array.fold_left ( +. ) 0.0 a /. nf in
  let mean_b = Array.fold_left ( +. ) 0.0 b /. nf in
  let cov = ref 0.0 and var_a = ref 0.0 and var_b = ref 0.0 in
  for i = 0 to n - 1 do
    let da = a.(i) -. mean_a and db = b.(i) -. mean_b in
    cov := !cov +. (da *. db);
    var_a := !var_a +. (da *. da);
    var_b := !var_b +. (db *. db)
  done;
  (* The variances are sums of squares, so <= 0 is exactly the zero case. *)
  if !var_a <= 0.0 || !var_b <= 0.0 then nan
  else !cov /. sqrt (!var_a *. !var_b)

let spearman a b = pearson (ranks a) (ranks b)
