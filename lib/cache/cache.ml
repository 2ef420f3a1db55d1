(* Tags live in one flat array: set [s] owns the [ways] slots starting at
   [s * ways], in recency order (slot 0 of the set is MRU).  [fill] tracks
   how many ways of each set are valid; valid tags occupy the prefix.  For
   FIFO, [ages] holds each set's tags in insertion order so hits do not
   disturb the victim cursor.  For partitioned caches, [owners] mirrors
   [tags] with the inserting owner of every line.  Arrays a policy does not
   use are empty. *)
type t = {
  geometry : Geometry.t;
  policy : Replacement.t;
  ways : int;
  set_shift : int;
  set_mask : int;
  tags : int array;  (* sets * ways, each set MRU first *)
  fill : int array;  (* valid ways per set *)
  ages : int array;  (* FIFO: each set's tags in insertion order *)
  rng : Mppm_util.Rng.t option;  (* Random policy only *)
  quotas : int array;  (* way quotas per owner; empty when unpartitioned *)
  owners : int array;  (* per-line owners, parallel to [tags] *)
  counts : int array;  (* per-owner census scratch for victim selection *)
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
}

let invalid_tag = -1

let create ?(policy = Replacement.Lru) ?partition geometry =
  let sets = geometry.Geometry.num_sets in
  let ways = geometry.Geometry.associativity in
  let lines = sets * ways in
  let quotas =
    match partition with
    | None -> [||]
    | Some quotas ->
        if policy <> Replacement.Lru then
          invalid_arg "Cache.create: partitioning requires the LRU policy";
        if Array.length quotas = 0 then invalid_arg "Cache.create: empty partition";
        Array.iter
          (fun q -> if q <= 0 then invalid_arg "Cache.create: non-positive quota")
          quotas;
        if Array.fold_left ( + ) 0 quotas > ways then
          invalid_arg "Cache.create: quotas exceed associativity";
        Array.copy quotas
  in
  let partitioned = Array.length quotas > 0 in
  {
    geometry;
    policy;
    ways;
    set_shift = geometry.Geometry.set_shift;
    set_mask = geometry.Geometry.set_mask;
    tags = Array.make lines invalid_tag;
    fill = Array.make sets 0;
    ages =
      (match policy with
      | Replacement.Fifo -> Array.make lines invalid_tag
      | _ -> [||]);
    rng =
      (match policy with
      | Replacement.Random seed -> Some (Mppm_util.Rng.create ~seed)
      | _ -> None);
    quotas;
    owners = (if partitioned then Array.make lines invalid_tag else [||]);
    counts = Array.make (Array.length quotas) 0;
    accesses = 0;
    hits = 0;
    misses = 0;
  }

let geometry t = t.geometry

(* Position of [tag] among the [fill] valid slots from [base], or -1.
   Toplevel so the per-access search allocates no closure; tags are ints,
   so the comparison is monomorphic. *)
(* mppm: unit ways -- recency position within a set *)
let rec scan_set tags base fill tag i =
  if i >= fill then -1
  else if Int.equal tags.(base + i) tag then i
  else scan_set tags base fill tag (i + 1)

(* mppm: unit ways -- recency position within a set *)
let find_in_set tags base fill tag = scan_set tags base fill tag 0

(* Shift a.(base..base+len-1) down one slot and place [v] at the front.  A
   manual loop beats Array.blit at these sizes (<= 16 elements) and this is
   the simulator's innermost operation. *)
let shift_down_and_front a base len v =
  for i = base + len - 1 downto base + 1 do
    a.(i) <- a.(i - 1)
  done;
  a.(base) <- v

(* The three victim predicates, int-coded so the recency scan below stays
   closure-free on the miss path: 0 = the owner's own line, 1 = a line of
   any over-quota owner, 2 = any other owner's line. *)
(* mppm: unit _ -- victim predicate *)
let victim_matches kind counts quotas owner o =
  match kind with
  | 0 -> Int.equal o owner
  | 1 -> o >= 0 && o < Array.length quotas && counts.(o) > quotas.(o)
  | _ -> not (Int.equal o owner)

(* Deepest (least-recent) position in the set's owners up to [from]
   matching the predicate, or -1. *)
(* mppm: unit ways -- recency depth within a set *)
let rec deepest_from t base owner kind from =
  if from < 0 then -1
  else if victim_matches kind t.counts t.quotas owner t.owners.(base + from) then
    from
  else deepest_from t base owner kind (from - 1)

(* Choose the victim recency position for a full partitioned set: an owner
   at or above quota evicts its own LRU line; otherwise the LRU line of any
   over-quota owner; otherwise the global LRU line (preferring other
   owners' lines).  The owner census reuses the cache's scratch array. *)
(* mppm: unit ways -- victim recency position *)
let partition_victim t base owner =
  let ways = t.ways in
  let counts = t.counts in
  let n_owners = Array.length counts in
  Array.fill counts 0 n_owners 0;
  for i = base to base + ways - 1 do
    let o = t.owners.(i) in
    if o >= 0 && o < n_owners then counts.(o) <- counts.(o) + 1
  done;
  if counts.(owner) >= t.quotas.(owner) && counts.(owner) > 0 then begin
    let pos = deepest_from t base owner 0 (ways - 1) in
    if pos >= 0 then pos else ways - 1
  end
  else
    let pos = deepest_from t base owner 1 (ways - 1) in
    if pos >= 0 then pos
    else
      let pos = deepest_from t base owner 2 (ways - 1) in
      if pos >= 0 then pos else ways - 1

(* FIFO victim: the set's oldest insertion.  Rotates the set's ages with
   [tag] as the newest and returns the victim's recency position. *)
(* mppm: unit ways -- victim recency position *)
let fifo_victim t base tag =
  let ages = t.ages in
  let victim_tag = ages.(base) in
  Array.blit ages (base + 1) ages base (t.ways - 1);
  ages.(base + t.ways - 1) <- tag;
  let pos = find_in_set t.tags base t.ways victim_tag in
  assert (pos >= 0);
  pos

(* Put [tag] (inserted by [owner]) at the MRU slot, dropping the line at
   recency position [victim_pos] (or the first invalid slot). *)
let insert t base victim_pos tag owner =
  shift_down_and_front t.tags base (victim_pos + 1) tag;
  if Array.length t.owners > 0 then
    shift_down_and_front t.owners base (victim_pos + 1) owner

(* mppm: unit ways -- 0 = miss, d >= 1 = hit at recency depth d *)
let access_as t ~owner addr =
  let line = addr lsr t.set_shift in
  let set_idx = line land t.set_mask in
  let ways = t.ways in
  let base = set_idx * ways in
  let fill = t.fill.(set_idx) in
  let partitioned = Array.length t.quotas > 0 in
  t.accesses <- t.accesses + 1;
  if partitioned && (owner < 0 || owner >= Array.length t.quotas) then
    invalid_arg "Cache.access_as: owner outside the partition";
  let pos = find_in_set t.tags base fill line in
  if pos >= 0 then begin
    t.hits <- t.hits + 1;
    shift_down_and_front t.tags base (pos + 1) line;
    if partitioned then
      shift_down_and_front t.owners base (pos + 1) t.owners.(base + pos);
    pos + 1
  end
  else begin
    t.misses <- t.misses + 1;
    if fill < ways then begin
      (* Grow the valid prefix: shift it down, new tag in front. *)
      insert t base fill line owner;
      t.fill.(set_idx) <- fill + 1;
      match t.policy with
      | Replacement.Fifo -> t.ages.(base + fill) <- line
      | Replacement.Lru | Replacement.Random _ -> ()
    end
    else begin
      let victim_pos =
        if partitioned then partition_victim t base owner
        else
          match t.policy with
          | Replacement.Lru -> ways - 1
          | Replacement.Random _ -> (
              match t.rng with
              | Some rng -> Mppm_util.Rng.int rng ways
              | None -> assert false)
          | Replacement.Fifo -> fifo_victim t base line
      in
      insert t base victim_pos line owner
    end;
    0
  end

let access t addr = access_as t ~owner:0 addr

let probe t addr =
  let line = addr lsr t.set_shift in
  let set_idx = line land t.set_mask in
  find_in_set t.tags (set_idx * t.ways) t.fill.(set_idx) line >= 0

let accesses t = t.accesses
let hits t = t.hits
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0.0 else float_of_int t.misses /. float_of_int t.accesses

let reset_stats t =
  t.accesses <- 0;
  t.hits <- 0;
  t.misses <- 0

let clear t =
  let invalidate a = Array.fill a 0 (Array.length a) invalid_tag in
  invalidate t.tags;
  invalidate t.ages;
  invalidate t.owners;
  Array.fill t.fill 0 (Array.length t.fill) 0;
  reset_stats t

let resident_lines t = Array.fold_left ( + ) 0 t.fill

let owner_lines t ~owner =
  if Array.length t.owners > 0 then begin
    let total = ref 0 in
    Array.iteri
      (fun set_idx fill ->
        let base = set_idx * t.ways in
        for i = base to base + fill - 1 do
          if t.owners.(i) = owner then incr total
        done)
      t.fill;
    !total
  end
  else if owner = 0 then resident_lines t
  else 0

(* Order: the three statistics, the Random policy's PRNG state (if any),
   then [fill], [tags], [ages] and [owners]. *)
let save t put =
  put t.accesses;
  put t.hits;
  put t.misses;
  Option.iter (fun rng -> Mppm_util.Rng.save rng put) t.rng;
  List.iter (Array.iter put) [ t.fill; t.tags; t.ages; t.owners ]

let restore t get =
  t.accesses <- get ();
  t.hits <- get ();
  t.misses <- get ();
  Option.iter (fun rng -> Mppm_util.Rng.restore rng get) t.rng;
  List.iter
    (fun a -> Array.iteri (fun i _ -> a.(i) <- get ()) a)
    [ t.fill; t.tags; t.ages; t.owners ];
  Array.iter
    (fun n ->
      if n < 0 || n > t.ways then invalid_arg "Cache.restore: corrupt set fill")
    t.fill
