(* Identity and allocation of the model's quantum: prefix-sum profile
   windows must reproduce the interval walk they replaced to 1e-12
   relative (bit for bit where both are exact), cell-accumulated SDC
   queries and caller-owned contention predictions must reproduce the
   allocating forms they replaced bit for bit, and the per-quantum path
   must allocate nothing. *)

module Profile = Mppm_profile.Profile
module Sdc = Mppm_cache.Sdc
module Contention = Mppm_contention.Contention
module Model = Mppm_core.Model
module Rng = Mppm_util.Rng

let bits = Int64.bits_of_float

(* ---- Reference walk --------------------------------------------------------

   The allocating window walk the prefix windows replaced, with its
   arithmetic unchanged, kept as the oracle: a scaled copy of each
   fragment's SDC added into a fresh one, the five sums rebuilt through a
   record per fragment, and the start interval found by recursion over a
   float offset.  It adds the intervals one by one, so it rounds at the
   scale of the window where the prefix windows round at the scale of
   the trace.  The walk stopped once at most 1e-9 instructions remained,
   dropping that last fragment; the prefix windows keep it, so the oracle
   walks to the end (the one change to its arithmetic). *)

type reference = {
  r_instructions : float;
  r_cycles : float;
  r_memory_stall_cycles : float;
  r_llc_accesses : float;
  r_llc_misses : float;
  r_sdc : Sdc.t;
}

let reference_window (t : Profile.t) ~start ~count =
  let trace_len = float_of_int (Profile.total_instructions t) in
  let acc_sdc = Sdc.create ~assoc:t.Profile.llc_assoc in
  let acc =
    ref
      {
        r_instructions = 0.0;
        r_cycles = 0.0;
        r_memory_stall_cycles = 0.0;
        r_llc_accesses = 0.0;
        r_llc_misses = 0.0;
        r_sdc = acc_sdc;
      }
  in
  let add_fraction (iv : Profile.interval) frac =
    if frac > 0.0 then begin
      let a = !acc in
      Sdc.add_into ~dst:acc_sdc (Sdc.scale iv.Profile.sdc frac);
      acc :=
        {
          a with
          r_instructions =
            a.r_instructions +. (float_of_int iv.Profile.instructions *. frac);
          r_cycles = a.r_cycles +. (iv.Profile.cycles *. frac);
          r_memory_stall_cycles =
            a.r_memory_stall_cycles +. (iv.Profile.memory_stall_cycles *. frac);
          r_llc_accesses = a.r_llc_accesses +. (iv.Profile.llc_accesses *. frac);
          r_llc_misses = a.r_llc_misses +. (iv.Profile.llc_misses *. frac);
        }
    end
  in
  let intervals = Profile.intervals t in
  let pos = Float.rem start trace_len in
  let remaining = ref count in
  let rec locate i off =
    let len = float_of_int intervals.(i).Profile.instructions in
    if pos < off +. len || Int.equal i (Array.length intervals - 1) then
      (i, pos -. off)
    else locate (i + 1) (off +. len)
  in
  let idx, offset = locate 0 0.0 in
  let idx = ref idx and offset = ref offset in
  while !remaining > 0.0 do
    let iv = intervals.(!idx) in
    let len = float_of_int iv.Profile.instructions in
    let take = Float.min (len -. !offset) !remaining in
    add_fraction iv (take /. len);
    remaining := !remaining -. take;
    offset := 0.0;
    idx := (!idx + 1) mod Array.length intervals
  done;
  !acc

(* ---- Generated profiles and windows --------------------------------------- *)

(* Interval lengths that are either all the nominal one (the profiled
   shape, where the interval search answers at its first guess) or random
   (where it falls back to binary search), with a short last interval,
   fractional timing and fractional SDC counters (whole numbers with
   [~integer]); up to 64 intervals, so a binary search halves its range
   several times. *)
let random_profile ?(integer = false) rng =
  let draw bound =
    if integer then float_of_int (Rng.int rng (max 1 (int_of_float bound)))
    else Rng.float rng bound
  in
  let assoc = Rng.int_in rng ~lo:1 ~hi:16 in
  let n = Rng.int_in rng ~lo:1 ~hi:64 in
  let nominal = Rng.int_in rng ~lo:1 ~hi:5_000 in
  let uniform = Rng.bernoulli rng ~p:0.5 in
  let interval i =
    let instructions =
      if Int.equal i (n - 1) then 1 + Rng.int rng (max 1 (nominal / 3))
      else if uniform then nominal
      else Rng.int_in rng ~lo:1 ~hi:(2 * nominal)
    in
    let counters = List.init (assoc + 1) (fun _ -> draw 1_000.0) in
    let sdc = Sdc.of_list ~assoc counters in
    {
      Profile.instructions;
      cycles = draw (3.0 *. float_of_int instructions);
      memory_stall_cycles = draw (float_of_int instructions);
      llc_accesses = Sdc.accesses sdc;
      llc_misses = Sdc.misses sdc;
      sdc;
    }
  in
  Profile.make ~benchmark:"generated" ~interval_instructions:nominal
    ~llc_assoc:assoc (Array.init n interval)

(* The n + 1 interval boundaries of one trace, from 0 to its length,
   summed here rather than read from the profile's interval starts. *)
let boundaries (p : Profile.t) =
  let intervals = Profile.intervals p in
  let b = Array.make (Array.length intervals + 1) 0 in
  Array.iteri (fun k iv -> b.(k + 1) <- b.(k) + iv.Profile.instructions) intervals;
  Array.map float_of_int b

(* Starts at random positions, on exact interval boundaries, at multiples
   of the trace length and beyond five traces; counts from 1e-9 up to 20
   traces. *)
let random_window rng (p : Profile.t) =
  let trace = float_of_int (Profile.total_instructions p) in
  let boundary () = (boundaries p).(Rng.int rng (Array.length (Profile.intervals p))) in
  let start =
    match Rng.int rng 4 with
    | 0 -> Rng.float rng (7.0 *. trace)
    | 1 -> boundary () +. (trace *. float_of_int (Rng.int rng 8))
    | 2 -> trace *. float_of_int (Rng.int rng 8)
    | _ -> (5.0 *. trace) +. Rng.float rng (3.0 *. trace)
  in
  let count =
    match Rng.int rng 4 with
    | 0 -> 1e-9 *. (1.0 +. Rng.float rng 10.0)
    | 1 -> 1e-9 *. (10.0 ** Rng.float rng 10.0) *. trace *. 2.0
    | 2 -> float_of_int (Profile.intervals p).(0).Profile.instructions
    | _ -> Rng.float rng (20.0 *. trace)
  in
  (start, if count > 0.0 then count else 1e-9)

let same_bits a b = Int64.equal (bits a) (bits b)

let same_counters a b =
  List.for_all2 same_bits (Sdc.to_list a) (Sdc.to_list b)

(* A window's five sums, then its SDC counters. *)
let reference_values r =
  [ r.r_instructions; r.r_cycles; r.r_memory_stall_cycles; r.r_llc_accesses;
    r.r_llc_misses ]
  @ Sdc.to_list r.r_sdc

let window_values (w : Profile.window) =
  [ w.Profile.w_instructions; w.Profile.w_cycles; w.Profile.w_memory_stall_cycles;
    w.Profile.w_llc_accesses; w.Profile.w_llc_misses ]
  @ Sdc.to_list w.Profile.w_sdc

let sums_values sums sdc =
  List.map
    (fun c -> sums.(c))
    [ Profile.sum_instructions; Profile.sum_cycles; Profile.sum_memory_stall_cycles;
      Profile.sum_llc_accesses; Profile.sum_llc_misses ]
  @ Sdc.to_list sdc

let interval_values (iv : Profile.interval) =
  [ float_of_int iv.Profile.instructions; iv.Profile.cycles;
    iv.Profile.memory_stall_cycles; iv.Profile.llc_accesses; iv.Profile.llc_misses ]
  @ Sdc.to_list iv.Profile.sdc

(* Per value, the magnitude of the prefix rows a window reads, where it
   rounds at the scale of the trace rather than of the window: the row
   after its start interval, the row of its end interval and one
   whole-trace row per lap.  A window that spans no whole interval reads
   none (its prefix difference is exactly zero), and instructions read no
   prefix row, so both are held to the relative bound alone.  Rounding at
   the window's edges only widens this: a whole interval is counted from
   1e-6 instructions short of it, and the end is taken one instruction
   late. *)
let prefix_reads (p : Profile.t) ~start ~count =
  let b = boundaries p in
  let n = Array.length b - 1 in
  let trace = Profile.total_instructions p in
  let stride = Array.length p.Profile.prefix / (n + 1) in
  (* The traces before position [x] of the unrolled trace, and the
     interval holding it. *)
  let locate x =
    let r = float_of_int (x mod trace) in
    let k = ref (n - 1) in
    while b.(!k) > r do decr k done;
    (x / trace, !k)
  in
  let whole_start = int_of_float start in
  let from = start -. float_of_int (whole_start - (whole_start mod trace)) in
  let _, s = locate (whole_start mod trace) in
  let next = (s + 1) mod n in
  let spans_whole = from +. count >= b.(s + 1) +. (b.(next + 1) -. b.(next)) -. 1e-6 in
  let laps, e = locate (int_of_float (from +. count) + 1) in
  let row k c = p.Profile.prefix.((k * stride) + c) in
  0.0
  :: List.init stride (fun c ->
         if spans_whole then row (s + 1) c +. row e c +. (float_of_int laps *. row n c)
         else 0.0)

(* Profile.mli's error bound: a relative error of at most 1e-12, or an
   absolute one of at most 1e-13 of the prefix rows it reads, [read]. *)
let close read a b =
  let d = Float.abs (a -. b) in
  d <= 1e-12 *. Float.max (Float.abs a) (Float.abs b) || d <= 1e-13 *. read

let exact _ a b = same_bits a b

(* [fill_window], [window] and [fill_window_cpi] each agree with the
   reference walk under [eq]. *)
let fill_matches ~eq p ~start ~count =
  let expected = reference_values (reference_window p ~start ~count) in
  let reads = prefix_reads p ~start ~count in
  let matches got =
    List.for_all2 (fun (read, e) g -> eq read e g) (List.combine reads expected) got
  in
  let sums = Array.make Profile.sums_length nan in
  let sdc = Sdc.create ~assoc:p.Profile.llc_assoc in
  Sdc.record sdc ~depth:1;
  Profile.fill_window p ~start:[| start |] ~count:[| count |] 0 ~sums sdc;
  let full = matches (sums_values sums sdc) in
  let wrapper = matches (window_values (Profile.window p ~start ~count)) in
  Array.fill sums 0 Profile.sums_length nan;
  Profile.fill_window_cpi p ~start:[| 0.0; start |] ~count:[| 1.0; count |] 1 ~sums;
  let cpi_only =
    match List.combine reads expected with
    | (si, i) :: (sc, c) :: _ ->
        eq si i sums.(Profile.sum_instructions)
        && eq sc c sums.(Profile.sum_cycles)
        && List.for_all
             (fun c -> Float.equal sums.(c) 0.0)
             [ Profile.sum_memory_stall_cycles; Profile.sum_llc_accesses;
               Profile.sum_llc_misses ]
    | _ -> false
  in
  full && wrapper && cpi_only

let fill_matches_reference seed =
  let rng = Rng.create ~seed in
  let p = random_profile rng in
  let start, count = random_window rng p in
  fill_matches ~eq:close p ~start ~count

(* Every interval boundary of the trace and of its next three laps, and
   the floats one ulp either side of it: the starts where the search for
   the start interval could land one interval off. *)
let boundary_starts_match seed =
  let rng = Rng.create ~seed in
  let p = random_profile rng in
  let trace = float_of_int (Profile.total_instructions p) in
  let counts =
    [ 1e-9; 1.0; float_of_int (Profile.intervals p).(0).Profile.instructions;
      trace; Rng.float rng (3.0 *. trace) +. 1e-9 ]
  in
  Array.for_all
    (fun b ->
      List.for_all
        (fun lap ->
          let at = b +. (trace *. float_of_int lap) in
          List.for_all
            (fun start ->
              start < 0.0
              || List.for_all (fun count -> fill_matches ~eq:close p ~start ~count) counts)
            [ Float.pred at; at; Float.succ at ])
        [ 0; 1; 2; 3 ])
    (boundaries p)

let interval_fold p =
  Array.fold_left (fun acc iv -> acc + iv.Profile.instructions) 0 (Profile.intervals p)

(* total_instructions is read from the cached interval starts; it must
   equal the fold over the intervals, for a made and a loaded profile. *)
let total_is_fold seed =
  let p = random_profile (Rng.create ~seed) in
  let path = Filename.temp_file "mppm-window" ".prof" in
  let q =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Profile.save p path;
        Profile.load path)
  in
  Int.equal (Profile.total_instructions p) (interval_fold p)
  && Int.equal (Profile.total_instructions q) (interval_fold q)
  && Int.equal (interval_fold p) (interval_fold q)

(* Whole-number counts, and windows that start and end on interval
   boundaries, some laps apart: every fraction is 0 or 1 and every sum a
   whole number, so the walk and the prefix window are both exact and
   must agree bit for bit. *)
let boundary_windows_exact seed =
  let rng = Rng.create ~seed in
  let p = random_profile ~integer:true rng in
  let b = boundaries p in
  let n = Array.length b - 1 in
  let trace = b.(n) in
  List.for_all
    (fun _ ->
      let first = Rng.int rng n and last = Rng.int rng (n + 1) in
      let laps = Rng.int rng 4 in
      let count = b.(last) -. b.(first) +. (trace *. float_of_int laps) in
      let start = b.(first) +. (trace *. float_of_int (Rng.int rng 3)) in
      count <= 0.0 || fill_matches ~eq:exact p ~start ~count)
    (List.init 30 Fun.id)

(* A window of [k] whole traces plus [r] instructions is [k] times the
   trace totals plus the [r] window. *)
let laps_add_up seed =
  let rng = Rng.create ~seed in
  let p = random_profile rng in
  let start, r = random_window rng p in
  let k = float_of_int (Rng.int_in rng ~lo:1 ~hi:6) in
  let assoc = p.Profile.llc_assoc in
  let fill count =
    let sums = Array.make Profile.sums_length nan and sdc = Sdc.create ~assoc in
    Profile.fill_window p ~start:[| start |] ~count:[| count |] 0 ~sums sdc;
    sums_values sums sdc
  in
  let count = (k *. float_of_int (Profile.total_instructions p)) +. r in
  List.for_all2
    (fun (read, got) (lap, rest) -> close read got ((k *. lap) +. rest))
    (List.combine (prefix_reads p ~start ~count) (fill count))
    (List.combine (interval_values (Profile.totals p)) (fill r))

(* The whole-trace reads (the last prefix row) equal the left-to-right
   folds over the intervals they replaced, bit for bit, on fractional
   counts. *)
let totals_are_folds seed =
  let p = random_profile (Rng.create ~seed) in
  let intervals = Profile.intervals p in
  let fold field = Array.fold_left (fun acc iv -> acc +. field iv) 0.0 intervals in
  let insns = float_of_int (interval_fold p) in
  let t = Profile.totals p in
  Int.equal t.Profile.instructions (interval_fold p)
  && same_bits t.Profile.cycles (fold (fun iv -> iv.Profile.cycles))
  && same_bits t.Profile.memory_stall_cycles (fold (fun iv -> iv.Profile.memory_stall_cycles))
  && same_bits t.Profile.llc_accesses (fold (fun iv -> iv.Profile.llc_accesses))
  && same_bits t.Profile.llc_misses (fold (fun iv -> iv.Profile.llc_misses))
  && same_counters t.Profile.sdc
       (Array.fold_left
          (fun acc iv -> Sdc.add acc iv.Profile.sdc)
          (Sdc.create ~assoc:p.Profile.llc_assoc)
          intervals)
  && same_bits (Profile.total_cycles p) (fold (fun iv -> iv.Profile.cycles))
  && same_bits (Profile.memory_cpi p) (fold (fun iv -> iv.Profile.memory_stall_cycles) /. insns)
  && same_bits (Profile.llc_mpki p) (fold (fun iv -> iv.Profile.llc_misses) *. 1000.0 /. insns)
  &&
  let misses = fold (fun iv -> iv.Profile.llc_misses) in
  same_bits (Profile.miss_penalty p)
    (if misses > 0.0 then fold (fun iv -> iv.Profile.memory_stall_cycles) /. misses else 0.0)

(* ---- SDC queries against their fold definitions ---------------------------- *)

let fold_accesses sdc = List.fold_left ( +. ) 0.0 (Sdc.to_list sdc)

let fold_misses_with_ways sdc ~ways =
  let assoc = Sdc.assoc sdc in
  if ways >= float_of_int assoc then Sdc.misses sdc
  else
    let k = int_of_float (floor ways) in
    let frac = ways -. float_of_int k in
    let deeper from =
      List.fold_left ( +. ) 0.0 (List.filteri (fun i _ -> i >= from) (Sdc.to_list sdc))
    in
    let lo = deeper k and hi = deeper (k + 1) in
    lo +. (frac *. (hi -. lo))

let sdc_matches_folds seed =
  let rng = Rng.create ~seed in
  let assoc = Rng.int_in rng ~lo:1 ~hi:16 in
  let sdc =
    Sdc.of_list ~assoc (List.init (assoc + 1) (fun _ -> Rng.float rng 1_000.0))
  in
  let ways =
    if Rng.bernoulli rng ~p:0.3 then float_of_int (Rng.int rng (assoc + 2))
    else Rng.float rng (float_of_int assoc +. 1.0)
  in
  let cell = [| nan |] in
  Sdc.misses_with_ways_into sdc ~ways:[| ways |] cell 0;
  same_bits (fold_accesses sdc) (Sdc.accesses sdc)
  && same_bits (fold_misses_with_ways sdc ~ways) (Sdc.misses_with_ways sdc ~ways)
  && same_bits (fold_misses_with_ways sdc ~ways) cell.(0)

(* ---- Contention into a reused prediction ------------------------------------ *)

let models =
  [
    Contention.Foa;
    Contention.Sdc_competition;
    Contention.Prob { iterations = 4 };
    Contention.Way_partition [| 4.0; 2.0; 1.5; 1.0; 0.5; 7.0 |];
  ]

let random_sdcs rng =
  let assoc = Rng.int_in rng ~lo:1 ~hi:16 in
  let n = Rng.int_in rng ~lo:1 ~hi:6 in
  let idle = Rng.bernoulli rng ~p:0.1 in
  Array.init n (fun _ ->
      Sdc.of_list ~assoc
        (List.init (assoc + 1) (fun _ -> if idle then 0.0 else Rng.float rng 500.0)))

let same_arrays a b = Array.for_all2 same_bits a b

(* The allocating contention models the into-forms replaced, kept as the
   oracle: per-program vectors from Array.map and folds. *)
let reference_predict model sdcs =
  let n = Array.length sdcs in
  let assoc = Sdc.assoc sdcs.(0) in
  let misses_at ways = Array.mapi (fun i sdc -> Sdc.misses_with_ways sdc ~ways:ways.(i)) sdcs in
  let no_contention () = (Array.map Sdc.misses sdcs, Array.make n (float_of_int assoc)) in
  let shared, ways =
    match model with
    | Contention.Way_partition quotas ->
        let ways = Array.mapi (fun i _ -> Float.min quotas.(i) (float_of_int assoc)) sdcs in
        (misses_at ways, ways)
    | Contention.Foa | Contention.Sdc_competition | Contention.Prob _
      when Int.equal n 1 ->
        no_contention ()
    | Contention.Foa ->
        let accesses = Array.map fold_accesses sdcs in
        let total = Array.fold_left ( +. ) 0.0 accesses in
        if total <= 0.0 then no_contention ()
        else
          let ways = Array.map (fun a -> float_of_int assoc *. a /. total) accesses in
          (misses_at ways, ways)
    | Contention.Sdc_competition ->
        let owned = Array.make n 0 in
        for _ = 1 to assoc do
          let best = ref (-1) and best_gain = ref neg_infinity in
          for q = 0 to n - 1 do
            if owned.(q) < assoc then begin
              let gain = Sdc.counter sdcs.(q) (owned.(q) + 1) in
              if gain > !best_gain then begin
                best_gain := gain;
                best := q
              end
            end
          done;
          if !best >= 0 then owned.(!best) <- owned.(!best) + 1
        done;
        let ways = Array.map float_of_int owned in
        (misses_at ways, ways)
    | Contention.Prob { iterations } ->
        let accesses = Array.map fold_accesses sdcs in
        let shared = Array.map Sdc.misses sdcs in
        let ways = Array.make n (float_of_int assoc) in
        for _ = 1 to max 1 iterations do
          let total = Array.fold_left ( +. ) 0.0 shared in
          for q = 0 to n - 1 do
            if accesses.(q) > 0.0 then begin
              let dilation = 1.0 +. ((total -. shared.(q)) /. accesses.(q)) in
              ways.(q) <- float_of_int assoc /. dilation;
              shared.(q) <- fold_misses_with_ways sdcs.(q) ~ways:ways.(q)
            end
          done
        done;
        (shared, ways)
  in
  let isolated = Array.map Sdc.misses sdcs in
  (isolated, shared, Array.mapi (fun i s -> Float.max 0.0 (s -. isolated.(i))) shared, ways)

let predict_into_matches seed =
  let rng = Rng.create ~seed in
  let sdcs = random_sdcs rng in
  let n = Array.length sdcs in
  (* One buffer per size, reused across models and filled with garbage:
     every cell must be overwritten. *)
  let p = Contention.make_prediction n in
  List.for_all
    (fun model ->
      List.iter
        (fun a -> Array.fill a 0 n nan)
        [ p.Contention.isolated_misses; p.Contention.shared_misses;
          p.Contention.extra_misses; p.Contention.effective_ways ];
      Contention.predict_into model sdcs p;
      let q = Contention.predict model sdcs in
      let isolated, shared, extra, ways = reference_predict model sdcs in
      let matches (x : Contention.prediction) =
        same_arrays isolated x.Contention.isolated_misses
        && same_arrays shared x.Contention.shared_misses
        && same_arrays extra x.Contention.extra_misses
        && same_arrays ways x.Contention.effective_ways
      in
      matches p && matches q)
    models

(* ---- Allocation -------------------------------------------------------------- *)

let minor_words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let check_zero what words =
  Alcotest.(check (float 0.0)) (what ^ ": minor words") 0.0 words

let test_fill_allocation_free () =
  if not (Mppm_util.Invariant.enabled ()) then begin
    let rng = Rng.create ~seed:11 in
    let p = random_profile rng in
    let trace = float_of_int (Profile.total_instructions p) in
    let starts = Array.init 64 (fun k -> float_of_int k *. trace /. 7.0) in
    let counts = Array.init 64 (fun k -> 1.0 +. (float_of_int k *. trace /. 5.0)) in
    let sums = Array.make Profile.sums_length 0.0 in
    let sdc = Sdc.create ~assoc:p.Profile.llc_assoc in
    check_zero "fill_window"
      (minor_words (fun () ->
           for k = 0 to 63 do
             Profile.fill_window p ~start:starts ~count:counts k ~sums sdc
           done));
    check_zero "fill_window_cpi"
      (minor_words (fun () ->
           for k = 0 to 63 do
             Profile.fill_window_cpi p ~start:starts ~count:counts k ~sums
           done))
  end

let test_predict_into_allocation_free () =
  if not (Mppm_util.Invariant.enabled ()) then begin
    let rng = Rng.create ~seed:5 in
    let sdcs =
      Array.init 4 (fun _ ->
          Sdc.of_list ~assoc:16 (List.init 17 (fun _ -> Rng.float rng 500.0)))
    in
    let p = Contention.make_prediction 4 in
    List.iter
      (fun model ->
        check_zero (Contention.model_name model)
          (minor_words (fun () ->
               for _ = 1 to 100 do
                 Contention.predict_into model sdcs p
               done)))
      models
  end

(* A run's allocation is its set-up and its result: doubling the number of
   quanta must add less than one word per extra quantum. *)
let test_model_quantum_allocation_free () =
  if not (Mppm_util.Invariant.enabled ()) then begin
    let rng = Rng.create ~seed:3 in
    let assoc = 16 in
    let profile name =
      let intervals =
        Array.init 20 (fun _ ->
            let sdc =
              Sdc.of_list ~assoc (List.init (assoc + 1) (fun _ -> Rng.float rng 400.0))
            in
            {
              Profile.instructions = 10_000;
              cycles = 10_000.0 *. (0.5 +. Rng.float rng 2.0);
              memory_stall_cycles = 10_000.0 *. Rng.float rng 0.5;
              llc_accesses = Sdc.accesses sdc;
              llc_misses = Sdc.misses sdc;
              sdc;
            })
      in
      Profile.make ~benchmark:name ~interval_instructions:10_000 ~llc_assoc:assoc
        intervals
    in
    let profiles = Array.map profile [| "a"; "b"; "c"; "d" |] in
    let run multiplier =
      let params =
        {
          (Model.default_params ~trace_instructions:200_000) with
          Model.stop_trace_multiplier = multiplier;
        }
      in
      let iterations = ref 0 in
      let words =
        minor_words (fun () ->
            iterations := (Model.predict_profiles params profiles).Model.iterations)
      in
      (words, !iterations)
    in
    let w5, i5 = run 5.0 and w10, i10 = run 10.0 in
    Alcotest.(check bool) "more quanta" true (i10 > i5);
    let per_quantum = (w10 -. w5) /. float_of_int (i10 - i5) in
    if per_quantum >= 1.0 then
      Alcotest.failf "%.2f extra words per extra quantum (%d -> %d quanta)"
        per_quantum i5 i10
  end

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"fill_window = reference walk, within 1e-12" ~count:500
      (int_bound 1_000_000) fill_matches_reference;
    Test.make ~name:"starts at interval boundaries = reference walk, within 1e-12"
      ~count:40 (int_bound 1_000_000) boundary_starts_match;
    Test.make ~name:"total_instructions = interval fold" ~count:100
      (int_bound 1_000_000) total_is_fold;
    Test.make ~name:"whole counts, boundary windows = reference walk, bit for bit"
      ~count:200 (int_bound 1_000_000) boundary_windows_exact;
    Test.make ~name:"k traces + r = k x totals + r window" ~count:300
      (int_bound 1_000_000) laps_add_up;
    Test.make ~name:"whole-trace reads = interval folds, bit for bit" ~count:200
      (int_bound 1_000_000) totals_are_folds;
    Test.make ~name:"Sdc queries = their folds, bit for bit" ~count:500
      (int_bound 1_000_000) sdc_matches_folds;
    Test.make ~name:"predict_into = predict = reference models" ~count:300
      (int_bound 1_000_000) predict_into_matches;
  ]

let tests =
  [
    ( "window.allocation",
      [
        Alcotest.test_case "fill allocates nothing" `Quick test_fill_allocation_free;
        Alcotest.test_case "predict_into allocates nothing" `Quick
          test_predict_into_allocation_free;
        Alcotest.test_case "model quantum allocates nothing" `Quick
          test_model_quantum_allocation_free;
      ] );
    ("window.bit_identity", List.map QCheck_alcotest.to_alcotest qcheck_tests);
  ]
