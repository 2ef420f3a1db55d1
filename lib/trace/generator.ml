let instructions_per_fetch = 16
let page_bytes = 4096
let line_bytes = 64

let round_to_page bytes = (bytes + page_bytes - 1) / page_bytes * page_bytes

(* Per-region runtime state: the base address in the generator's address
   space and, for Sequential/Strided patterns, the running cursor. *)
type region_state = {
  region : Benchmark.region;
  base : int;
  lines : int;  (* lines in the region, at least 1 *)
  mutable cursor : int;
}

type phase_state = {
  phase : Benchmark.phase;
  duration : int;
  cum_weights : float array;
      (** running sums of the region weights, left to right *)
  total_weight : float;
  inv_log_one_minus_p : float;
      (** 1 / ln(1 - mem_ratio), precomputed for geometric gap draws; 0 when
          mem_ratio is 0 or 1 *)
  region_states : region_state array;
}

type t = {
  bench : Benchmark.t;
  rng : Mppm_util.Rng.t;
  fetch_rng : Mppm_util.Rng.t;
      (* The fetch stream draws from its own PRNG stream so that the data
         stream is invariant to how the caller blocks its [next] calls
         relative to [next_fetch]. *)
  offset : int;
  phases : phase_state array;
  regions : region_state array;  (* each distinct region once, laid-out order *)
  mutable phase_idx : int;
  mutable phase_remaining : int;
  mutable retired : int;
  (* Compute instructions owed before the pending memory access, and the
     memory ratio it was drawn under (a phase switch invalidates it). *)
  mutable pending_gap : int;
  mutable pending_valid : bool;
  mutable pending_ratio : float;
  (* The block {!emit} produced last: its access kind (0 = none, 1 = load,
     2 = store) and byte address. *)
  mutable emitted_kind : int;
  mutable emitted_addr : int;
  (* Fetch stream state. *)
  code_lines : int;
  mutable fetch_cursor : int;
  address_space_bytes : int;
}

let lines_in bytes = max 1 (bytes / line_bytes)

let create ?(offset = 0) ~seed bench =
  Benchmark.validate bench;
  let rng = Mppm_util.Rng.create ~seed in
  let fetch_rng = Mppm_util.Rng.split rng in
  (* Lay out the address space: code first, then each distinct region (by
     name) page-aligned, in first-appearance order. *)
  let next_free = ref (round_to_page bench.Benchmark.code_bytes) in
  let shared_states : (string, region_state) Hashtbl.t = Hashtbl.create ~random:false 16 in
  let laid_out = ref [] in
  let state_for (region : Benchmark.region) =
    match Hashtbl.find_opt shared_states region.Benchmark.region_name with
    | Some st -> st
    | None ->
        let base = !next_free in
        next_free := !next_free + round_to_page region.Benchmark.size_bytes;
        let st =
          { region; base; lines = lines_in region.Benchmark.size_bytes; cursor = 0 }
        in
        Hashtbl.add shared_states region.Benchmark.region_name st;
        laid_out := st :: !laid_out;
        st
  in
  let phases =
    bench.Benchmark.schedule
    |> List.map (fun ((phase : Benchmark.phase), duration) ->
           let region_states =
             Array.of_list (List.map state_for phase.Benchmark.regions)
           in
           let weights =
             Array.map (fun st -> st.region.Benchmark.weight) region_states
           in
           let cum_weights = Array.copy weights in
           for i = 1 to Array.length cum_weights - 1 do
             cum_weights.(i) <- cum_weights.(i - 1) +. weights.(i)
           done;
           let p = phase.Benchmark.mem_ratio in
           {
             phase;
             duration;
             cum_weights;
             total_weight = Array.fold_left ( +. ) 0.0 weights;
             inv_log_one_minus_p =
               (if p > 0.0 && p < 1.0 then 1.0 /. log (1.0 -. p) else 0.0);
             region_states;
           })
    |> Array.of_list
  in
  {
    bench;
    rng;
    fetch_rng;
    offset;
    phases;
    regions = Array.of_list (List.rev !laid_out);
    phase_idx = 0;
    phase_remaining = phases.(0).duration;
    retired = 0;
    pending_gap = 0;
    pending_valid = false;
    pending_ratio = 0.0;
    emitted_kind = 0;
    emitted_addr = 0;
    code_lines = lines_in bench.Benchmark.code_bytes;
    fetch_cursor = 0;
    address_space_bytes = !next_free;
  }

let benchmark t = t.bench

(* The float [pending_ratio] travels as its IEEE bits in two 32-bit
   halves, so the state is a plain int sequence. *)
let save t put =
  let ratio = Int64.bits_of_float t.pending_ratio in
  Mppm_util.Rng.save t.rng put;
  Mppm_util.Rng.save t.fetch_rng put;
  put t.phase_idx;
  put t.phase_remaining;
  put t.retired;
  put t.pending_gap;
  put (Bool.to_int t.pending_valid);
  put (Int64.to_int (Int64.shift_right_logical ratio 32));
  put (Int64.to_int (Int64.logand ratio 0xFFFF_FFFFL));
  put t.fetch_cursor;
  Array.iter (fun st -> put st.cursor) t.regions

let restore t get =
  Mppm_util.Rng.restore t.rng get;
  Mppm_util.Rng.restore t.fetch_rng get;
  let phase_idx = get () in
  if phase_idx < 0 || phase_idx >= Array.length t.phases then
    invalid_arg "Generator.restore: phase index out of range";
  t.phase_idx <- phase_idx;
  t.phase_remaining <- get ();
  t.retired <- get ();
  t.pending_gap <- get ();
  t.pending_valid <- get () <> 0;
  let hi = get () in
  let lo = get () in
  t.pending_ratio <-
    Int64.float_of_bits
      (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo));
  t.fetch_cursor <- get ();
  Array.iter (fun st -> st.cursor <- get ()) t.regions

let retired t = t.retired
let current_phase t = t.phases.(t.phase_idx).phase
let address_space_bytes t = t.address_space_bytes

(* Advance the retired-instruction clock by [k], rolling phases over. [k]
   never exceeds the current phase's remaining budget (callers clamp). *)
let advance t k =
  t.retired <- t.retired + k;
  t.phase_remaining <- t.phase_remaining - k;
  if Int.equal t.phase_remaining 0 then begin
    t.phase_idx <- (t.phase_idx + 1) mod Array.length t.phases;
    t.phase_remaining <- t.phases.(t.phase_idx).duration
  end

(* Uniform draws are scaled here rather than through [Rng.float], whose
   boxed float result would allocate per draw: same bits, same products. *)
let float_scale = 0x1p-53

(* A cursor just advanced by one step, wrapped into [0, size): a compare
   instead of a division whenever the step lands in range. *)
let wrap c size = if c < size then c else c mod size

(* mppm: unit _ -- byte address *)
let region_address t (st : region_state) =
  let open Benchmark in
  let within =
    match st.region.region_pattern with
    | Uniform -> Mppm_util.Rng.int t.rng st.lines * line_bytes
    | Sequential ->
        let a = st.cursor in
        st.cursor <- wrap (a + line_bytes) st.region.size_bytes;
        a
    | Strided stride ->
        let a = st.cursor in
        st.cursor <- wrap (a + stride) st.region.size_bytes;
        a
  in
  t.offset + st.base + within

(* mppm: unit insns -- compute-gap draw between accesses *)
let draw_gap t (ps : phase_state) =
  if ps.phase.Benchmark.mem_ratio >= 1.0 then 0
  else
    (* Inverse-CDF geometric draw with the log precomputed per phase. *)
    let u = float_of_int (Mppm_util.Rng.bits53 t.rng) *. float_scale in
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (log u *. ps.inv_log_one_minus_p)

(* The first region from [i] whose running weight exceeds the target drawn
   as [bits] (the last region if none does).  The target is recomputed from
   the int draw at each step, so the scan passes no float argument: a
   float parameter would be boxed per call. *)
(* mppm: unit _ -- weighted index scan *)
let rec scan_regions (ps : phase_state) bits i =
  if i >= Array.length ps.cum_weights - 1 then i
  else if float_of_int bits *. float_scale *. ps.total_weight < ps.cum_weights.(i)
  then i
  else scan_regions ps bits (i + 1)

(* mppm: unit _ -- weighted region index draw *)
let pick_region t (ps : phase_state) =
  scan_regions ps (Mppm_util.Rng.bits53 t.rng) 0

(* mppm: unit _ -> cap:insns -> insns *)
let emit t ~cap =
  if cap < 1 then invalid_arg "Generator.emit: cap must be >= 1";
  let ps = t.phases.(t.phase_idx) in
  let phase = ps.phase in
  let limit = if cap < t.phase_remaining then cap else t.phase_remaining in
  if phase.Benchmark.mem_ratio <= 0.0 then begin
    (* Pure-compute phase: no access can occur before the phase ends. *)
    t.pending_valid <- false;
    advance t limit;
    t.emitted_kind <- 0;
    limit
  end
  else begin
    if not (t.pending_valid && Float.equal t.pending_ratio phase.Benchmark.mem_ratio)
    then begin
      t.pending_gap <- draw_gap t ps;
      t.pending_valid <- true;
      t.pending_ratio <- phase.Benchmark.mem_ratio
    end;
    if t.pending_gap + 1 > limit then begin
      (* The access does not fit: emit compute and keep owing it. *)
      t.pending_gap <- t.pending_gap - limit;
      advance t limit;
      t.emitted_kind <- 0;
      limit
    end
    else begin
      let gap = t.pending_gap in
      t.pending_valid <- false;
      let region_idx = pick_region t ps in
      t.emitted_addr <- region_address t ps.region_states.(region_idx);
      t.emitted_kind <-
        (if Mppm_util.Rng.bernoulli t.rng ~p:phase.Benchmark.store_fraction then 2
         else 1);
      advance t (gap + 1);
      gap + 1
    end
  end

let emitted_kind t = t.emitted_kind
let emitted_addr t = t.emitted_addr

(* mppm: unit _ -> cap:insns -> op *)
let next t ~cap =
  if cap < 1 then invalid_arg "Generator.next: cap must be >= 1";
  let n = emit t ~cap in
  match t.emitted_kind with
  | 0 -> Op.compute n
  | kind ->
      Op.memory ~gap:(n - 1) ~addr:t.emitted_addr
        ~kind:(match kind with 2 -> Op.Store | _ -> Op.Load)

(* mppm: unit op -- generated fetch op *)
let next_fetch t =
  (* Fetches cycle sequentially through the hot loop body (so the L1I sees
     steady reuse to the extent the loop fits), with occasional excursions
     into the cold code footprint. *)
  if Mppm_util.Rng.bernoulli t.fetch_rng ~p:t.bench.Benchmark.cold_fetch_rate
  then
    t.offset
    + (Mppm_util.Rng.int t.fetch_rng t.code_lines * line_bytes)
  else begin
    t.fetch_cursor <-
      wrap (t.fetch_cursor + line_bytes) t.bench.Benchmark.hot_code_bytes;
    t.offset + t.fetch_cursor
  end
