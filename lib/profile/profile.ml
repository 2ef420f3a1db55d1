module Sdc = Mppm_cache.Sdc
module Invariant = Mppm_util.Invariant

type interval = {
  instructions : int;
  cycles : float;
  memory_stall_cycles : float;
  llc_accesses : float;
  llc_misses : float;
  sdc : Sdc.t;
}

type t = {
  benchmark : string;
  interval_instructions : int;
  llc_assoc : int;
  interval_starts : int array;
  values : float array;
  prefix : float array;
}

(* Columns of a [values] or [prefix] row; the SDC counters C_1 ... C_{>A}
   follow from [col_sdc]. *)
let col_cycles = 0
let col_memory_stall_cycles = 1
let col_llc_accesses = 2
let col_llc_misses = 3
let col_sdc = 4
let stride_of assoc = col_sdc + assoc + 1
let interval_count t = Array.length t.interval_starts - 1

let make ~benchmark ~interval_instructions ~llc_assoc intervals =
  if interval_instructions <= 0 then
    invalid_arg "Profile.make: non-positive interval length";
  if Array.length intervals = 0 then invalid_arg "Profile.make: no intervals";
  Array.iter
    (fun iv ->
      if iv.instructions <= 0 then
        invalid_arg "Profile.make: interval with non-positive instructions";
      if Sdc.assoc iv.sdc <> llc_assoc then
        invalid_arg "Profile.make: SDC associativity mismatch")
    intervals;
  let n = Array.length intervals and stride = stride_of llc_assoc in
  let interval_starts = Array.make (n + 1) 0 in
  let values = Array.make (n * stride) 0.0 in
  let prefix = Array.make ((n + 1) * stride) 0.0 in
  Array.iteri
    (fun k iv ->
      let row = k * stride in
      interval_starts.(k + 1) <- interval_starts.(k) + iv.instructions;
      values.(row + col_cycles) <- iv.cycles;
      values.(row + col_memory_stall_cycles) <- iv.memory_stall_cycles;
      values.(row + col_llc_accesses) <- iv.llc_accesses;
      values.(row + col_llc_misses) <- iv.llc_misses;
      Array.blit (Sdc.counters iv.sdc) 0 values (row + col_sdc) (llc_assoc + 1);
      for c = row to row + stride - 1 do
        prefix.(c + stride) <- prefix.(c) +. values.(c)
      done)
    intervals;
  { benchmark; interval_instructions; llc_assoc; interval_starts; values; prefix }

(* Row [row] of [rows] as an interval record with a fresh SDC. *)
let interval_of_row t rows row instructions =
  let sdc = Sdc.create ~assoc:t.llc_assoc in
  Array.blit rows (row + col_sdc) (Sdc.counters sdc) 0 (t.llc_assoc + 1);
  {
    instructions;
    cycles = rows.(row + col_cycles);
    memory_stall_cycles = rows.(row + col_memory_stall_cycles);
    llc_accesses = rows.(row + col_llc_accesses);
    llc_misses = rows.(row + col_llc_misses);
    sdc;
  }

let intervals t =
  let starts = t.interval_starts in
  Array.init (interval_count t) (fun k ->
      interval_of_row t t.values (k * stride_of t.llc_assoc) (starts.(k + 1) - starts.(k)))

let total_instructions t =
  t.interval_starts.(interval_count t) - t.interval_starts.(0)

(* The last prefix row: every interval, summed left to right from 0.0. *)
let total_row t = interval_count t * stride_of t.llc_assoc

let totals t = interval_of_row t t.prefix (total_row t) (total_instructions t)
let total_cycles t = t.prefix.(total_row t + col_cycles)
let cpi t = total_cycles t /. float_of_int (total_instructions t)

let memory_cpi t =
  t.prefix.(total_row t + col_memory_stall_cycles) /. float_of_int (total_instructions t)

let memory_cpi_fraction t = memory_cpi t /. cpi t

let llc_mpki t =
  t.prefix.(total_row t + col_llc_misses) *. 1000.0 /. float_of_int (total_instructions t)

let miss_penalty t =
  let misses = t.prefix.(total_row t + col_llc_misses) in
  if misses > 0.0 then t.prefix.(total_row t + col_memory_stall_cycles) /. misses else 0.0

type window = {
  w_instructions : float;
  w_cycles : float;
  w_memory_stall_cycles : float;
  w_llc_accesses : float;
  w_llc_misses : float;
  w_sdc : Sdc.t;
}

(* Sums cell [sum_cycles + c] holds column [c] for [c < col_sdc]. *)
let sum_instructions = 0
let sum_cycles = 1
let sum_memory_stall_cycles = 2
let sum_llc_accesses = 3
let sum_llc_misses = 4
let sums_length = 5

(* The interval holding instruction [x] of one trace (x >= 0): the first
   [k < n - 1] with [x < starts.(k + 1)], else the last.  The nominal
   interval length gives a first guess, right whenever the intervals
   before [x] have that length (as every profiled trace's do); a binary
   search finds the rest. *)
let interval_at t x =
  let starts = t.interval_starts and n = interval_count t in
  let guess = x / t.interval_instructions in
  if guess < n && starts.(guess) <= x && (guess = n - 1 || x < starts.(guess + 1))
  then guess
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if x < starts.(mid + 1) then hi := mid else lo := mid + 1
    done;
    !lo
  end

(* A window is three terms, each read in O(1): the tail of the start
   interval [s] from the (wrapped) start position, the whole intervals
   between as one prefix difference plus [laps] whole traces, and the head
   of the end interval [e].  Boundaries are integers, so both intervals
   are found from the integer part of a position, the start wraps and
   finds its offset into [s] exactly in integer arithmetic, and the
   head's length is the remaining count less an exact integer.  A window
   inside [s] has no whole intervals and an empty head.  [full = false]
   fills only instructions and cycles and zeroes the other sums, leaving
   [dst] alone. *)
(* mppm: hot — per-quantum window accumulation *)
let walk t ~start ~count i ~sums dst ~full =
  let start = start.(i) and count = count.(i) in
  if count <= 0.0 then invalid_arg "Profile.window: non-positive count";
  if start < 0.0 then invalid_arg "Profile.window: negative start";
  (* Below 2^52 every position converts to an exact [int], and a start
     plus a count cannot overflow one. *)
  if not (start < 0x1p52 && count < 0x1p52) then
    invalid_arg "Profile.window: start or count not below 2^52";
  let starts = t.interval_starts and values = t.values and prefix = t.prefix in
  let n = interval_count t and stride = stride_of t.llc_assoc in
  let trace = total_instructions t in
  let whole_start = int_of_float start in
  let wrapped = whole_start mod trace in
  let s = interval_at t wrapped in
  let len_s = float_of_int (starts.(s + 1) - starts.(s)) in
  let offset = float_of_int (wrapped - starts.(s)) +. (start -. float_of_int whole_start) in
  let take = Float.min (len_s -. offset) count in
  let rest = count -. take in
  let far = starts.(s + 1) + int_of_float rest in
  let laps = far / trace in
  let e = interval_at t (far - (laps * trace)) in
  let whole = (laps * trace) + starts.(e) - starts.(s + 1) in
  let len_e = float_of_int (starts.(e + 1) - starts.(e)) in
  let frac_s = take /. len_s and frac_e = (rest -. float_of_int whole) /. len_e in
  let rs = s * stride and re = e * stride and traces = float_of_int laps in
  let pa = (s + 1) * stride and pe = e * stride and pn = n * stride in
  sums.(sum_instructions) <-
    (len_s *. frac_s) +. float_of_int whole +. (len_e *. frac_e);
  for c = 0 to (if full then stride - 1 else col_cycles) do
    let v =
      (values.(rs + c) *. frac_s)
      +. (prefix.(pe + c) -. prefix.(pa + c) +. (traces *. prefix.(pn + c)))
      +. (values.(re + c) *. frac_e)
    in
    if c < col_sdc then sums.(sum_cycles + c) <- v else dst.(c - col_sdc) <- v
  done;
  if not full then
    for c = sum_memory_stall_cycles to sum_llc_misses do
      sums.(c) <- 0.0
    done;
  if Invariant.enabled () then
    Invariant.check "profile.window_instructions"
      (Float.abs (sums.(sum_instructions) -. count) <= 1e-9 +. (1e-12 *. count))

let fill_window t ~start ~count i ~sums sdc =
  if not (Int.equal (Sdc.assoc sdc) t.llc_assoc) then
    invalid_arg "Profile.fill_window: SDC associativity mismatch";
  walk t ~start ~count i ~sums (Sdc.counters sdc) ~full:true

let fill_window_cpi t ~start ~count i ~sums =
  walk t ~start ~count i ~sums [||] ~full:false

let window t ~start ~count =
  let sums = Array.make sums_length 0.0 in
  let sdc = Sdc.create ~assoc:t.llc_assoc in
  fill_window t ~start:[| start |] ~count:[| count |] 0 ~sums sdc;
  {
    w_instructions = sums.(sum_instructions);
    w_cycles = sums.(sum_cycles);
    w_memory_stall_cycles = sums.(sum_memory_stall_cycles);
    w_llc_accesses = sums.(sum_llc_accesses);
    w_llc_misses = sums.(sum_llc_misses);
    w_sdc = sdc;
  }

let reduce_associativity t ~assoc =
  if assoc > t.llc_assoc then
    invalid_arg "Profile.reduce_associativity: cannot increase associativity";
  let intervals =
    Array.map
      (fun iv ->
        let sdc = Sdc.reduce_associativity iv.sdc ~assoc in
        { iv with sdc; llc_misses = Sdc.misses sdc })
      (intervals t)
  in
  make ~benchmark:t.benchmark ~interval_instructions:t.interval_instructions
    ~llc_assoc:assoc intervals

(* ---- text serialization ------------------------------------------- *)

(* v2: floats are written shortest-round-trip (v1 truncated to %.6f/%.1f,
   so a cache hit was not bit-identical to a recompute — SDC counters are
   fractional).  The version string feeds the profile-cache fingerprint,
   so v1 entries read as stale rather than as lossy profiles. *)
let format_version = "mppm-profile v2"

(* Shortest decimal representation that parses back to the same bits:
   %.15g when that round-trips, %.17g otherwise (always exact). *)
let float_str x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

(* Writes go to a ".tmp" file of this writer's own in the same directory
   and are renamed into place, so a concurrent reader (pool workers and
   other processes share one cache directory) or an interrupted run never
   observes a truncated profile.  Racing writers of the same path write
   identical bytes, so last-rename-wins is harmless. *)
let save t path =
  let tmp, oc =
    Filename.open_temp_file ~perms:0o666 ~temp_dir:(Filename.dirname path)
      (Filename.basename path ^ ".") ".tmp"
  in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "%s\n" format_version;
      Printf.fprintf oc "benchmark %s\n" t.benchmark;
      Printf.fprintf oc "interval %d\n" t.interval_instructions;
      Printf.fprintf oc "assoc %d\n" t.llc_assoc;
      let intervals = intervals t in
      Printf.fprintf oc "intervals %d\n" (Array.length intervals);
      Array.iter
        (fun iv ->
          Printf.fprintf oc "%d %s %s %s %s" iv.instructions
            (float_str iv.cycles)
            (float_str iv.memory_stall_cycles)
            (float_str iv.llc_accesses) (float_str iv.llc_misses);
          List.iter
            (fun c -> Printf.fprintf oc " %s" (float_str c))
            (Sdc.to_list iv.sdc);
          Printf.fprintf oc "\n")
        intervals);
  Sys.rename tmp path

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let line_no = ref 0 in
      let fail fmt =
        Printf.ksprintf
          (fun msg -> failwith (Printf.sprintf "Profile.load: %s:%d: %s" path !line_no msg))
          fmt
      in
      let next_line () =
        incr line_no;
        try input_line ic with End_of_file -> fail "unexpected end of file"
      in
      let number what of_string s =
        match of_string s with Some v -> v | None -> fail "bad %s %S" what s
      in
      let int = number "integer" int_of_string_opt
      and float = number "number" float_of_string_opt in
      let field expected line =
        match String.index_opt line ' ' with
        | Some i when String.sub line 0 i = expected ->
            String.sub line (i + 1) (String.length line - i - 1)
        | Some _ | None -> fail "expected '%s <value>'" expected
      in
      let version = next_line () in
      if version <> format_version then fail "unsupported format %S" version;
      let benchmark = field "benchmark" (next_line ()) in
      let interval_instructions = int (field "interval" (next_line ())) in
      if interval_instructions <= 0 then
        fail "non-positive interval length %d" interval_instructions;
      let llc_assoc = int (field "assoc" (next_line ())) in
      if llc_assoc <= 0 then fail "non-positive associativity %d" llc_assoc;
      let n = int (field "intervals" (next_line ())) in
      if n <= 0 then fail "non-positive interval count %d" n;
      let parse_interval line =
        match String.split_on_char ' ' line with
        | insns :: cycles :: stall :: acc :: miss :: counters
          when List.length counters = llc_assoc + 1 ->
            let instructions = int insns in
            if instructions <= 0 then fail "non-positive instruction count %d" instructions;
            let count what s =
              let v = float s in
              if not (v >= 0.0 && Float.is_finite v) then
                fail "negative or non-finite %s %S" what s;
              v
            in
            let cycles = count "cycle count" cycles in
            let memory_stall_cycles = count "stall cycle count" stall in
            let llc_accesses = count "LLC access count" acc in
            let llc_misses = count "LLC miss count" miss in
            let counters = List.map (count "SDC counter") counters in
            {
              instructions;
              cycles;
              memory_stall_cycles;
              llc_accesses;
              llc_misses;
              sdc = Sdc.of_list ~assoc:llc_assoc counters;
            }
        | _ -> fail "malformed interval"
      in
      let intervals = Array.init n (fun _ -> parse_interval (next_line ())) in
      make ~benchmark ~interval_instructions ~llc_assoc intervals)

let pp_summary ppf t =
  Format.fprintf ppf
    "%s: %d insns, CPI %.3f (mem %.3f, %.0f%%), LLC MPKI %.2f, %d intervals"
    t.benchmark (total_instructions t) (cpi t) (memory_cpi t)
    (100.0 *. memory_cpi_fraction t)
    (llc_mpki t) (interval_count t)
