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
  intervals : interval array;
  interval_starts : int array;
}

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
  let n = Array.length intervals in
  let interval_starts = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    interval_starts.(k + 1) <- interval_starts.(k) + intervals.(k).instructions
  done;
  { benchmark; interval_instructions; llc_assoc; intervals; interval_starts }

let total_instructions t =
  t.interval_starts.(Array.length t.intervals) - t.interval_starts.(0)

let total_cycles t =
  Array.fold_left (fun acc iv -> acc +. iv.cycles) 0.0 t.intervals

let cpi t = total_cycles t /. float_of_int (total_instructions t)

let memory_cpi t =
  Array.fold_left (fun acc iv -> acc +. iv.memory_stall_cycles) 0.0 t.intervals
  /. float_of_int (total_instructions t)

let memory_cpi_fraction t = memory_cpi t /. cpi t

let llc_mpki t =
  Array.fold_left (fun acc iv -> acc +. iv.llc_misses) 0.0 t.intervals
  *. 1000.0
  /. float_of_int (total_instructions t)

type window = {
  w_instructions : float;
  w_cycles : float;
  w_memory_stall_cycles : float;
  w_llc_accesses : float;
  w_llc_misses : float;
  w_sdc : Sdc.t;
}

let sum_instructions = 0
let sum_cycles = 1
let sum_memory_stall_cycles = 2
let sum_llc_accesses = 3
let sum_llc_misses = 4

(* The two cells after the five sums hold the walk's float cursors. *)
let remaining_cell = 5
let offset_cell = 6
let sums_length = 7

(* Walk intervals from the (wrapped) start position until [count.(i)]
   instructions are consumed, taking linear fractions at the ends.  Every
   sum starts at 0.0 and adds [field *. frac] per fragment, left to right;
   [full = false] accumulates only instructions and cycles and leaves
   [dst] alone. *)
(* mppm: hot — per-quantum window accumulation *)
let walk t ~start ~count i ~sums dst ~full =
  let start = start.(i) and count = count.(i) in
  if count <= 0.0 then invalid_arg "Profile.window: non-positive count";
  if start < 0.0 then invalid_arg "Profile.window: negative start";
  let intervals = t.intervals and starts = t.interval_starts in
  let n = Array.length intervals in
  let pos = Float.rem start (float_of_int (total_instructions t)) in
  (* The interval containing [pos]: the first [idx < n - 1] whose exact
     int end offset lies above [pos], else the last.  [float_of_int] is
     monotone, so the binary search finds the index a scan from interval 0
     would. *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if pos < float_of_int starts.(mid + 1) then hi := mid else lo := mid + 1
  done;
  let idx = ref !lo in
  for c = sum_instructions to sum_llc_misses do
    sums.(c) <- 0.0
  done;
  if full then
    for j = 0 to Array.length dst - 1 do
      dst.(j) <- 0.0
    done;
  sums.(offset_cell) <- pos -. float_of_int starts.(!idx);
  sums.(remaining_cell) <- count;
  while sums.(remaining_cell) > 1e-9 do
    let iv = intervals.(!idx) in
    let len = float_of_int iv.instructions in
    let take = Float.min (len -. sums.(offset_cell)) sums.(remaining_cell) in
    let frac = take /. len in
    if frac > 0.0 then begin
      sums.(sum_instructions) <- sums.(sum_instructions) +. (len *. frac);
      sums.(sum_cycles) <- sums.(sum_cycles) +. (iv.cycles *. frac);
      if full then begin
        sums.(sum_memory_stall_cycles) <-
          sums.(sum_memory_stall_cycles) +. (iv.memory_stall_cycles *. frac);
        sums.(sum_llc_accesses) <-
          sums.(sum_llc_accesses) +. (iv.llc_accesses *. frac);
        sums.(sum_llc_misses) <- sums.(sum_llc_misses) +. (iv.llc_misses *. frac);
        let src = Sdc.counters iv.sdc in
        for j = 0 to Array.length dst - 1 do
          dst.(j) <- dst.(j) +. (src.(j) *. frac)
        done
      end
    end;
    sums.(remaining_cell) <- sums.(remaining_cell) -. take;
    sums.(offset_cell) <- 0.0;
    idx := (!idx + 1) mod n
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

let window_cpi w = w.w_cycles /. w.w_instructions

let reduce_associativity t ~assoc =
  if assoc > t.llc_assoc then
    invalid_arg "Profile.reduce_associativity: cannot increase associativity";
  let intervals =
    Array.map
      (fun iv ->
        let sdc = Sdc.reduce_associativity iv.sdc ~assoc in
        { iv with sdc; llc_misses = Sdc.misses sdc })
      t.intervals
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
      Printf.fprintf oc "intervals %d\n" (Array.length t.intervals);
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
        t.intervals);
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
    (llc_mpki t) (Array.length t.intervals)
