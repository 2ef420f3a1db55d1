module Sdc = Mppm_cache.Sdc

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
  { benchmark; interval_instructions; llc_assoc; intervals }

let total_instructions t =
  Array.fold_left (fun acc iv -> acc + iv.instructions) 0 t.intervals

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

let window t ~start ~count =
  if count <= 0.0 then invalid_arg "Profile.window: non-positive count";
  if start < 0.0 then invalid_arg "Profile.window: negative start";
  let trace_len = float_of_int (total_instructions t) in
  let acc_sdc = Sdc.create ~assoc:t.llc_assoc in
  (* lint: allow P1 window accumulator: one record per call, and the call returns a fresh window by design *)
  let acc = ref { w_instructions = 0.0; w_cycles = 0.0;
                  w_memory_stall_cycles = 0.0; w_llc_accesses = 0.0;
                  w_llc_misses = 0.0; w_sdc = acc_sdc } in
  let add_fraction iv frac = (* lint: allow P1 walk helper closing over the accumulator, built once per call *)
    if frac > 0.0 then begin
      let a = !acc in
      Sdc.add_into ~dst:acc_sdc (Sdc.scale iv.sdc frac);
      acc := (* lint: allow P1 P4 accumulator update, once per interval the window touches (a handful per call) *)
        {
          a with
          w_instructions = a.w_instructions +. (float_of_int iv.instructions *. frac);
          w_cycles = a.w_cycles +. (iv.cycles *. frac);
          w_memory_stall_cycles =
            a.w_memory_stall_cycles +. (iv.memory_stall_cycles *. frac);
          w_llc_accesses = a.w_llc_accesses +. (iv.llc_accesses *. frac);
          w_llc_misses = a.w_llc_misses +. (iv.llc_misses *. frac);
        }
    end
  in
  (* Walk intervals from the (wrapped) start position until [count]
     instructions are consumed, taking linear fractions at the ends. *)
  let pos = ref (Float.rem start trace_len) in (* lint: allow P1 walk cursors: refs allocated once per call, not per interval *)
  let remaining = ref count in
  (* Locate the interval containing !pos together with the offset into it. *)
  let locate pos = (* lint: allow P1 locate closes over the profile, built once per call *)
    let rec go i off =
      let len = float_of_int t.intervals.(i).instructions in
      if pos < off +. len || Int.equal i (Array.length t.intervals - 1) then
        (* lint: allow P1 locate's (interval, offset) result, returned once per call *)
        (i, pos -. off)
      else go (i + 1) (off +. len)
    in
    go 0 0.0
  in
  let idx, offset = locate !pos in
  (* lint: allow P1 walk cursors: refs allocated once per call, not per interval *)
  let idx = ref idx and offset = ref offset in
  while !remaining > 1e-9 do
    let iv = t.intervals.(!idx) in
    let len = float_of_int iv.instructions in
    let available = len -. !offset in
    let take = Float.min available !remaining in
    add_fraction iv (take /. len);
    remaining := !remaining -. take; (* lint: allow P4 cursor update, once per interval the window touches *)
    pos := !pos +. take;
    offset := 0.0;
    idx := (!idx + 1) mod Array.length t.intervals
  done;
  (* lint: allow P1 the window record this function returns *)
  { !acc with w_sdc = acc_sdc }

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
  { t with llc_assoc = assoc; intervals }

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

(* Writes go to a ".tmp" sibling first and are renamed into place, so a
   concurrent reader (pool workers share one cache directory) or an
   interrupted run never observes a truncated profile.  The tmp name is
   deterministic; racing writers of the same path write identical bytes,
   so last-rename-wins is harmless. *)
let save t path =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
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
      let next_line () =
        incr line_no;
        try input_line ic
        with End_of_file ->
          failwith
            (Printf.sprintf "Profile.load: %s: unexpected end of file at line %d"
               path !line_no)
      in
      let field expected line =
        match String.index_opt line ' ' with
        | Some i when String.sub line 0 i = expected ->
            String.sub line (i + 1) (String.length line - i - 1)
        | Some _ | None ->
            failwith
              (Printf.sprintf "Profile.load: %s:%d: expected '%s <value>'" path
                 !line_no expected)
      in
      let version = next_line () in
      if version <> format_version then
        failwith
          (Printf.sprintf "Profile.load: %s: unsupported format %S" path version);
      let benchmark = field "benchmark" (next_line ()) in
      let interval_instructions = int_of_string (field "interval" (next_line ())) in
      let llc_assoc = int_of_string (field "assoc" (next_line ())) in
      let n = int_of_string (field "intervals" (next_line ())) in
      let parse_interval line =
        match String.split_on_char ' ' line with
        | insns :: cycles :: stall :: acc :: miss :: counters
          when List.length counters = llc_assoc + 1 ->
            {
              instructions = int_of_string insns;
              cycles = float_of_string cycles;
              memory_stall_cycles = float_of_string stall;
              llc_accesses = float_of_string acc;
              llc_misses = float_of_string miss;
              sdc =
                Sdc.of_list ~assoc:llc_assoc (List.map float_of_string counters);
            }
        | _ ->
            failwith
              (Printf.sprintf "Profile.load: %s:%d: malformed interval" path
                 !line_no)
      in
      let intervals = Array.init n (fun _ -> parse_interval (next_line ())) in
      make ~benchmark ~interval_instructions ~llc_assoc intervals)

let pp_summary ppf t =
  Format.fprintf ppf
    "%s: %d insns, CPI %.3f (mem %.3f, %.0f%%), LLC MPKI %.2f, %d intervals"
    t.benchmark (total_instructions t) (cpi t) (memory_cpi t)
    (100.0 *. memory_cpi_fraction t)
    (llc_mpki t) (Array.length t.intervals)
