(** Single-core simulation profiles: the one-time-cost input to MPPM
    (paper Sec. 2.1).

    A profile holds, for every fixed-length instruction interval of an
    isolated single-core run: the cycles spent (hence single-core CPI), the
    cycles lost to LLC misses (hence memory CPI), the LLC access and miss
    counts, and the LLC stack-distance counters.  MPPM aggregates these
    over arbitrary instruction windows — including windows that wrap around
    the end of the trace, because the model re-iterates programs over their
    trace (Sec. 2.2). *)

type interval = {
  instructions : int;  (* mppm: unit insns *)
  cycles : float;  (* mppm: unit cycles *)
  memory_stall_cycles : float;  (* mppm: unit cycles *)
      (** cycles this interval would have saved with a perfect LLC *)
  llc_accesses : float;  (* mppm: unit accesses *)
  llc_misses : float;  (* mppm: unit accesses *)
  sdc : Mppm_cache.Sdc.t;  (** LLC stack-distance counters *)
}

(** Built only by {!make} and {!load} (and {!reduce_associativity}), so
    the arrays always agree; derive a changed profile by passing new
    intervals to {!make}.

    The statistics are stored flat and unboxed, [stride = 4 + llc_assoc
    + 1] floats to a row, in the column order cycles, memory stall
    cycles, LLC accesses, LLC misses, then the SDC counters
    C_1 ... C_{>A}. *)
type t = private {
  benchmark : string;
  interval_instructions : int;  (** nominal interval length *)  (* mppm: unit insns *)
  llc_assoc : int;  (** associativity the SDCs were collected at *)
  interval_starts : int array;  (* mppm: unit cumulative insns *)
      (** [n + 1] entries: [interval_starts.(k)] is the number of
          instructions before interval [k], so [interval_starts.(0) = 0]
          and [interval_starts.(n)] is the trace length *)
  values : float array;
      (** [n] rows: row [k] is interval [k]'s own statistics, exactly as
          profiled (what {!save} writes) *)
  prefix : float array;
      (** [n + 1] rows: row [k] is the sum of rows [0 .. k - 1] of
          [values], added left to right from 0.0, so row 0 is all zeros
          and row [n] is the whole trace *)
}

val make :  (* mppm: unit profile *)
  benchmark:string ->
  interval_instructions:int ->
  llc_assoc:int ->
  interval array ->
  t
(** Validates interval shapes (positive instruction counts, SDC
    associativity agreement) and builds the profile with its
    [interval_starts] and prefix rows. *)

val intervals : t -> interval array  (* mppm: unit _ -> interval *)
(** The intervals as records, rebuilt from the flat rows (fresh SDCs, so
    the profile cannot be changed through them).  Allocates; for
    serialization-level readers such as SimPoint clustering and tests. *)

val totals : t -> interval  (* mppm: unit _ -> interval *)
(** The whole trace as one interval: the last prefix row and the trace
    length.  Each field equals the left-to-right fold of the intervals'
    field from 0.0, bit for bit. *)

val total_instructions : t -> int  (* mppm: unit insns *)
(** Sum of interval instruction counts (the trace length), read from
    [interval_starts] in O(1). *)

val total_cycles : t -> float  (* mppm: unit cycles *)
(** Sum of interval cycle counts (the isolated run's duration), read from
    the last prefix row. *)

val cpi : t -> float  (* mppm: unit cycles/insns *)
(** Whole-trace single-core CPI. *)

val memory_cpi : t -> float  (* mppm: unit cycles/insns *)
(** Whole-trace memory CPI component. *)

val memory_cpi_fraction : t -> float  (* mppm: unit 1 *)
(** [memory_cpi / cpi]: the memory-boundedness used to classify benchmarks
    into MEM/COMP categories (paper Sec. 5). *)

val llc_mpki : t -> float  (* mppm: unit accesses/insns *)
(** LLC misses per kilo-instruction over the whole trace. *)

val miss_penalty : t -> float  (* mppm: unit cycles/accesses *)
(** Whole-trace average LLC miss penalty: memory stall cycles per LLC
    miss, 0 when the trace has no misses. *)

(** Aggregate statistics over an instruction window [start, start+count),
    positions taken modulo the trace length (programs restart). *)
type window = {
  w_instructions : float;  (* mppm: unit insns *)
  w_cycles : float;  (* mppm: unit cycles *)
  w_memory_stall_cycles : float;  (* mppm: unit cycles *)
  w_llc_accesses : float;  (* mppm: unit accesses *)
  w_llc_misses : float;  (* mppm: unit accesses *)
  w_sdc : Mppm_cache.Sdc.t;
}

(* mppm: unit start:insns -> count:insns -> window *)
val window : t -> start:float -> count:float -> window
(** [window t ~start ~count] sums interval statistics over the window,
    scaling the partial intervals at each end linearly (accesses are
    assumed uniform within one interval).  [count] must be positive and
    [start] non-negative, both below 2^52 (so NaN and infinity are
    rejected too).  Allocates the window, then {!fill_window}s it. *)

(** {2 Windows into caller-owned storage}

    A float passed to or returned from a function in another module is
    boxed, so the model's per-quantum windows go through arrays the caller
    allocates once: the request is read from float array cells, the five
    sums are written to a float array of {!sums_length} cells, and the SDC
    to a caller-owned {!Mppm_cache.Sdc.t}.  A fill allocates nothing and
    writes what {!window} returns, bit for bit.

    A window costs two interval lookups in [interval_starts] (O(1) when
    the intervals have the nominal length, as profiled ones do, else a
    binary search) and O(assoc) reads of the flat rows, whatever its
    start and length.  It is three terms: the start interval's tail, one
    prefix difference for the whole intervals between (plus one
    whole-trace row per lap when it wraps), and the end interval's head.
    The prefix rows round at the scale of the trace, not of the window,
    so each sum agrees with adding the intervals' fractions one by one to
    within 1e-12 of its value or 1e-13 of the prefix rows it reads (the
    row after the start interval, the end interval's row and the
    whole-trace row once per lap), whichever is larger.  A window that
    spans no whole interval reads no prefix row, so it is held to 1e-12
    of its value alone.  With whole-number statistics and both ends on
    interval boundaries, every term is exact, and so is the window. *)

val sum_instructions : int
(** Cell of a sums array holding [w_instructions]. *)

val sum_cycles : int
(** Cell holding [w_cycles]. *)

val sum_memory_stall_cycles : int
(** Cell holding [w_memory_stall_cycles]. *)

val sum_llc_accesses : int
(** Cell holding [w_llc_accesses]. *)

val sum_llc_misses : int
(** Cell holding [w_llc_misses]. *)

val sums_length : int
(** Length of a sums array: the five sums. *)

val fill_window :  (* mppm: unit _ -> start:insns -> count:insns -> _ -> sums:_ -> _ -> _ *)
  t ->
  start:float array ->
  count:float array ->
  int ->
  sums:float array ->
  Mppm_cache.Sdc.t ->
  unit
(** [fill_window t ~start ~count i ~sums sdc] writes the window
    [window t ~start:start.(i) ~count:count.(i)] into [sums] and [sdc].
    [sdc] must have the profile's associativity. *)

val fill_window_cpi :  (* mppm: unit _ -> start:insns -> count:insns -> _ -> sums:_ -> _ *)
  t -> start:float array -> count:float array -> int -> sums:float array -> unit
(** Like {!fill_window}, but sums only instructions and cycles (the two
    cells a window CPI needs); the other sums are left at 0. *)

(* mppm: unit assoc:ways -> profile *)
val reduce_associativity : t -> assoc:int -> t
(** [reduce_associativity t ~assoc] derives the profile for an LLC of lower
    associativity (same set count): SDCs fold per
    {!Mppm_cache.Sdc.reduce_associativity}; the timing fields are kept —
    they describe the profiled hierarchy and remain the model's base-line
    CPI.  Miss counts are re-derived from the folded SDC. *)

val format_version : string
(** The on-disk format identifier written by {!save} and required by
    {!load}.  Include it in any persistent cache key so a format change
    invalidates old entries instead of loading them. *)

val save : t -> string -> unit  (* mppm: unit _ *)
(** [save t path] writes the profile as a line-oriented text file.
    Floats are rendered shortest-round-trip, so [load (save t)] is
    bit-for-bit identical to [t].  The write is atomic: bytes go to a
    fresh ["<basename of path>.<random>.tmp"] file next to [path] and are
    renamed into place, so a concurrent reader or writer, or an
    interrupted run, never sees a truncated file. *)

val load : string -> t  (* mppm: unit profile *)
(** [load path] reads a profile written by {!save}.  Every malformed
    input — a truncated file, an unsupported format version, a field that
    is not a number, a negative, NaN or infinite cycle, access, miss or SDC
    count, a shape {!make} rejects —
    raises [Failure "Profile.load: <path>:<line>: <what>"]. *)

val pp_summary : Format.formatter -> t -> unit  (* mppm: unit _ *)
(** One-line whole-trace summary: CPI, memory CPI, MPKI, intervals. *)
