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

(** Built only by {!make} (and {!load}, {!reduce_associativity}), so
    [interval_starts] always matches [intervals]; derive a changed profile
    by passing new intervals to {!make}. *)
type t = private {
  benchmark : string;
  interval_instructions : int;  (** nominal interval length *)  (* mppm: unit insns *)
  llc_assoc : int;  (** associativity the SDCs were collected at *)
  intervals : interval array;
  interval_starts : int array;  (* mppm: unit cumulative insns *)
      (** [n + 1] entries: [interval_starts.(k)] is the number of
          instructions before interval [k], so [interval_starts.(0) = 0]
          and [interval_starts.(n)] is the trace length *)
}

val make :  (* mppm: unit profile *)
  benchmark:string ->
  interval_instructions:int ->
  llc_assoc:int ->
  interval array ->
  t
(** Validates interval shapes (positive instruction counts, SDC
    associativity agreement) and builds the profile with its
    [interval_starts]. *)

val total_instructions : t -> int  (* mppm: unit insns *)
(** Sum of interval instruction counts (the trace length), read from
    [interval_starts] in O(1). *)

val total_cycles : t -> float  (* mppm: unit cycles *)
(** Sum of interval cycle counts (the isolated run's duration). *)

val cpi : t -> float  (* mppm: unit cycles/insns *)
(** Whole-trace single-core CPI. *)

val memory_cpi : t -> float  (* mppm: unit cycles/insns *)
(** Whole-trace memory CPI component. *)

val memory_cpi_fraction : t -> float  (* mppm: unit 1 *)
(** [memory_cpi / cpi]: the memory-boundedness used to classify benchmarks
    into MEM/COMP categories (paper Sec. 5). *)

val llc_mpki : t -> float  (* mppm: unit accesses/insns *)
(** LLC misses per kilo-instruction over the whole trace. *)

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
    [start] non-negative.  Allocates the window, then {!fill_window}s it. *)

(** {2 Windows into caller-owned storage}

    A float passed to or returned from a function in another module is
    boxed, so the model's per-quantum windows go through arrays the caller
    allocates once: the request is read from float array cells, the five
    sums are written to a float array of {!sums_length} cells, and the SDC
    to a caller-owned {!Mppm_cache.Sdc.t}.  A fill allocates nothing and
    performs the same floating-point operations, in the same order, as
    {!window}. *)

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
(** Length of a sums array: the five sums, then two cells the walk uses
    as its cursors. *)

val fill_window :  (* mppm: unit _ -> start:insns -> count:insns -> _ -> sums:_ -> _ -> _ *)
  t ->
  start:float array ->
  count:float array ->
  int ->
  sums:float array ->
  Mppm_cache.Sdc.t ->
  unit
(** [fill_window t ~start ~count i ~sums sdc] writes the window
    [window t ~start:start.(i) ~count:count.(i)] into [sums] and [sdc],
    bit for bit.  [sdc] must have the profile's associativity. *)

val fill_window_cpi :  (* mppm: unit _ -> start:insns -> count:insns -> _ -> sums:_ -> _ *)
  t -> start:float array -> count:float array -> int -> sums:float array -> unit
(** Like {!fill_window}, but sums only instructions and cycles (the two
    cells a window CPI needs); the other sums are left at 0. *)

val window_cpi : window -> float  (* mppm: unit cycles/insns *)
(** [w_cycles / w_instructions]. *)

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
