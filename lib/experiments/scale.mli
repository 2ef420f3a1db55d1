(** Experiment scale: trace and interval lengths.

    The paper uses 1B-instruction traces with 20M-instruction intervals
    (50 per trace), L = 200M (trace/5) and a 5-trace stop criterion.  Pure
    OCaml detailed simulation of hundreds of billion-instruction mixes is
    not feasible, so experiments run at a reduced scale with the same
    ratios; the cache geometries stay at paper scale and the synthetic
    benchmarks are calibrated against them. *)

type t = {
  trace_instructions : int;  (* mppm: unit insns *)
  interval_instructions : int;  (** trace / 50, as in the paper *)  (* mppm: unit insns *)
}

val of_trace : int -> t  (* mppm: unit insns -> scale *)
(** [of_trace n] rounds [n] up to a multiple of 50 and derives the interval
    length (trace/50). *)

val default : t  (* mppm: unit scale *)
(** 2M-instruction traces (1:500 of the paper): detailed simulation of a
    quad-core mix takes a couple of seconds, so population experiments
    finish in minutes. *)

val quick : t  (* mppm: unit scale *)
(** 1M-instruction traces for smoke runs. *)

val pp : Format.formatter -> t -> unit
(** "2000K-instruction traces, 40K-instruction intervals"-style
    rendering. *)
