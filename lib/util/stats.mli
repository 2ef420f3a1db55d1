(** Descriptive statistics and confidence intervals.

    The paper reports 95% confidence intervals over populations of
    workload mixes (Fig. 3) and average relative errors between predicted
    and measured metrics (Sec. 4.2); this module provides those
    primitives. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (divides by n-1).  Requires at least two
    samples. *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val min_max : float array -> float * float
(** Smallest and largest sample. *)

val percentile : float array -> p:float -> float
(** [percentile a ~p] is the [p]-th percentile (0 <= p <= 100) using linear
    interpolation between order statistics. *)

val median : float array -> float
(** 50th percentile. *)

type interval = {
  mean : float;
  lower : float;  (** lower bound of the confidence interval *)
  upper : float;  (** upper bound of the confidence interval *)
  half_width : float;  (** [upper - mean], i.e. the interval half-width *)
  samples : int;
}
(** A two-sided confidence interval around a sample mean. *)

val confidence_interval : ?level:float -> float array -> interval
(** [confidence_interval ~level a] is the Student-t confidence interval for
    the population mean at confidence [level] (default [0.95]).  Requires at
    least two samples. *)

val relative_half_width : interval -> float
(** Interval half-width as a fraction of the mean: the "x% confidence
    interval" number the paper quotes in Sec. 4.1. *)

val mean_relative_error : predicted:float array -> measured:float array -> float
(** [mean_relative_error ~predicted ~measured] is the average of
    [|predicted.(i) - measured.(i)| / measured.(i)], the paper's accuracy
    metric.  Arrays must have equal non-zero length. *)
