(** Fixed-bound histograms for telemetry (latency/budget/size
    distributions).

    A histogram with bounds [b_0 < b_1 < ... < b_{n-1}] has [n + 1]
    buckets: (-inf, b_0), [b_0, b_1), ..., [b_{n-1}, +inf).  Two
    histograms with identical bounds merge bucket-wise, associatively and
    commutatively (exact on integer counts), so per-phase histograms can
    be aggregated like counter totals. *)

type t
(** A mutable histogram. *)

val create : bounds:float array -> t
(** [create ~bounds] with strictly increasing finite bounds.  Raises
    [Invalid_argument] otherwise. *)

val create_exponential : first:float -> ratio:float -> buckets:int -> t
(** Geometric bounds [first, first*ratio, first*ratio^2, ...]: the natural
    shape for cycle counts spanning decades.  Requires [first > 0],
    [ratio > 1], [buckets >= 1]. *)

val observe : t -> float -> unit
(** Record one finite sample. *)

val count : t -> float
(** Number of samples recorded. *)

val sum : t -> float
(** Sum of all samples. *)

val mean : t -> float
(** [sum / count]; 0 when empty. *)

val min_value : t -> float option
(** Smallest sample, [None] when empty. *)

val max_value : t -> float option
(** Largest sample, [None] when empty. *)

val bucket_counts : t -> float array
(** Per-bucket sample counts, length [Array.length (bounds t) + 1]. *)

val quantile : t -> float -> float
(** [quantile t p] estimates the [p]-quantile (e.g. 0.5/0.9/0.99 for
    p50/p90/p99) from the bucketed counts: the bucket holding rank
    [p * count] is located and the value interpolated linearly inside it,
    with the open end buckets bounded by the observed min/max, so
    [quantile t 0.0 = min] and [quantile t 1.0 = max].  The estimate is
    monotone in [p] and invariant under merge order (qcheck-tested).
    Returns 0 on an empty histogram; raises [Invalid_argument] when [p]
    lies outside [0, 1]. *)

val merge : t -> t -> t
(** Bucket-wise sum of two histograms with identical bounds; raises
    [Invalid_argument] on a bounds mismatch.  Inputs are not mutated. *)
