(** Rank statistics: Spearman rank correlation (with tie handling) over
    Pearson correlation.

    Fig. 7 of the paper scores how well a small random workload sample
    ranks six LLC configurations against the reference ranking, using the
    Spearman rank correlation coefficient. *)

val ranks : float array -> float array
(** [ranks a] assigns rank 1 to the smallest element; tied values receive
    the average of the ranks they span (mid-rank method). *)

val spearman : float array -> float array -> float
(** [spearman a b] is the Spearman rank correlation coefficient of the two
    samples, computed as the Pearson correlation of their mid-ranks, which
    handles ties correctly.  Arrays must have equal length >= 2.  Returns a
    value in [\[-1, 1\]]; returns [nan] if either sample is constant. *)

val pearson : float array -> float array -> float
(** Pearson product-moment correlation coefficient. *)
