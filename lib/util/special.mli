(** Special mathematical functions needed by the statistics substrate.

    Implemented from standard numerical recipes: Lanczos log-gamma, the
    continued-fraction regularized incomplete beta function, and from those
    the Student-t distribution functions used for confidence intervals
    (paper Sec. 4.1 reports 95% confidence intervals over workload-mix
    populations). *)

val log_gamma : float -> float
(** [log_gamma x] is ln(Gamma(x)) for [x > 0]. *)

val incomplete_beta : a:float -> b:float -> x:float -> float
(** [incomplete_beta ~a ~b ~x] is the regularized incomplete beta function
    I_x(a, b) for [x] in [\[0, 1\]] and [a, b > 0]. *)

val student_t_cdf : df:float -> float -> float
(** [student_t_cdf ~df t] is P(T <= t) for T Student-t distributed with
    [df] degrees of freedom. *)

val student_t_quantile : df:float -> float -> float
(** [student_t_quantile ~df p] is the inverse of {!student_t_cdf}: the value
    t with P(T <= t) = [p], computed by bisection + Newton refinement.
    Requires [p] in (0, 1). *)

