(** Small statistics helpers used by Monte-Carlo experiment harnesses. *)

val mean : float array -> float
(** Arithmetic mean; 0 on empty input. *)

val variance : float array -> float
(** Unbiased sample variance; 0 with fewer than two samples. *)

val stddev : float array -> float

val wilson_interval : successes:int -> trials:int -> z:float -> float * float
(** Wilson score confidence interval for a binomial proportion.  [z] is the
    normal quantile (1.96 for 95%).  The ends are exactly 0 at zero
    successes and exactly 1 when every trial succeeds. *)

val wilson_rel_halfwidth : successes:int -> trials:int -> z:float -> float
(** Half-width of the Wilson interval divided by the point estimate — the
    relative precision of a Monte-Carlo proportion, used by adaptive
    stopping rules.  [infinity] when [successes] or [trials] is zero, so a
    rate with no observed events never counts as converged. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100]; linear interpolation; input need
    not be sorted.  Raises [Invalid_argument] on empty input. *)

val histogram : lo:float -> hi:float -> bins:int -> float array -> int array
(** Fixed-width histogram; out-of-range samples clamp to the edge bins. *)

type running
(** Streaming mean/variance accumulator (Welford). *)

val running_create : unit -> running
val running_reset : running -> unit
val running_add : running -> float -> unit
val running_count : running -> int
val running_mean : running -> float

val running_m2 : running -> float
(** Raw sum of squared deviations from the mean (Welford's M2).  Exposed so
    accumulators can be serialized and later pairwise-merged (Chan's
    parallel update) without losing the exact variance state. *)

val running_variance : running -> float
