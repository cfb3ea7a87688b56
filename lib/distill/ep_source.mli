(** Probabilistic entangled-pair source.

    Models the paper's §4.1 setting — EP generation comparable to microwave-
    to-optical conversion: Poisson arrivals with mean period 1-100 us and raw
    infidelities of order 0.01-0.1 (10-1000x slower and 10-100x noisier than
    compute operations).  The draws themselves are made inside the
    distillation loop: {!Distill_module.draw_gap} and
    {!Distill_module.draw_infidelity}. *)

type t = {
  rate_hz : float;  (** mean generation rate *)
  infidelity_lo : float;
  infidelity_hi : float;  (** raw pair infidelity, uniform in [lo, hi] *)
}

val create : ?infidelity_lo:float -> ?infidelity_hi:float -> rate_hz:float -> unit -> t
(** Defaults: infidelity uniform in [0.01, 0.05].  Raises
    [Invalid_argument] unless [rate_hz] is positive and finite and
    [0 <= infidelity_lo <= infidelity_hi <= 1] (NaN included). *)
