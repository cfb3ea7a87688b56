type t = { rate_hz : float; infidelity_lo : float; infidelity_hi : float }

let create ?(infidelity_lo = 0.01) ?(infidelity_hi = 0.05) ~rate_hz () =
  if rate_hz <= 0. then invalid_arg "Ep_source.create: rate must be positive";
  if infidelity_lo < 0. || infidelity_hi > 1. || infidelity_lo > infidelity_hi then
    invalid_arg "Ep_source.create: bad infidelity range";
  { rate_hz; infidelity_lo; infidelity_hi }
