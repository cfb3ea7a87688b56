type t = { rate_hz : float; infidelity_lo : float; infidelity_hi : float }

let create ?(infidelity_lo = 0.01) ?(infidelity_hi = 0.05) ~rate_hz () =
  if not (rate_hz > 0. && rate_hz < infinity) then
    invalid_arg "Ep_source.create: rate must be positive and finite";
  if not (infidelity_lo >= 0. && infidelity_lo <= infidelity_hi && infidelity_hi <= 1.) then
    invalid_arg "Ep_source.create: bad infidelity range";
  { rate_hz; infidelity_lo; infidelity_hi }
