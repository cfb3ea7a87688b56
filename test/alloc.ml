(* Calibrated minor-word window shared by the allocation-floor tests:
   reading [Gc.minor_words] itself boxes a float AFTER the counter is
   sampled, so an empty window measures a small constant; subtracting it
   makes "exactly zero" observable. *)
let words f =
  let base0 = Gc.minor_words () in
  let base1 = Gc.minor_words () in
  let overhead = int_of_float (base1 -. base0) in
  let before = Gc.minor_words () in
  f ();
  let after = Gc.minor_words () in
  int_of_float (after -. before) - overhead

(* The steady-state cost of [f]: one run warms lazies, arena pools and
   stores, then the minimum over three windows guards against a rare
   lazy-force or domain event landing in one of them. *)
let min_words f =
  f ();
  let best = ref max_int in
  for _ = 1 to 3 do
    best := min !best (words f)
  done;
  max 0 !best
