(* The one statistical check for comparing Monte-Carlo rates: Wilson score
   intervals at z = 4 (a false alarm has probability of order 1e-4 per
   comparison).

   - [overlap]: two estimators that draw different random streams (an
     oracle loop and the loop that replaces it) agree when their intervals
     intersect.  For two equal rates this allows a gap of about 4 sigma per
     sample, 8 sigma in all.
   - [contains]: an estimate agrees with an exact rate when the rate lies
     in its interval.

   A change that moves a random stream on purpose runs [check_overlap]
   between the old loop (kept in test/) and the new one at several points. *)

let z = 4.0

let interval ~k ~n = Stats.wilson_interval ~successes:k ~trials:n ~z

let overlap ~k1 ~n1 ~k2 ~n2 =
  let lo1, hi1 = interval ~k:k1 ~n:n1 and lo2, hi2 = interval ~k:k2 ~n:n2 in
  lo1 <= hi2 && lo2 <= hi1

let contains ~k ~n p =
  let lo, hi = interval ~k ~n in
  lo <= p && p <= hi

let check_overlap name ~k1 ~n1 ~k2 ~n2 =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d/%d vs %d/%d (Wilson z=4 overlap)" name k1 n1 k2 n2)
    true
    (overlap ~k1 ~n1 ~k2 ~n2)

let check_contains name ~k ~n p =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %d/%d contains %g (Wilson z=4)" name k n p)
    true (contains ~k ~n p)
