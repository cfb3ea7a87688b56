(* Wall-clock speedup of [fast] over [slow] for the timing gates.  Each
   sample repeats a function for about 10 ms, so timer granularity is
   negligible; the two sides alternate, so a burst of machine load lands on
   both; and each side keeps its minimum over 7 samples: system noise only
   ever adds time, so the minimum is the robust per-run estimate.  A burst
   from a concurrent process can outlast 7 rounds (about 140 ms), so while
   the ratio is under [floor] the rounds go on, up to 21: more samples only
   bring each minimum closer to that side's undisturbed time. *)

let reps_for f =
  ignore (Sys.opaque_identity (f ()));
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  let once = Unix.gettimeofday () -. t0 in
  max 1 (min 10_000 (int_of_float (0.01 /. Float.max 1e-6 once)))

let per_run f reps =
  (* Collect first, so neither side pays the major-GC debt of the other. *)
  Gc.major ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

let speedup ~floor ~slow ~fast =
  let slow_reps = reps_for slow and fast_reps = reps_for fast in
  let best_slow = ref infinity and best_fast = ref infinity in
  let rec round i =
    best_slow := Float.min !best_slow (per_run slow slow_reps);
    best_fast := Float.min !best_fast (per_run fast fast_reps);
    let x = !best_slow /. !best_fast in
    if i >= 21 || (i >= 7 && x >= floor) then x else round (i + 1)
  in
  round 1
