let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0. xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let wilson_interval ~successes ~trials ~z =
  if trials = 0 then (0., 1.)
  else begin
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z *. z in
    let denom = 1. +. (z2 /. n) in
    let center = (p +. (z2 /. (2. *. n))) /. denom in
    let half =
      z /. denom *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n)))
    in
    (max 0. (center -. half), min 1. (center +. half))
  end

let wilson_rel_halfwidth ~successes ~trials ~z =
  if trials = 0 || successes = 0 then infinity
  else begin
    let lo, hi = wilson_interval ~successes ~trials ~z in
    let p = float_of_int successes /. float_of_int trials in
    (hi -. lo) /. (2. *. p)
  end

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty input";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = min (n - 1) (lo + 1) in
  let frac = rank -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let histogram ~lo ~hi ~bins xs =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if hi <= lo then invalid_arg "Stats.histogram: hi must exceed lo";
  let counts = Array.make bins 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Array.iter
    (fun x ->
      let b = int_of_float ((x -. lo) /. width) in
      let b = max 0 (min (bins - 1) b) in
      counts.(b) <- counts.(b) + 1)
    xs;
  counts

type running = { mutable n : int; mutable m : float; mutable m2 : float }

let running_create () = { n = 0; m = 0.; m2 = 0. }

let running_reset r =
  r.n <- 0;
  r.m <- 0.;
  r.m2 <- 0.

let running_add r x =
  r.n <- r.n + 1;
  let delta = x -. r.m in
  r.m <- r.m +. (delta /. float_of_int r.n);
  r.m2 <- r.m2 +. (delta *. (x -. r.m))

let running_count r = r.n
let running_mean r = r.m
let running_m2 r = r.m2
let running_variance r = if r.n < 2 then 0. else r.m2 /. float_of_int (r.n - 1)
