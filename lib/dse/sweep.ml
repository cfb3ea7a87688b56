let linspace ~lo ~hi ~n =
  if n < 2 then invalid_arg "Sweep.linspace: need n >= 2";
  List.init n (fun i -> lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1)))

let logspace ~lo ~hi ~n =
  if lo <= 0. || hi <= 0. then invalid_arg "Sweep.logspace: positive bounds required";
  List.map exp (linspace ~lo:(log lo) ~hi:(log hi) ~n)

let points_total = Obs.Counter.create "dse.sweep_points_total"

(* The point index is a span attribute (not part of the name) so profile
   paths aggregate across points while an exported trace still identifies
   which point each span timed — deterministically, since indices come from
   point order, never from domain scheduling. *)
let point_span ~index f x =
  Obs.Counter.incr points_total;
  Obs.Trace.with_span
    ~attrs:[ ("point", string_of_int index) ]
    "dse.sweep_point"
    (fun () -> f x)

let indexed points = List.mapi (fun i x -> (i, x)) points

(* [~store] installs a persistent characterization store for the duration
   of the sweep (restoring the previous one after), so any
   Characterize.characterize_op the points perform — on any worker domain —
   warm-starts from disk instead of re-running density-matrix simulation. *)
let with_store_opt store f =
  match store with None -> f () | Some s -> Char_store.with_store s f

(* Sweep points are independent, so they fan across domains.  Results come
   back in point order regardless of which domain evaluated what; [f] itself
   must be deterministic per point (e.g. take a fresh seed per point, as the
   figure drivers do) for the sweep to be seed-stable at any job count.
   The characterization store never breaks this: its values are bit-exact
   round trips of deterministic computations, so results are byte-identical
   with the store cold, warm, or absent. *)
let sweep ?jobs ?store points ~f =
  with_store_opt store (fun () ->
      Parallel.map_list ?jobs
        (fun (i, x) -> (x, point_span ~index:i f x))
        (indexed points))

let grid ?jobs ?store xs ys ~f =
  with_store_opt store (fun () ->
      Parallel.map_list ?jobs
        (fun (i, (x, y)) -> (x, y, point_span ~index:i (f x) y))
        (indexed (List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs)))

let argmin = function
  | [] -> invalid_arg "Sweep.argmin: empty"
  | hd :: tl ->
      List.fold_left (fun (bx, bv) (x, v) -> if v < bv then (x, v) else (bx, bv)) hd tl

let argmax = function
  | [] -> invalid_arg "Sweep.argmax: empty"
  | hd :: tl ->
      List.fold_left (fun (bx, bv) (x, v) -> if v > bv then (x, v) else (bx, bv)) hd tl

let pareto points =
  let dominated (_, a1, a2) =
    List.exists
      (fun (_, b1, b2) -> b1 <= a1 && b2 <= a2 && (b1 < a1 || b2 < a2))
      points
  in
  List.filter (fun p -> not (dominated p)) points
