(* Exact minimum-weight matching for small defect sets, as a test oracle
   for the union-find decoder's accuracy.  Defects are paired with each
   other or with the boundary along shortest paths of the weighted graph;
   the optimum is a bitmask DP over the defect set (remove the lowest
   defect, pair it with the boundary or with any other remaining defect),
   so it is exponential in the number of defects and meant for at most
   about a dozen. *)

let inf = max_int / 4

(* Shortest-path distances from [src] over [nv] vertices (O(V^2)
   Dijkstra; the test graphs are small). *)
let distances ~nv adj src =
  let dist = Array.make nv inf and fixed = Array.make nv false in
  dist.(src) <- 0;
  for _ = 1 to nv do
    let u = ref (-1) in
    for v = 0 to nv - 1 do
      if (not fixed.(v)) && dist.(v) < inf && (!u < 0 || dist.(v) < dist.(!u)) then u := v
    done;
    if !u >= 0 then begin
      fixed.(!u) <- true;
      List.iter
        (fun (w, x) -> if dist.(!u) + x < dist.(w) then dist.(w) <- dist.(!u) + x)
        adj.(!u)
    end
  done;
  dist

(* [weight ~nodes edges syndrome]: the minimum total edge weight of a
   correction for [syndrome], with edges as [Decoder_uf.weighted_graph]
   takes them, or [None] when some defect cannot be paired at all. *)
let weight ~nodes edges syndrome =
  let nv = nodes + 1 in
  let adj = Array.make nv [] in
  List.iter
    (fun (u, v, w, _) ->
      let v = if v = Decoder_uf.boundary then nodes else v in
      adj.(u) <- (v, w) :: adj.(u);
      adj.(v) <- (u, w) :: adj.(v))
    edges;
  let defects = Array.of_list (List.filter (fun i -> syndrome.(i)) (List.init nodes Fun.id)) in
  let k = Array.length defects in
  if k > 12 then invalid_arg "Mwpm.weight: more than 12 defects";
  let dist = Array.map (distances ~nv adj) defects in
  let best = Array.make (1 lsl k) inf in
  best.(0) <- 0;
  for mask = 1 to (1 lsl k) - 1 do
    let i = Bitvec.ctz mask in
    let rest = mask land lnot (1 lsl i) in
    let pick = ref (dist.(i).(nodes) + best.(rest)) in
    for j = i + 1 to k - 1 do
      if rest land (1 lsl j) <> 0 then
        pick := min !pick (dist.(i).(defects.(j)) + best.(rest land lnot (1 lsl j)))
    done;
    best.(mask) <- min inf !pick
  done;
  let w = best.((1 lsl k) - 1) in
  if w >= inf then None else Some w
