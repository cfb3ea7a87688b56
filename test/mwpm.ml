(* Exact minimum-weight matching for small defect sets, as a test oracle
   for the union-find decoder's accuracy.  Defects are paired with each
   other or with the boundary along shortest paths of the weighted graph;
   the optimum is a bitmask DP over the defect set (remove the lowest
   defect, pair it with the boundary or with any other remaining defect),
   so it is exponential in the number of defects and meant for at most
   14.  It also returns the logical parity of the paths it chose, so it
   can decode a shot. *)

let inf = max_int / 4

(* Shortest-path distances from [src] over [nv] vertices (O(V^2)
   Dijkstra; the test graphs are small), each with the logical parity of
   the first shortest path found: a tie never replaces a path. *)
let distances ~nv adj src =
  let dist = Array.make nv inf and par = Array.make nv false and fixed = Array.make nv false in
  dist.(src) <- 0;
  for _ = 1 to nv do
    let u = ref (-1) in
    for v = 0 to nv - 1 do
      if (not fixed.(v)) && dist.(v) < inf && (!u < 0 || dist.(v) < dist.(!u)) then u := v
    done;
    if !u >= 0 then begin
      fixed.(!u) <- true;
      List.iter
        (fun (w, x, l) ->
          if dist.(!u) + x < dist.(w) then begin
            dist.(w) <- dist.(!u) + x;
            par.(w) <- par.(!u) <> l
          end)
        adj.(!u)
    end
  done;
  (dist, par)

(* [decode ~nodes edges syndrome]: a minimum-weight correction for
   [syndrome], with edges as [Decoder_uf.weighted_graph] takes them, as its
   total weight and the logical parity of its paths (among equal-weight
   pairings, the first the DP meets), or [None] when some defect cannot be
   paired at all.  At most 14 defects. *)
let decode ~nodes edges syndrome =
  let nv = nodes + 1 in
  let adj = Array.make nv [] in
  List.iter
    (fun (u, v, w, l) ->
      let v = if v = Decoder_uf.boundary then nodes else v in
      adj.(u) <- (v, w, l) :: adj.(u);
      adj.(v) <- (u, w, l) :: adj.(v))
    edges;
  let defects = Array.of_list (List.filter (fun i -> syndrome.(i)) (List.init nodes Fun.id)) in
  let k = Array.length defects in
  if k > 14 then invalid_arg "Mwpm.decode: more than 14 defects";
  let paths = Array.map (distances ~nv adj) defects in
  let best = Array.make (1 lsl k) inf and flip = Array.make (1 lsl k) false in
  best.(0) <- 0;
  for mask = 1 to (1 lsl k) - 1 do
    let i = Bitvec.ctz mask in
    let rest = mask land lnot (1 lsl i) in
    let dist, par = paths.(i) in
    let pick = ref (dist.(nodes) + best.(rest)) and pflip = ref (par.(nodes) <> flip.(rest)) in
    for j = i + 1 to k - 1 do
      if rest land (1 lsl j) <> 0 then begin
        let other = rest land lnot (1 lsl j) in
        let w = dist.(defects.(j)) + best.(other) in
        if w < !pick then begin
          pick := w;
          pflip := par.(defects.(j)) <> flip.(other)
        end
      end
    done;
    best.(mask) <- min inf !pick;
    flip.(mask) <- !pflip
  done;
  let full = (1 lsl k) - 1 in
  if best.(full) >= inf then None else Some (best.(full), flip.(full))

(* The minimum total edge weight of a correction for [syndrome], or [None]
   when some defect cannot be paired at all. *)
let weight ~nodes edges syndrome = Option.map fst (decode ~nodes edges syndrome)
