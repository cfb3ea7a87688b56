(* The unit-round union-find decoder that [Decoder_uf]'s event queue
   replaced, kept only as a differential oracle.  Same growth rule and peel,
   round for round: each round walks the borders of the active clusters (odd
   parity, no boundary), collected in defect order, and grows every live
   edge one half-step per visit; a cluster's border is the linked list of
   its vertices over CSR incidence.  Every edge that fulls in a walk is
   merged after the walk, in walk order.  A walk that fulls nothing applies
   the rounds up to the next fulling one at once.  State is fresh per call:
   no arena pool, no undo logs. *)

type graph = {
  n : int;  (* real nodes; vertex n is the virtual boundary *)
  e_u : int array;
  e_v : int array;
  e_full : int array;  (* 2 * weight, the half-step growth target *)
  e_logical : bool array;
  off : int array;  (* n + 2 entries: slot range start per vertex *)
  slot_e : int array;  (* 2 * ne incident edge ids *)
  total_weight : int;
}

(* [create ~nodes edges] takes the edges as [Decoder_uf.weighted_graph]
   does. *)
let create ~nodes (edges : (int * int * int * bool) array) =
  let ne = Array.length edges in
  let e_u = Array.map (fun (u, _, _, _) -> u) edges in
  let e_v =
    Array.map (fun (_, v, _, _) -> if v = Decoder_uf.boundary then nodes else v) edges
  in
  let nv = nodes + 1 in
  let off = Array.make (nv + 1) 0 in
  for i = 0 to ne - 1 do
    off.(e_u.(i) + 1) <- off.(e_u.(i) + 1) + 1;
    off.(e_v.(i) + 1) <- off.(e_v.(i) + 1) + 1
  done;
  for w = 1 to nv do
    off.(w) <- off.(w) + off.(w - 1)
  done;
  let slot_e = Array.make (2 * ne) 0 in
  let fill = Array.sub off 0 nv in
  for i = 0 to ne - 1 do
    List.iter
      (fun w ->
        slot_e.(fill.(w)) <- i;
        fill.(w) <- fill.(w) + 1)
      [ e_u.(i); e_v.(i) ]
  done;
  { n = nodes; e_u; e_v;
    e_full = Array.map (fun (_, _, w, _) -> 2 * w) edges;
    e_logical = Array.map (fun (_, _, _, l) -> l) edges;
    off; slot_e;
    total_weight = Array.fold_left (fun acc (_, _, w, _) -> acc + w) 1 edges }

type state = {
  parent : int array;
  rank : int array;
  parity : int array;
  bnd : bool array;
  head : int array;
  tail : int array;
  vnext : int array;
  growth : int array;
  seen : int array;
  mutable epoch : int;
  rate_seen : int array;
  rate_edges : int array;
  mutable nrate : int;
  full : int array;
  mutable nfull : int;
}

let rec find s v =
  let p = s.parent.(v) in
  if p = v then v
  else begin
    let r = find s p in
    s.parent.(v) <- r;
    r
  end

let merge s u v =
  let ru = find s u and rv = find s v in
  if ru <> rv then begin
    let r, other = if s.rank.(ru) >= s.rank.(rv) then (ru, rv) else (rv, ru) in
    s.parent.(other) <- r;
    if s.rank.(ru) = s.rank.(rv) then s.rank.(r) <- s.rank.(r) + 1;
    s.parity.(r) <- (s.parity.(ru) + s.parity.(rv)) land 1;
    s.bnd.(r) <- s.bnd.(ru) || s.bnd.(rv);
    s.vnext.(s.tail.(r)) <- s.head.(other);
    s.tail.(r) <- s.tail.(other)
  end

(* One unit round over the borders of [roots]: grow every live edge one
   half-step per visit, record the edges that full, and return the number
   of rounds from the start of this walk until the first edge fulls (the
   remaining half-steps at an edge's first visit, half of them rounded up
   at its second). *)
let walk_borders g s roots =
  let stamp = s.epoch lsl 1 in
  let bound = ref max_int in
  s.nrate <- 0;
  List.iter
    (fun r ->
      let v = ref s.head.(r) in
      while !v <> -1 do
        for k = g.off.(!v) to g.off.(!v + 1) - 1 do
          let eid = g.slot_e.(k) in
          let full = g.e_full.(eid) and gr = s.growth.(eid) in
          if gr < full then begin
            let cand =
              if s.rate_seen.(eid) <> stamp then begin
                s.rate_seen.(eid) <- stamp;
                s.rate_edges.(s.nrate) <- eid;
                s.nrate <- s.nrate + 1;
                full - gr
              end
              else begin
                s.rate_seen.(eid) <- stamp lor 1;
                (full - gr + 2) lsr 1
              end
            in
            if cand < !bound then bound := cand;
            s.growth.(eid) <- gr + 1;
            if gr + 1 >= full then begin
              s.full.(s.nfull) <- eid;
              s.nfull <- s.nfull + 1
            end
          end
        done;
        v := s.vnext.(!v)
      done)
    roots;
  !bound

(* Grow, then peel a spanning forest of the full edges (boundary-rooted
   first) and return the logical flip and the correction edge ids. *)
let decode_correction g syndrome =
  let nv = g.n + 1 and ne = Array.length g.e_u in
  let s =
    { parent = Array.init nv Fun.id; rank = Array.make nv 0;
      parity = Array.make nv 0; bnd = Array.init nv (fun v -> v = g.n);
      head = Array.init nv Fun.id; tail = Array.init nv Fun.id;
      vnext = Array.make nv (-1); growth = Array.make ne 0;
      seen = Array.make nv 0; epoch = 0; rate_seen = Array.make ne 0;
      rate_edges = Array.make ne 0; nrate = 0; full = Array.make ne 0; nfull = 0 }
  in
  let defects = List.filter (Bitvec.get syndrome) (List.init g.n Fun.id) in
  List.iter (fun d -> s.parity.(d) <- 1) defects;
  let guard = ref 0 in
  let roots = ref [] and collect = ref true and progress = ref true in
  while !progress do
    if !guard > 4 * g.total_weight then failwith "Decoder_uf: growth failed to converge";
    incr guard;
    s.epoch <- s.epoch + 1;
    if !collect then begin
      collect := false;
      roots :=
        List.rev
          (List.fold_left
             (fun acc d ->
               let r = find s d in
               if s.seen.(r) = s.epoch then acc
               else begin
                 s.seen.(r) <- s.epoch;
                 if s.parity.(r) = 1 && not s.bnd.(r) then r :: acc else acc
               end)
             [] defects)
    end;
    if !roots = [] then progress := false
    else begin
      let nfull0 = s.nfull in
      let bound = walk_borders g s !roots in
      if s.nfull > nfull0 then begin
        for k = nfull0 to s.nfull - 1 do
          merge s g.e_u.(s.full.(k)) g.e_v.(s.full.(k))
        done;
        collect := true
      end
      else if bound < max_int then begin
        let skip = bound - 2 in
        guard := !guard + skip;
        for i = 0 to s.nrate - 1 do
          let eid = s.rate_edges.(i) in
          let rate = (s.rate_seen.(eid) land 1) + 1 in
          s.growth.(eid) <- s.growth.(eid) + (rate * skip)
        done
      end
    end
  done;
  let adj = Array.make nv [] in
  for k = 0 to s.nfull - 1 do
    let eid = s.full.(k) in
    adj.(g.e_u.(eid)) <- (eid, g.e_v.(eid)) :: adj.(g.e_u.(eid));
    adj.(g.e_v.(eid)) <- (eid, g.e_u.(eid)) :: adj.(g.e_v.(eid))
  done;
  let visited = Array.make nv false in
  let parent_v = Array.make nv (-1) and parent_edge = Array.make nv (-1) in
  let order = ref [] in
  let dfs root =
    if not visited.(root) then begin
      visited.(root) <- true;
      let stack = ref [ root ] in
      while !stack <> [] do
        let v = List.hd !stack in
        stack := List.tl !stack;
        order := v :: !order;
        List.iter
          (fun (eid, w) ->
            if not visited.(w) then begin
              visited.(w) <- true;
              parent_v.(w) <- v;
              parent_edge.(w) <- eid;
              stack := w :: !stack
            end)
          adj.(v)
      done
    end
  in
  dfs g.n;
  List.iter dfs defects;
  let defect = Array.init nv (fun v -> v < g.n && Bitvec.get syndrome v) in
  let flip = ref false and corr = ref [] in
  (* [order] is reversed discovery order: children before parents *)
  List.iter
    (fun v ->
      if v <> g.n && defect.(v) && parent_v.(v) >= 0 then begin
        let eid = parent_edge.(v) in
        if g.e_logical.(eid) then flip := not !flip;
        corr := eid :: !corr;
        defect.(v) <- false;
        let p = parent_v.(v) in
        if p <> g.n then defect.(p) <- not defect.(p)
      end)
    !order;
  (!flip, List.rev !corr)

let decode g syndrome = fst (decode_correction g syndrome)
