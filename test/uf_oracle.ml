(* The half-edge-list union-find decoder that [Decoder_uf] replaced, kept
   only as a differential oracle.  Same growth rule, fast-forward and peel,
   step for step: each border is a linked list of half-edges (half-edge
   2*eid at the edge's u end, 2*eid + 1 at its v end), every round walks the
   active borders once to count each live edge's rate and once to grow, and
   the fast-forward step is min over edges of ceil(remaining / rate).  State
   is fresh per call: no arena pool, no undo logs. *)

type graph = {
  n : int;  (* real nodes; vertex n is the virtual boundary *)
  e_u : int array;
  e_v : int array;
  e_full : int array;
  e_logical : bool array;
  init_head : int array;
  init_tail : int array;
  init_next : int array;
  total_weight : int;
}

(* [create ~nodes edges] takes the edges as [Decoder_uf.weighted_graph]
   does. *)
let create ~nodes (edges : (int * int * int * bool) array) =
  let ne = Array.length edges in
  let e_u = Array.map (fun (u, _, _, _) -> u) edges in
  let e_v = Array.map (fun (_, v, _, _) -> if v = Decoder_uf.boundary then nodes else v) edges in
  let nv = nodes + 1 in
  let init_head = Array.make nv (-1) in
  let init_tail = Array.make nv (-1) in
  let init_next = Array.make (max 1 (2 * ne)) (-1) in
  let append v h =
    if init_head.(v) = -1 then init_head.(v) <- h
    else init_next.(init_tail.(v)) <- h;
    init_tail.(v) <- h
  in
  for i = 0 to ne - 1 do
    append e_u.(i) (2 * i);
    append e_v.(i) ((2 * i) + 1)
  done;
  { n = nodes; e_u; e_v;
    e_full = Array.map (fun (_, _, w, _) -> 2 * w) edges;
    e_logical = Array.map (fun (_, _, _, l) -> l) edges;
    init_head; init_tail; init_next;
    total_weight = Array.fold_left (fun acc (_, _, w, _) -> acc + w) 1 edges }

(* [decode_correction g syndrome] is the predicted logical flip and the
   correction's edge ids in peel order. *)
let decode_correction g syndrome =
  let nv = g.n + 1 and ne = Array.length g.e_u in
  let parent = Array.init nv (fun v -> v) in
  let rank = Array.make nv 0 in
  let parity = Array.make nv 0 in
  let bnd = Array.init nv (fun v -> v = g.n) in
  let defect = Array.make nv false in
  let head = Array.copy g.init_head and tail = Array.copy g.init_tail in
  let next = Array.copy g.init_next in
  let growth = Array.make (max 1 ne) 0 in
  let defects = ref [] in
  for i = min g.n (Bitvec.length syndrome) - 1 downto 0 do
    if Bitvec.get syndrome i then begin
      defect.(i) <- true;
      parity.(i) <- 1;
      defects := i :: !defects
    end
  done;
  let defects = Array.of_list !defects in
  let rec find v =
    let p = parent.(v) in
    if p = v then v
    else begin
      let r = find p in
      parent.(v) <- r;
      r
    end
  in
  let merge u v =
    let ru = find u and rv = find v in
    if ru <> rv then begin
      let r, other = if rank.(ru) >= rank.(rv) then (ru, rv) else (rv, ru) in
      parent.(other) <- r;
      if rank.(ru) = rank.(rv) then rank.(r) <- rank.(r) + 1;
      parity.(r) <- (parity.(ru) + parity.(rv)) land 1;
      bnd.(r) <- bnd.(ru) || bnd.(rv);
      if head.(r) = -1 then begin
        head.(r) <- head.(other);
        tail.(r) <- tail.(other)
      end
      else if head.(other) <> -1 then begin
        next.(tail.(r)) <- head.(other);
        tail.(r) <- tail.(other)
      end
    end
  in
  let full = ref [] in
  let rate = Array.make (max 1 ne) 0 in
  let seen = Array.make nv (-1) in
  let guard = ref 0 and progress = ref (Array.length defects > 0) in
  while !progress do
    if !guard > 4 * g.total_weight then
      failwith "Decoder_uf: growth failed to converge";
    incr guard;
    let roots = ref [] in
    Array.iter
      (fun d ->
        let r = find d in
        if seen.(r) <> !guard then begin
          seen.(r) <- !guard;
          if parity.(r) = 1 && not bnd.(r) then roots := r :: !roots
        end)
      defects;
    let roots = List.rev !roots in
    if roots = [] then progress := false
    else begin
      let iter_border r f =
        let h = ref head.(r) in
        while !h <> -1 do
          f (!h lsr 1);
          h := next.(!h)
        done
      in
      Array.fill rate 0 (Array.length rate) 0;
      List.iter
        (fun r ->
          iter_border r (fun eid ->
              if growth.(eid) < g.e_full.(eid) then rate.(eid) <- rate.(eid) + 1))
        roots;
      let step = ref max_int in
      Array.iteri
        (fun eid k ->
          if k > 0 then
            step := min !step ((g.e_full.(eid) - growth.(eid) + k - 1) / k))
        rate;
      if !step > 1 && !step < max_int then begin
        let skip = !step - 1 in
        guard := !guard + skip;
        Array.iteri (fun eid k -> growth.(eid) <- growth.(eid) + (k * skip)) rate
      end;
      let to_merge = ref [] in
      List.iter
        (fun r ->
          iter_border r (fun eid ->
              if growth.(eid) < g.e_full.(eid) then begin
                growth.(eid) <- growth.(eid) + 1;
                if growth.(eid) >= g.e_full.(eid) then begin
                  to_merge := eid :: !to_merge;
                  full := eid :: !full
                end
              end))
        roots;
      List.iter (fun eid -> merge g.e_u.(eid) g.e_v.(eid)) (List.rev !to_merge)
    end
  done;
  (* Peel: a spanning forest over the full edges, boundary-rooted first.
     Each vertex's adjacency lists its full edges newest first. *)
  let adj = Array.make nv [] in
  List.iter
    (fun eid ->
      adj.(g.e_u.(eid)) <- (eid, g.e_v.(eid)) :: adj.(g.e_u.(eid));
      adj.(g.e_v.(eid)) <- (eid, g.e_u.(eid)) :: adj.(g.e_v.(eid)))
    (List.rev !full);
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
  Array.iter dfs defects;
  (* [order] is reverse discovery order: children before parents. *)
  let flip = ref false and corr = ref [] in
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
