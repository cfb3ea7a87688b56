type edge = { u : int; v : int; weight : int; logical : bool }

(* Incidence is stored in CSR form: vertex [w]'s incident edges are
   [slot_e.(off.(w)) .. slot_e.(off.(w + 1) - 1)], in construction order.
   A cluster's border is the linked list of its vertices, so walking a
   border is walking each of its vertices' slot ranges in list order. *)
type graph = {
  n : int;  (* real nodes; vertex n is the virtual boundary *)
  edges : edge array;
  (* flat copies of the edge fields: the decode loops touch these instead of
     chasing a pointer into the boxed record array per visit *)
  e_u : int array;
  e_v : int array;
  e_full : int array;  (* 2 * weight, the half-step growth target *)
  e_logical : bool array;
  off : int array;  (* n + 2 entries: slot range start per vertex, then 2 * ne *)
  slot_e : int array;  (* 2 * ne incident edge ids *)
  total_weight : int;
  (* reusable decode arenas: a LIFO stack in a growable array, not a cons
     list, so steady-state take/release allocate nothing (the array only
     grows when more arenas are live at once than ever before) *)
  mutable pool : arena array;
  mutable npool : int;
  pool_lock : Mutex.t;
}

(* Pre-sized scratch for one in-flight decode.  Nothing in here is allocated
   per shot: every vertex the shot mutates is logged in a dirty stack
   (deduplicated by a mark array) and restored after the shot, together with
   the growth of its incident edges, so reset cost is proportional to the
   work the shot actually did — a quiet syndrome costs O(defects), not
   O(V + E). *)
and arena = {
  (* union-find over nv = n + 1 vertices *)
  parent : int array;
  rank : int array;
  parity : int array;
  bnd : bool array;  (* cluster touches the boundary *)
  defect : bool array;
  (* border vertex lists: head/tail per root, vnext per vertex, -1 end *)
  head : int array;
  tail : int array;
  vnext : int array;
  growth : int array;  (* per edge, in half-steps *)
  (* dirty logs: what to restore after the shot *)
  dirty_v : int array;
  mutable ndirty_v : int;
  vmark : bool array;
  (* parent-only dirty log: path compression touches many vertices but
     mutates just [parent], so its undo is one write instead of the full
     restore of the vertex log *)
  dirty_p : int array;
  mutable ndirty_p : int;
  pmark : bool array;
  (* growth-round bookkeeping *)
  defects : int array;
  mutable ndef : int;
  roots : int array;
  seen : int array;  (* epoch stamps: root already collected this round *)
  mutable epoch : int;  (* one per border walk *)
  (* per-edge stamp of the current walk, [(epoch lsl 1) lor (rate - 1)]:
     the edge's growth rate is its number of live half-edges on active
     borders (1 or 2), and the stamp never needs reset *)
  rate_seen : int array;
  rate_edges : int array;  (* live edges of the current walk *)
  mutable nrate : int;
  full : int array;  (* every edge that reached full growth this shot *)
  mutable nfull : int;
  (* peeling *)
  adj_head : int array;  (* vertex -> first full half-edge, -1 end *)
  adj_next : int array;
  visited : bool array;
  parent_v : int array;
  parent_edge : int array;
  order : int array;
  mutable norder : int;
  stack : int array;
  corr : int array;  (* correction edge ids of the last decode *)
  mutable ncorr : int;
  (* batch transposition scratch: per-shot syndromes for one 63-shot block *)
  syn : Bitvec.t array;
}

let boundary = -1

let arenas_total = Obs.Counter.create "qec.uf_arenas_total"
let decode_shots_total = Obs.Counter.create "qec.uf_decode_shots_total"
let batch_seconds = Obs.Histogram.create "qec.uf_decode_batch_seconds"

let weighted_graph ~nodes ~edges =
  if nodes <= 0 then invalid_arg "Decoder_uf.graph: need nodes";
  let edges =
    Array.of_list
      (List.map
         (fun (u, v, weight, logical) ->
           let v = if v = boundary then nodes else v in
           if u < 0 || u >= nodes then invalid_arg "Decoder_uf.graph: bad endpoint";
           if v < 0 || v > nodes then invalid_arg "Decoder_uf.graph: bad endpoint";
           if u = v then invalid_arg "Decoder_uf.graph: self-loop";
           if weight < 1 then invalid_arg "Decoder_uf.graph: weight must be >= 1";
           { u; v; weight; logical })
         edges)
  in
  (* Every endpoint is in [0, nodes] (checked above), so every [off] entry
     is in [0, 2 * ne] and every [slot_e] entry is an edge id in [0, ne) —
     the invariant the unchecked reads of the border walk rely on. *)
  let nv = nodes + 1 in
  let off = Array.make (nv + 1) 0 in
  Array.iter
    (fun e ->
      off.(e.u + 1) <- off.(e.u + 1) + 1;
      off.(e.v + 1) <- off.(e.v + 1) + 1)
    edges;
  for w = 1 to nv do
    off.(w) <- off.(w) + off.(w - 1)
  done;
  let slot_e = Array.make (2 * Array.length edges) 0 in
  let fill = Array.sub off 0 nv in
  Array.iteri
    (fun i e ->
      slot_e.(fill.(e.u)) <- i;
      fill.(e.u) <- fill.(e.u) + 1;
      slot_e.(fill.(e.v)) <- i;
      fill.(e.v) <- fill.(e.v) + 1)
    edges;
  let total_weight = Array.fold_left (fun acc e -> acc + e.weight) 1 edges in
  { n = nodes; edges;
    e_u = Array.map (fun e -> e.u) edges;
    e_v = Array.map (fun e -> e.v) edges;
    e_full = Array.map (fun e -> 2 * e.weight) edges;
    e_logical = Array.map (fun e -> e.logical) edges;
    off; slot_e; total_weight;
    pool = [||]; npool = 0; pool_lock = Mutex.create () }

let graph ~nodes ~edges =
  weighted_graph ~nodes ~edges:(List.map (fun (u, v, l) -> (u, v, 1, l)) edges)

let num_nodes g = g.n
let num_edges g = Array.length g.edges

let edge_list g =
  Array.map
    (fun e -> (e.u, (if e.v = g.n then boundary else e.v), e.weight, e.logical))
    g.edges

(* ------------------------------------------------------------- arena --- *)

let create_arena g =
  Obs.Counter.incr arenas_total;
  let nv = g.n + 1 in
  let ne = max 1 (Array.length g.edges) in
  { parent = Array.init nv (fun v -> v);
    rank = Array.make nv 0;
    parity = Array.make nv 0;
    bnd = Array.init nv (fun v -> v = g.n);
    defect = Array.make nv false;
    head = Array.init nv (fun v -> v);
    tail = Array.init nv (fun v -> v);
    vnext = Array.make nv (-1);
    growth = Array.make ne 0;
    dirty_v = Array.make nv 0;
    ndirty_v = 0;
    vmark = Array.make nv false;
    dirty_p = Array.make nv 0;
    ndirty_p = 0;
    pmark = Array.make nv false;
    defects = Array.make (max 1 g.n) 0;
    ndef = 0;
    roots = Array.make (max 1 g.n) 0;
    seen = Array.make nv 0;
    epoch = 0;
    rate_seen = Array.make ne 0;
    rate_edges = Array.make ne 0;
    nrate = 0;
    full = Array.make ne 0;
    nfull = 0;
    adj_head = Array.make nv (-1);
    adj_next = Array.make (2 * ne) 0;
    visited = Array.make nv false;
    parent_v = Array.make nv (-1);
    parent_edge = Array.make nv (-1);
    order = Array.make nv 0;
    norder = 0;
    stack = Array.make nv 0;
    corr = Array.make nv 0;
    ncorr = 0;
    syn = Array.init Bitvec.word_size (fun _ -> Bitvec.create (max 1 g.n)) }

(* Direct lock/unlock instead of [Mutex.protect]: the protected regions are
   straight-line array ops that cannot raise, and protect's closure (plus the
   [Some a] it would return) is exactly the kind of steady-state garbage the
   zero-alloc gate exists to forbid. *)
let take_arena g =
  Mutex.lock g.pool_lock;
  if g.npool > 0 then begin
    g.npool <- g.npool - 1;
    let a = g.pool.(g.npool) in
    Mutex.unlock g.pool_lock;
    a
  end
  else begin
    Mutex.unlock g.pool_lock;
    create_arena g
  end

let release_arena g a =
  Mutex.lock g.pool_lock;
  let cap = Array.length g.pool in
  if g.npool = cap then begin
    let bigger = Array.make (max 4 (2 * cap)) a in
    Array.blit g.pool 0 bigger 0 cap;
    g.pool <- bigger
  end;
  g.pool.(g.npool) <- a;
  g.npool <- g.npool + 1;
  Mutex.unlock g.pool_lock

let touch_v a v =
  if not a.vmark.(v) then begin
    a.vmark.(v) <- true;
    a.dirty_v.(a.ndirty_v) <- v;
    a.ndirty_v <- a.ndirty_v + 1
  end

let touch_p a v =
  if not a.pmark.(v) then begin
    a.pmark.(v) <- true;
    a.dirty_p.(a.ndirty_p) <- v;
    a.ndirty_p <- a.ndirty_p + 1
  end

(* Undo every mutation of the shot, returning the arena to the pristine
   create_arena state.  Growth is cleared through the slots of the touched
   vertices: only clusters without the boundary grow, every vertex of such a
   cluster is touched (as a defect or as a merged root), and every grown
   edge has an endpoint in one, so the boundary vertex's slots can be
   skipped.  Cost is proportional to the dirty logs. *)
let reset_arena g a =
  for i = 0 to a.ndirty_v - 1 do
    let v = a.dirty_v.(i) in
    a.parent.(v) <- v;
    a.rank.(v) <- 0;
    a.parity.(v) <- 0;
    a.bnd.(v) <- v = g.n;
    a.defect.(v) <- false;
    a.head.(v) <- v;
    a.tail.(v) <- v;
    a.vnext.(v) <- -1;
    a.vmark.(v) <- false;
    if v <> g.n then
      for k = g.off.(v) to g.off.(v + 1) - 1 do
        a.growth.(g.slot_e.(k)) <- 0
      done
  done;
  a.ndirty_v <- 0;
  for i = 0 to a.ndirty_p - 1 do
    let v = a.dirty_p.(i) in
    a.parent.(v) <- v;
    a.pmark.(v) <- false
  done;
  a.ndirty_p <- 0;
  for k = 0 to a.nfull - 1 do
    let eid = a.full.(k) in
    a.adj_head.(g.e_u.(eid)) <- -1;
    a.adj_head.(g.e_v.(eid)) <- -1
  done;
  a.nfull <- 0;
  for i = 0 to a.norder - 1 do
    a.visited.(a.order.(i)) <- false
  done;
  a.norder <- 0;
  a.ndef <- 0

let rec find a v =
  let p = a.parent.(v) in
  if p = v then v
  else begin
    let r = find a p in
    if a.parent.(v) <> r then begin
      touch_p a v;
      a.parent.(v) <- r
    end;
    r
  end

let merge a u v =
  let ru = find a u and rv = find a v in
  if ru <> rv then begin
    touch_v a ru;
    touch_v a rv;
    let r, other = if a.rank.(ru) >= a.rank.(rv) then (ru, rv) else (rv, ru) in
    a.parent.(other) <- r;
    if a.rank.(ru) = a.rank.(rv) then a.rank.(r) <- a.rank.(r) + 1;
    a.parity.(r) <- (a.parity.(ru) + a.parity.(rv)) land 1;
    a.bnd.(r) <- a.bnd.(ru) || a.bnd.(rv);
    (* concat border vertex lists: r's list ++ other's list, O(1) *)
    let t = a.tail.(r) in
    touch_v a t;
    a.vnext.(t) <- a.head.(other);
    a.tail.(r) <- a.tail.(other)
  end

(* One unit growth round: walk the borders of the first [nroots] roots,
   growing every live edge one half-step and recording each edge that
   reaches full growth.  Full edges stay on the borders; the growth check
   skips them.  Returns the fast-forward bound: the number of unit rounds
   from the start of this walk until the first edge fulls, i.e. the minimum
   over live edges of ceil(remaining / rate).  It is folded in without a
   division: at an edge's first visit the candidate is its remaining
   half-steps, at its second (rate 2, one increment already applied) it is
   ceil(remaining / 2), which is never larger.  An edge has two endpoints
   and each vertex sits on one border, so no edge is visited a third time.

   Reads of [off], [slot_e] and the per-edge arrays are unchecked:
   [weighted_graph] guarantees every vertex indexes [off] and every slot
   holds an edge id in range (see its comment). *)
let walk_borders g a nroots =
  let stamp = a.epoch lsl 1 in
  let bound = ref max_int in
  a.nrate <- 0;
  for i = 0 to nroots - 1 do
    let v = ref a.head.(a.roots.(i)) in
    while !v <> -1 do
      for k = Array.unsafe_get g.off !v to Array.unsafe_get g.off (!v + 1) - 1 do
        let eid = Array.unsafe_get g.slot_e k in
        let full = Array.unsafe_get g.e_full eid in
        let gr = Array.unsafe_get a.growth eid in
        if gr < full then begin
          let cand =
            if Array.unsafe_get a.rate_seen eid <> stamp then begin
              Array.unsafe_set a.rate_seen eid stamp;
              a.rate_edges.(a.nrate) <- eid;
              a.nrate <- a.nrate + 1;
              full - gr
            end
            else begin
              Array.unsafe_set a.rate_seen eid (stamp lor 1);
              (full - gr + 2) lsr 1
            end
          in
          if cand < !bound then bound := cand;
          Array.unsafe_set a.growth eid (gr + 1);
          if gr + 1 >= full then begin
            a.full.(a.nfull) <- eid;
            a.nfull <- a.nfull + 1
          end
        end
      done;
      v := a.vnext.(!v)
    done
  done;
  !bound

(* Iterative spanning-forest DFS over the full edges from [root].  Top-level
   (not a local closure inside [decode_into]) so the per-shot decode loop
   allocates no closure for it — part of the zero-alloc steady-state
   contract. *)
let peel_dfs g a root =
  if not a.visited.(root) then begin
    a.visited.(root) <- true;
    a.parent_v.(root) <- -1;
    a.parent_edge.(root) <- -1;
    let nstack = ref 1 in
    a.stack.(0) <- root;
    while !nstack > 0 do
      decr nstack;
      let v = a.stack.(!nstack) in
      a.order.(a.norder) <- v;
      a.norder <- a.norder + 1;
      let h = ref a.adj_head.(v) in
      while !h <> -1 do
        let eid = !h lsr 1 in
        let w = if !h land 1 = 0 then g.e_v.(eid) else g.e_u.(eid) in
        if not a.visited.(w) then begin
          a.visited.(w) <- true;
          a.parent_v.(w) <- v;
          a.parent_edge.(w) <- eid;
          a.stack.(!nstack) <- w;
          incr nstack
        end;
        h := a.adj_next.(!h)
      done
    done
  end

(* Grow clusters from defects until every cluster has even parity or touches
   the boundary, then peel a spanning forest of the full edges.  Growth is
   in unit rounds of one half-step per live half-edge on an active border;
   one border walk runs each round.  A walk that fulls an edge ends the
   round with merges, and the next round collects its roots afresh.  A walk
   that fulls nothing returns a bound b >= 2 and leaves the roots as they
   were: rounds 2 .. b - 1 would full nothing either, so they are applied at
   once as rate * (b - 2) to every live edge, and the next walk, on the
   same roots, is round b — bit-identical to running every round. *)
let decode_into g a syndrome ~record =
  a.ndef <- 0;
  for w = 0 to Bitvec.word_count syndrome - 1 do
    let bits = ref (Bitvec.get_word syndrome w) in
    let base = w * Bitvec.word_size in
    while !bits <> 0 do
      let i = base + Bitvec.ctz !bits in
      if i < g.n then begin
        touch_v a i;
        a.defect.(i) <- true;
        a.parity.(i) <- 1;
        a.defects.(a.ndef) <- i;
        a.ndef <- a.ndef + 1
      end;
      bits := !bits land (!bits - 1)
    done
  done;
  a.ncorr <- 0;
  if a.ndef = 0 then false
  else begin
    (* [guard] counts unit rounds; only a cluster with no live border edge
       (an odd component without a boundary edge) can stall it *)
    let guard = ref 0 in
    let nroots = ref 0 in
    let collect = ref true in
    let progress = ref true in
    while !progress do
      if !guard > 4 * g.total_weight then
        failwith "Decoder_uf: growth failed to converge";
      incr guard;
      a.epoch <- a.epoch + 1;
      if !collect then begin
        (* the active roots (odd parity, no boundary), in defect order *)
        collect := false;
        nroots := 0;
        for i = 0 to a.ndef - 1 do
          let r = find a a.defects.(i) in
          if a.seen.(r) <> a.epoch then begin
            a.seen.(r) <- a.epoch;
            if a.parity.(r) = 1 && not a.bnd.(r) then begin
              a.roots.(!nroots) <- r;
              incr nroots
            end
          end
        done
      end;
      if !nroots = 0 then progress := false
      else begin
        let nfull0 = a.nfull in
        let bound = walk_borders g a !nroots in
        if a.nfull > nfull0 then begin
          for k = nfull0 to a.nfull - 1 do
            let eid = a.full.(k) in
            merge a g.e_u.(eid) g.e_v.(eid)
          done;
          collect := true
        end
        else if bound < max_int then begin
          let skip = bound - 2 in
          guard := !guard + skip;
          for i = 0 to a.nrate - 1 do
            let eid = a.rate_edges.(i) in
            let rate = (a.rate_seen.(eid) land 1) + 1 in
            a.growth.(eid) <- a.growth.(eid) + (rate * skip)
          done
        end
      end
    done;
    (* Peel: spanning forest over the full edges, boundary-rooted first so
       odd clusters peel into it. *)
    for k = 0 to a.nfull - 1 do
      let eid = a.full.(k) in
      let u = g.e_u.(eid) and v = g.e_v.(eid) in
      a.adj_next.(2 * eid) <- a.adj_head.(u);
      a.adj_head.(u) <- 2 * eid;
      a.adj_next.((2 * eid) + 1) <- a.adj_head.(v);
      a.adj_head.(v) <- (2 * eid) + 1
    done;
    a.norder <- 0;
    peel_dfs g a g.n;
    for i = 0 to a.ndef - 1 do
      peel_dfs g a a.defects.(i)
    done;
    (* Reverse discovery order processes children before parents. *)
    let flip = ref false in
    for i = a.norder - 1 downto 0 do
      let v = a.order.(i) in
      if v <> g.n && a.defect.(v) && a.parent_v.(v) >= 0 then begin
        let eid = a.parent_edge.(v) in
        if g.e_logical.(eid) then flip := not !flip;
        if record then begin
          a.corr.(a.ncorr) <- eid;
          a.ncorr <- a.ncorr + 1
        end;
        a.defect.(v) <- false;
        let p = a.parent_v.(v) in
        if p <> g.n then begin
          touch_v a p;
          a.defect.(p) <- not a.defect.(p)
        end
      end
    done;
    !flip
  end

(* -------------------------------------------------------- entry points --- *)

(* On an exception mid-decode the arena is simply dropped (never returned to
   the pool), so a failed shot can never poison a later one. *)
let decode g syndrome =
  Obs.Counter.incr decode_shots_total;
  let a = take_arena g in
  let flip = decode_into g a syndrome ~record:false in
  reset_arena g a;
  release_arena g a;
  flip

let decode_correction g syndrome =
  let a = take_arena g in
  let (_ : bool) = decode_into g a syndrome ~record:true in
  let corr = List.init a.ncorr (fun i -> a.corr.(i)) in
  reset_arena g a;
  release_arena g a;
  corr

(* Batch decode: word-level transposition of detector bit-plane rows into
   per-shot syndrome words, one 63-shot block at a time.  Each set detector
   bit is scattered with one masked word read per (detector, block); shots
   whose block word stays empty are never materialized at all.

   [decode_batch_into] is the steady-state core: it writes the predicted
   logical-flip row into a caller-owned [out] and — once the arena pool is
   warm — allocates nothing at all.  Local refs compile to mutable stack
   variables, the arena pool is an array stack, and the timing/histogram
   instrumentation (boxed Int64/float) lives only in the [decode_batch]
   wrapper.  The zero-alloc test in test_fused pins this property. *)
let decode_batch_into g ~detectors ~nshots ~out =
  if Array.length detectors <> g.n then
    invalid_arg "Decoder_uf.decode_batch: detector row count mismatch";
  (* a for loop, not Array.iter: the iteration closure would be the only
     per-call allocation of this function *)
  for d = 0 to Array.length detectors - 1 do
    if Bitvec.length detectors.(d) <> nshots then
      invalid_arg "Decoder_uf.decode_batch: row length mismatch"
  done;
  if nshots < 1 then invalid_arg "Decoder_uf.decode_batch: nshots must be >= 1";
  if Bitvec.length out <> nshots then
    invalid_arg "Decoder_uf.decode_batch: out length mismatch";
  Obs.Counter.add decode_shots_total nshots;
  let a = take_arena g in
  Bitvec.clear out;
  let nwords = (nshots + Bitvec.word_size - 1) / Bitvec.word_size in
  for w = 0 to nwords - 1 do
    let occupied = ref 0 in
    for d = 0 to g.n - 1 do
      let bits = ref (Bitvec.get_word detectors.(d) w) in
      while !bits <> 0 do
        let low = !bits land - !bits in
        Bitvec.set a.syn.(Bitvec.ctz low) d true;
        occupied := !occupied lor low;
        bits := !bits land (!bits - 1)
      done
    done;
    let m = ref !occupied in
    while !m <> 0 do
      let low = !m land - !m in
      let s = Bitvec.ctz low in
      let flip = decode_into g a a.syn.(s) ~record:false in
      reset_arena g a;
      if flip then Bitvec.set out ((w * Bitvec.word_size) + s) true;
      Bitvec.clear a.syn.(s);
      m := !m land (!m - 1)
    done
  done;
  release_arena g a

let decode_batch g ~detectors ~nshots =
  let start = Obs.now_ns () in
  let out = Bitvec.create nshots in
  decode_batch_into g ~detectors ~nshots ~out;
  Obs.Histogram.observe batch_seconds
    (Int64.to_float (Int64.sub (Obs.now_ns ()) start) *. 1e-9);
  out

let decode_batch_count g ~detectors ~observable ~nshots =
  let predicted = decode_batch g ~detectors ~nshots in
  Bitvec.xor_into ~dst:predicted observable;
  Bitvec.popcount predicted
