(* Incidence is stored in CSR form: vertex [w]'s incident edge slots are
   [off.(w) .. off.(w + 1) - 1], in construction order.  A cluster's border
   is the linked list of its vertices, so the growth order of a cluster's
   edges is its vertices' slot ranges in list order.  Slot [k] is two
   words of [sl], each holding two 32-bit fields: the other end and the
   edge's half-step growth target, then this end and the edge id (see
   [s_y] and friends below).  [twin] is the same edge's slot at the other
   end, and [srt] lists each vertex's slots again, by growth target then
   slot. *)
type graph = {
  n : int;  (* real nodes; vertex n is the virtual boundary *)
  (* the edges, in construction order *)
  e_u : int array;
  e_v : int array;
  e_w : int array;
  e_logical : bool array;
  off : int array;  (* n + 2 entries: slot range start per vertex, then 2 * ne *)
  sl : int array;  (* 2 * 2 * ne *)
  twin : int array;  (* 2 * ne *)
  srt : int array;  (* 2 * ne *)
  kbits : int;  (* bits of a slot index *)
  mask : int;  (* event ring size - 1: a power of two above every target *)
  (* reusable decode arenas: a LIFO stack in a growable array, not a cons
     list, so steady-state take/release allocate nothing (the array only
     grows when more arenas are live at once than ever before) *)
  mutable pool : arena array;
  mutable npool : int;
  pool_lock : Mutex.t;
}

(* Pre-sized scratch for one in-flight decode.  Nothing in here is allocated
   per shot: every vertex the shot mutates is logged in a dirty stack
   (deduplicated by a mark array) and restored after the shot, and the event
   queue is cleared through its own entries, so reset cost is proportional
   to the work the shot actually did — a quiet syndrome costs O(defects),
   not O(V + E).

   Clusters are union-find sets with depth-one trees: a vertex's owner is
   its cluster's id (one of its vertices), and a merge relabels the smaller
   side.  Growth is stored per cluster and per vertex, never per edge.  A
   cluster's clock counts the rounds it has been active (odd parity, no
   boundary): [t + clk] after t rounds while active, [clk] while not.  The
   half-steps grown from vertex x's end of its edges are
   [side x = clock (owner x) + coff x], and an edge's growth is
   [min full (side u + side v)].  x's position in its cluster's border list
   is [pbase (owner x) + poff x]. *)
and arena = {
  vx : int array;  (* per vertex, stride 4: owner, coff, poff, border link (-1 end) *)
  (* per cluster id, stride 8: state (bit 0 odd parity, bit 1 touches the
     boundary: active iff 1), clk, pbase, smallest defect id (max_int
     without one), length, union-by-rank rank (it orders a merged border
     list), border head and tail *)
  cl : int array;
  (* per vertex: the [srt] index of its live cursor (-1 none), and its
     [side - t] while the activation that started the cursor lasts *)
  cur : int array;
  c0 : int array;
  (* per vertex: activated this shot, so no longer pristine *)
  act : bool array;
  defect : bool array;
  mutable nactive : int;
  (* dirty log: what to restore after the shot *)
  dirty_v : int array;
  mutable ndirty_v : int;
  vmark : bool array;
  defects : int array;
  mutable ndef : int;
  (* event queue: bucket [t land mask] of [ring] heads a linked list of the
     events of round t.  An event is a slot [k] (its edge may full in round
     t) or a cursor, [nslots + j] (the next [srt.(j)] of a vertex may full).
     [sched] is each edge's latest scheduled round, so an edge has one
     current slot event and older ones are dropped when they pop.  Entries
     (stride 2: event, next) are bump-allocated per shot; the arrays only
     grow when a shot needs more entries than any before it. *)
  ring : int array;
  sched : int array;
  mutable q : int array;
  mutable q_bkt : int array;
  mutable nq : int;
  mutable nlive : int;
  (* the walk-order keys of one round's fulling edges; an edge fulls once
     per shot, so [ne] entries suffice *)
  bkey : int array;
  (* even, boundary-free clusters merged this round: first vertex, length *)
  seg_head : int array;
  seg_len : int array;
  mutable nseg : int;
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

(* The probability-free half of a graph: endpoints, CSR incidence, twins
   and the walk-order key width.  Many graphs share one: a reweight fills
   only the weights, flags, the target half of [sl], [srt] and [mask]. *)
type incidence = {
  i_n : int;
  i_u : int array;
  i_v : int array;  (* the boundary already moved to vertex [i_n] *)
  i_off : int array;
  i_sl : int array;  (* [sl] with every target 0 *)
  i_twin : int array;
  i_kbits : int;
}

let check_endpoints ~nodes u v =
  if u < 0 || u >= nodes then invalid_arg "Decoder_uf.graph: bad endpoint";
  if v < 0 || v > nodes then invalid_arg "Decoder_uf.graph: bad endpoint";
  if u = v then invalid_arg "Decoder_uf.graph: self-loop"

let check_weight weight =
  if weight < 1 then invalid_arg "Decoder_uf.graph: weight must be >= 1";
  if weight >= 1 lsl 30 then invalid_arg "Decoder_uf.graph: weight too large"

let incidence ~nodes ~edges =
  if nodes <= 0 then invalid_arg "Decoder_uf.graph: need nodes";
  let ne = Array.length edges in
  let e_u = Array.make ne 0 and e_v = Array.make ne 0 in
  Array.iteri
    (fun i (u, v) ->
      let v = if v = boundary then nodes else v in
      check_endpoints ~nodes u v;
      e_u.(i) <- u;
      e_v.(i) <- v)
    edges;
  (* Every endpoint is in [0, nodes] (checked above), so every [off] entry
     is in [0, 2 * ne] and every slot names an edge id in [0, ne) and
     vertices in [0, nodes] — the invariant the unchecked reads of the
     decode loops rely on. *)
  let nv = nodes + 1 in
  let off = Array.make (nv + 1) 0 in
  for i = 0 to ne - 1 do
    off.(e_u.(i) + 1) <- off.(e_u.(i) + 1) + 1;
    off.(e_v.(i) + 1) <- off.(e_v.(i) + 1) + 1
  done;
  for w = 1 to nv do
    off.(w) <- off.(w) + off.(w - 1)
  done;
  let sl = Array.make (4 * ne) 0 and twin = Array.make (2 * ne) 0 in
  let fill = Array.sub off 0 nv in
  for i = 0 to ne - 1 do
    let u = e_u.(i) and v = e_v.(i) in
    let ku = fill.(u) and kv = fill.(v) in
    fill.(u) <- ku + 1;
    fill.(v) <- kv + 1;
    sl.(2 * ku) <- v lsl 32;
    sl.((2 * ku) + 1) <- (u lsl 32) lor i;
    sl.(2 * kv) <- u lsl 32;
    sl.((2 * kv) + 1) <- (v lsl 32) lor i;
    twin.(ku) <- kv;
    twin.(kv) <- ku
  done;
  (* a walk-order key is ((smallest defect * nv) + position) lsl kbits + slot *)
  let kbits = ref 0 in
  while 1 lsl !kbits < 2 * ne do incr kbits done;
  if nv > (max_int lsr !kbits) / nv || ne >= 1 lsl 30 then
    invalid_arg "Decoder_uf.graph: too large";
  { i_n = nodes; i_u = e_u; i_v = e_v; i_off = off; i_sl = sl; i_twin = twin; i_kbits = !kbits }

let reweight inc ~weights ~logical =
  let ne = Array.length inc.i_u in
  if Array.length weights <> ne || Array.length logical <> ne then
    invalid_arg "Decoder_uf.reweight: one weight and one flag per edge";
  Array.iter check_weight weights;
  let sl = Array.copy inc.i_sl in
  for k = 0 to (2 * ne) - 1 do
    let w = weights.(sl.((2 * k) + 1) land 0xFFFF_FFFF) in
    sl.(2 * k) <- sl.(2 * k) lor (2 * w)
  done;
  (* each vertex's slots by target, then slot: an insertion sort per range *)
  let off = inc.i_off in
  let srt = Array.init (2 * ne) Fun.id in
  for w = 0 to inc.i_n do
    for j = off.(w) + 1 to off.(w + 1) - 1 do
      let k = srt.(j) in
      let i = ref (j - 1) in
      while !i >= off.(w) && sl.(2 * srt.(!i)) land 0xFFFF_FFFF > sl.(2 * k) land 0xFFFF_FFFF do
        srt.(!i + 1) <- srt.(!i);
        decr i
      done;
      srt.(!i + 1) <- k
    done
  done;
  let span = ref 1 in
  Array.iter (fun w -> while !span <= 2 * w do span := 2 * !span done) weights;
  { n = inc.i_n;
    e_u = inc.i_u;
    e_v = inc.i_v;
    e_w = weights;
    e_logical = logical;
    off; sl; twin = inc.i_twin; srt; kbits = inc.i_kbits; mask = !span - 1;
    pool = [||]; npool = 0; pool_lock = Mutex.create () }

let weighted_graph ~nodes ~edges =
  if nodes <= 0 then invalid_arg "Decoder_uf.graph: need nodes";
  let edges = Array.of_list edges in
  (* every check, edge by edge in the order given, before any is built *)
  Array.iter
    (fun (u, v, weight, _) ->
      check_endpoints ~nodes u (if v = boundary then nodes else v);
      check_weight weight)
    edges;
  reweight
    (incidence ~nodes ~edges:(Array.map (fun (u, v, _, _) -> (u, v)) edges))
    ~weights:(Array.map (fun (_, _, w, _) -> w) edges)
    ~logical:(Array.map (fun (_, _, _, l) -> l) edges)

let graph ~nodes ~edges =
  weighted_graph ~nodes ~edges:(List.map (fun (u, v, l) -> (u, v, 1, l)) edges)

let num_nodes g = g.n
let num_edges g = Array.length g.e_u

let arrays g =
  [ ("e_u", g.e_u); ("e_v", g.e_v); ("e_w", g.e_w);
    ("e_logical", Array.map Bool.to_int g.e_logical); ("off", g.off); ("sl", g.sl);
    ("twin", g.twin); ("srt", g.srt); ("n kbits mask", [| g.n; g.kbits; g.mask |]) ]

let edge_list g =
  Array.init (num_edges g) (fun i ->
      (g.e_u.(i), (if g.e_v.(i) = g.n then boundary else g.e_v.(i)), g.e_w.(i), g.e_logical.(i)))

(* ------------------------------------------------------------- arena --- *)

(* Field offsets of the vertex and cluster records. *)
let v_owner = 0
let v_coff = 1
let v_poff = 2
let v_next = 3
let c_st = 0
let c_clk = 1
let c_pbase = 2
let c_mindef = 3
let c_len = 4
let c_rank = 5
let c_head = 6
let c_tail = 7

(* Unchecked int-array access for the decode loops.  Every index they use
   is in range by construction: vertex and cluster ids are in [0, n], slots
   in [0, 2 * ne) and edge ids in [0, ne) (see [weighted_graph]), and
   queue, batch and log positions stay below their arrays' capacities. *)
let[@inline] ( .!() ) (x : int array) i = Array.unsafe_get x i
let[@inline] ( .!()<- ) (x : int array) i v = Array.unsafe_set x i v

let[@inline] vget a v f = a.vx.!((v lsl 2) + f)
let[@inline] vset a v f x = a.vx.!((v lsl 2) + f) <- x
let[@inline] cget a c f = a.cl.!((c lsl 3) + f)
let[@inline] cset a c f x = a.cl.!((c lsl 3) + f) <- x

(* The fields of slot [k]: its other end, growth target, this end, edge. *)
let[@inline] s_y g k = g.sl.!(2 * k) lsr 32
let[@inline] s_full g k = g.sl.!(2 * k) land 0xFFFF_FFFF
let[@inline] s_x g k = g.sl.!((2 * k) + 1) lsr 32
let[@inline] s_eid g k = g.sl.!((2 * k) + 1) land 0xFFFF_FFFF

(* Vertex [v] alone: its own singleton cluster, inactive. *)
let init_vertex g a v =
  vset a v v_owner v;
  vset a v v_coff 0;
  vset a v v_poff 0;
  vset a v v_next (-1);
  cset a v c_st (if v = g.n then 2 else 0);
  cset a v c_clk 0;
  cset a v c_pbase 0;
  cset a v c_mindef max_int;
  cset a v c_len 1;
  cset a v c_rank 0;
  cset a v c_head v;
  cset a v c_tail v

let create_arena g =
  Obs.Counter.incr arenas_total;
  let nv = g.n + 1 in
  let ne = max 1 (num_edges g) in
  let cap = nv in
  let a =
    { vx = Array.make (4 * nv) 0;
      cl = Array.make (8 * nv) 0;
      cur = Array.make nv (-1);
      c0 = Array.make nv 0;
      act = Array.make nv false;
      defect = Array.make nv false;
      nactive = 0;
      dirty_v = Array.make nv 0;
      ndirty_v = 0;
      vmark = Array.make nv false;
      defects = Array.make (max 1 g.n) 0;
      ndef = 0;
      ring = Array.make (g.mask + 1) (-1);
      sched = Array.make ne 0;
      q = Array.make (2 * cap) 0;
      q_bkt = Array.make cap 0;
      nq = 0;
      nlive = 0;
      bkey = Array.make ne 0;
      seg_head = Array.make (2 * nv) 0;
      seg_len = Array.make (2 * nv) 0;
      nseg = 0;
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
  in
  for v = 0 to g.n do
    init_vertex g a v
  done;
  a

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

let[@inline] touch_v a v =
  if not (Array.unsafe_get a.vmark v) then begin
    Array.unsafe_set a.vmark v true;
    a.dirty_v.!(a.ndirty_v) <- v;
    a.ndirty_v <- a.ndirty_v + 1
  end

(* Undo every mutation of the shot, returning the arena to the pristine
   create_arena state.  Every vertex whose records changed is on the dirty
   log (a defect, a relabelled vertex, a surviving cluster id, a list tail
   whose link changed, a vertex the peel toggled), and every queue entry
   names its bucket and, through its slot, its edge.  Cost is proportional
   to the logs. *)
let reset_arena g a =
  for i = 0 to a.ndirty_v - 1 do
    let v = a.dirty_v.!(i) in
    init_vertex g a v;
    a.cur.(v) <- -1;
    a.act.(v) <- false;
    a.defect.(v) <- false;
    a.vmark.(v) <- false
  done;
  a.ndirty_v <- 0;
  let nslots = Array.length g.srt in
  for i = 0 to a.nq - 1 do
    a.ring.!(a.q_bkt.!(i)) <- -1;
    let k = a.q.!(2 * i) in
    if k < nslots then a.sched.!(s_eid g k) <- 0
  done;
  a.nq <- 0;
  a.nlive <- 0;
  for k = 0 to a.nfull - 1 do
    let eid = a.full.!(k) in
    a.adj_head.!(g.e_u.!(eid)) <- -1;
    a.adj_head.!(g.e_v.!(eid)) <- -1
  done;
  a.nfull <- 0;
  for i = 0 to a.norder - 1 do
    Array.unsafe_set a.visited a.order.!(i) false
  done;
  a.norder <- 0;
  a.ndef <- 0

(* ------------------------------------------------------------ growth --- *)

(* Cluster [c]'s clock after [t] completed rounds. *)
let[@inline] clock a c t =
  let k = cget a c c_clk in
  if cget a c c_st = 1 then t + k else k

let[@inline] side a x t = clock a (vget a x v_owner) t + vget a x v_coff

let grow_queue a =
  let grow arr =
    let bigger = Array.make (2 * Array.length arr) 0 in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  in
  a.q <- grow a.q;
  a.q_bkt <- grow a.q_bkt

let[@inline] enqueue g a ev t =
  if a.nq = Array.length a.q_bkt then grow_queue a;
  let b = t land g.mask and i = a.nq in
  a.q.!(2 * i) <- ev;
  a.q.!((2 * i) + 1) <- a.ring.!(b);
  a.q_bkt.!(i) <- b;
  a.ring.!(b) <- i;
  a.nq <- i + 1;
  a.nlive <- a.nlive + 1

(* Schedule the edge of slot [k] to full in round [t], unless that is its
   current schedule already. *)
let schedule g a k t =
  let eid = s_eid g k in
  if a.sched.!(eid) <> t then begin
    a.sched.!(eid) <- t;
    enqueue g a k t
  end

(* Vertex [x]'s cursor at [srt] index [j], which fulls its edge to a
   pristine end when x's side reaches the edge's target. *)
let start_cursor g a x j =
  if j < g.off.!(x + 1) then begin
    a.cur.!(x) <- j;
    enqueue g a (Array.length g.srt + j) (s_full g g.srt.!(j) - a.c0.!(x))
  end
  else a.cur.!(x) <- -1

(* [x]'s cluster has just become active, after [t] rounds.  A pristine
   end (never activated this shot: inactive, nothing grown from it) stays
   so until its own cluster becomes active, so while x's activation lasts,
   x's edges to pristine ends grow at rate 1 from x's side alone and full
   in the order of their targets: one cursor over [srt] covers them all.
   Every other live edge at x is scheduled on its own: it fulls after its
   remaining half-steps divided by its rate (2 when the other end is
   active too), rounded up.  (An end activated after x in the same round
   schedules the edge itself, and x's cursor skips it.) *)
let activate g a x t =
  touch_v a x;
  Array.unsafe_set a.act x true;
  let sx = side a x t in
  let hi = g.off.!(x + 1) in
  for k = g.off.!(x) to hi - 1 do
    let y = s_y g k in
    if Array.unsafe_get a.act y then begin
      let cy = vget a y v_owner in
      let r = s_full g k - sx - clock a cy t - vget a y v_coff in
      if r > 0 then schedule g a k (t + if cget a cy c_st = 1 then (r + 1) lsr 1 else r)
    end
  done;
  a.c0.!(x) <- sx - t;
  let j = ref g.off.!(x) in
  while !j < hi && s_full g g.srt.!(!j) <= sx do
    incr j
  done;
  start_cursor g a x !j

(* The walk-order key of slot [k] at vertex [x] of active cluster [c]: the
   unit-round decoder walked active clusters by smallest defect, each
   border in list order, each vertex's slots in CSR order. *)
let[@inline] visit g a c x k =
  let pos = cget a c c_pbase + vget a x v_poff in
  (((cget a c c_mindef * (g.n + 1)) + pos) lsl g.kbits) lor k

(* A slot event of round [t], judged by the state at the start of the round
   (after [t - 1] rounds).  An edge already full, or with no active end
   left, is dropped; one that a rate drop made late is re-timed; otherwise
   it fulls now, at the visit that fulled it in the walk: a rate-2 edge
   with one half-step left at its first visit, with two at its second.
   Returns the new number of fulls. *)
let pop_slot g a t k nb =
  let eid = s_eid g k in
  if a.sched.!(eid) <> t then nb
  else begin
    let x = s_x g k and y = s_y g k in
    let cx = vget a x v_owner and cy = vget a y v_owner in
    let ax = cget a cx c_st = 1 and ay = cget a cy c_st = 1 in
    let r = if ax || ay then s_full g k - side a x (t - 1) - side a y (t - 1) else 0 in
    if r <= 0 then nb
    else begin
      let due = if ax && ay then (r + 1) lsr 1 else r in
      if due > 1 then begin
        schedule g a k (t - 1 + due);
        nb
      end
      else begin
        let key =
          if not ay then visit g a cx x k
          else if not ax then visit g a cy y g.twin.!(k)
          else begin
            let kx = visit g a cx x k and ky = visit g a cy y g.twin.!(k) in
            if (r = 1) = (kx < ky) then kx else ky
          end
        in
        (* a second entry of this edge in this bucket is now stale *)
        a.sched.!(eid) <- 0;
        a.bkey.!(nb) <- key;
        nb + 1
      end
    end
  end

(* A cursor event of round [t] at [srt] index [j]: if it is [x]'s live
   cursor and x's activation lasts, full every edge of this target to a
   still-pristine end, then move the cursor to the next target. *)
let pop_cursor g a t j nb =
  let x = s_x g g.srt.!(j) in
  let cx = vget a x v_owner in
  if a.cur.!(x) <> j || cget a cx c_st <> 1 then nb
  else begin
    let c0 = a.c0.!(x) and hi = g.off.!(x + 1) in
    let nb = ref nb and j = ref j in
    while !j < hi && s_full g g.srt.!(!j) - c0 = t do
      let k = g.srt.!(!j) in
      if not (Array.unsafe_get a.act (s_y g k)) then begin
        a.bkey.!(!nb) <- visit g a cx x k;
        incr nb
      end;
      incr j
    done;
    start_cursor g a x !j;
    !nb
  end

(* Pop round [t]'s bucket into [bkey]; returns how many edges full. *)
let pop_round g a t =
  let b = t land g.mask and nslots = Array.length g.srt in
  let i = ref a.ring.!(b) in
  a.ring.!(b) <- -1;
  let nb = ref 0 in
  while !i <> -1 do
    let ev = a.q.!(2 * !i) in
    i := a.q.!((2 * !i) + 1);
    a.nlive <- a.nlive - 1;
    nb := if ev < nslots then pop_slot g a t ev !nb else pop_cursor g a t (ev - nslots) !nb
  done;
  !nb

(* Sort [bkey.(0 .. n - 1)] ascending: insertion for the few fulls a round
   usually has, heapsort past that. *)
let sift a i n =
  let k = a.bkey.!(i) in
  let i = ref i and go = ref true in
  while !go do
    let c = (2 * !i) + 1 in
    if c >= n then go := false
    else begin
      let c = if c + 1 < n && a.bkey.!(c + 1) > a.bkey.!(c) then c + 1 else c in
      if a.bkey.!(c) > k then begin
        a.bkey.!(!i) <- a.bkey.!(c);
        i := c
      end
      else go := false
    end
  done;
  a.bkey.!(!i) <- k

let sort_batch a n =
  if n <= 64 then
    for i = 1 to n - 1 do
      let k = a.bkey.!(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.bkey.!(!j) > k do
        a.bkey.!(!j + 1) <- a.bkey.!(!j);
        decr j
      done;
      a.bkey.!(!j + 1) <- k
    done
  else begin
    for i = (n / 2) - 1 downto 0 do
      sift a i n
    done;
    for last = n - 1 downto 1 do
      let k = a.bkey.!(last) in
      a.bkey.!(last) <- a.bkey.!(0);
      a.bkey.!(0) <- k;
      sift a 0 last
    done
  end

(* Merge the clusters of edge [eid]'s ends at the end of round [t].  The
   border list is the higher-rank cluster's list (the u end's on a tie)
   followed by the other's, as union by rank ordered it; the id of the
   larger cluster survives and the smaller one's vertices are relabelled,
   their clock and position offsets rebased so that every side and every
   position is unchanged.

   A cluster that is inactive but can become active (even, no boundary)
   is noted in [seg_head]/[seg_len]: its vertices stay a contiguous run of
   the merged border list, and are activated if the round leaves them in
   an active cluster.  A cluster formed earlier in the same round may be
   noted too; activating its vertices again is harmless, as an edge whose
   full round did not change keeps its one entry and a cursor restarts
   where it was. *)
let merge g a eid t =
  let cu = vget a g.e_u.!(eid) v_owner and cv = vget a g.e_v.!(eid) v_owner in
  if cu <> cv then begin
    let su = cget a cu c_st and sv = cget a cv c_st in
    if su = 0 then begin
      a.seg_head.!(a.nseg) <- cget a cu c_head;
      a.seg_len.!(a.nseg) <- cget a cu c_len;
      a.nseg <- a.nseg + 1
    end;
    if sv = 0 then begin
      a.seg_head.!(a.nseg) <- cget a cv c_head;
      a.seg_len.!(a.nseg) <- cget a cv c_len;
      a.nseg <- a.nseg + 1
    end;
    let ru = cget a cu c_rank and rv = cget a cv c_rank in
    let first, second = if ru >= rv then (cu, cv) else (cv, cu) in
    let lfirst = cget a first c_len and lsecond = cget a second c_len in
    let keep, gone = if lsecond > lfirst then (second, first) else (first, second) in
    let ckeep = clock a keep t in
    let pkeep = cget a keep c_pbase + if keep = second then lfirst else 0 in
    let dp = cget a gone c_pbase + (if gone = second then lfirst else 0) - pkeep in
    let dc = clock a gone t - ckeep in
    let x = ref (cget a gone c_head) in
    while !x <> -1 do
      touch_v a !x;
      vset a !x v_owner keep;
      vset a !x v_coff (vget a !x v_coff + dc);
      vset a !x v_poff (vget a !x v_poff + dp);
      x := vget a !x v_next
    done;
    let tf = cget a first c_tail in
    touch_v a tf;
    vset a tf v_next (cget a second c_head);
    touch_v a keep;
    let st = ((su lxor sv) land 1) lor ((su lor sv) land 2) in
    cset a keep c_st st;
    cset a keep c_clk (if st = 1 then ckeep - t else ckeep);
    cset a keep c_pbase pkeep;
    cset a keep c_mindef (min (cget a cu c_mindef) (cget a cv c_mindef));
    cset a keep c_len (lfirst + lsecond);
    cset a keep c_rank (if ru = rv then ru + 1 else max ru rv);
    cset a keep c_head (cget a first c_head);
    cset a keep c_tail (cget a second c_tail);
    a.nactive <-
      a.nactive + (if st = 1 then 1 else 0) - (if su = 1 then 1 else 0)
      - if sv = 1 then 1 else 0
  end

(* The fulls of round [t], [bkey.(0 .. nb - 1)]: sort them into walk order,
   merge in that order, then activate every inactive cluster the merges
   left in an active one. *)
let end_round g a t nb =
  sort_batch a nb;
  a.nseg <- 0;
  let kmask = (1 lsl g.kbits) - 1 in
  for i = 0 to nb - 1 do
    let eid = s_eid g (a.bkey.!(i) land kmask) in
    a.full.!(a.nfull) <- eid;
    a.nfull <- a.nfull + 1;
    merge g a eid t
  done;
  for i = 0 to a.nseg - 1 do
    let h = a.seg_head.!(i) in
    if cget a (vget a h v_owner) c_st = 1 then begin
      let x = ref h in
      for _ = 1 to a.seg_len.!(i) do
        activate g a !x t;
        x := vget a !x v_next
      done
    end
  done

(* Grow clusters from the defects until every cluster has even parity or
   touches the boundary.  Rounds with no fulling edge cost nothing: the
   loop steps over their empty buckets.  Events of clusters that went
   inactive stay queued, and are dropped or re-timed when they pop. *)
let grow g a =
  a.nactive <- a.ndef;
  for i = 0 to a.ndef - 1 do
    activate g a a.defects.!(i) 0
  done;
  let t = ref 0 in
  while a.nactive > 0 do
    if a.nlive = 0 then failwith "Decoder_uf: growth failed to converge";
    incr t;
    if a.ring.!(!t land g.mask) <> -1 then begin
      let nb = pop_round g a !t in
      if nb > 0 then end_round g a !t nb
    end
  done

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
      let v = a.stack.!(!nstack) in
      a.order.!(a.norder) <- v;
      a.norder <- a.norder + 1;
      let h = ref a.adj_head.!(v) in
      while !h <> -1 do
        let eid = !h lsr 1 in
        let w = if !h land 1 = 0 then g.e_v.!(eid) else g.e_u.!(eid) in
        if not (Array.unsafe_get a.visited w) then begin
          Array.unsafe_set a.visited w true;
          a.parent_v.!(w) <- v;
          a.parent_edge.!(w) <- eid;
          a.stack.!(!nstack) <- w;
          incr nstack
        end;
        h := a.adj_next.!(!h)
      done
    done
  end

(* Grow, then peel a spanning forest of the full edges.  [syndrome] has
   exactly [g.n] bits (the entry points check it). *)
let decode_into g a syndrome ~record =
  a.ndef <- 0;
  for w = 0 to Bitvec.word_count syndrome - 1 do
    let bits = ref (Bitvec.get_word syndrome w) in
    let base = w * Bitvec.word_size in
    while !bits <> 0 do
      let i = base + Bitvec.ctz !bits in
      touch_v a i;
      a.defect.(i) <- true;
      cset a i c_st 1;
      cset a i c_mindef i;
      a.defects.(a.ndef) <- i;
      a.ndef <- a.ndef + 1;
      bits := !bits land (!bits - 1)
    done
  done;
  a.ncorr <- 0;
  if a.ndef = 0 then false
  else begin
    grow g a;
    (* Peel: spanning forest over the full edges, boundary-rooted first so
       odd clusters peel into it. *)
    for k = 0 to a.nfull - 1 do
      let eid = a.full.!(k) in
      let u = g.e_u.!(eid) and v = g.e_v.!(eid) in
      a.adj_next.!(2 * eid) <- a.adj_head.!(u);
      a.adj_head.!(u) <- 2 * eid;
      a.adj_next.!((2 * eid) + 1) <- a.adj_head.!(v);
      a.adj_head.!(v) <- (2 * eid) + 1
    done;
    a.norder <- 0;
    peel_dfs g a g.n;
    for i = 0 to a.ndef - 1 do
      peel_dfs g a a.defects.(i)
    done;
    (* Reverse discovery order processes children before parents. *)
    let flip = ref false in
    for i = a.norder - 1 downto 0 do
      let v = a.order.!(i) in
      if v <> g.n && Array.unsafe_get a.defect v && a.parent_v.!(v) >= 0 then begin
        let eid = a.parent_edge.!(v) in
        if Array.unsafe_get g.e_logical eid then flip := not !flip;
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

let check_syndrome g syndrome =
  if Bitvec.length syndrome <> g.n then
    invalid_arg "Decoder_uf.decode: syndrome length mismatch"

(* On an exception mid-decode the arena is simply dropped (never returned to
   the pool), so a failed shot can never poison a later one. *)
let decode g syndrome =
  check_syndrome g syndrome;
  Obs.Counter.incr decode_shots_total;
  let a = take_arena g in
  let flip = decode_into g a syndrome ~record:false in
  reset_arena g a;
  release_arena g a;
  flip

let decode_correction g syndrome =
  check_syndrome g syndrome;
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
