(* Incidence is stored in CSR form: vertex [x]'s incident edge slots are
   [off.(x) .. off.(x + 1) - 1], sorted by the edge's half-step growth
   target, then by edge id (a vertex's edges in construction order).  Slot
   [j] is [sy.(j)], the other end, and [sfe.(j)], the edge id and target
   (see [s_eid] and [s_full] below), so a vertex's activation scan reads
   one dense run of other ends and its cursor walks its targets in order.
   Edge [e] is two words of [ed]: its ends, then its target and whether
   it flips the logical observable. *)
type graph = {
  n : int;  (* real nodes; vertex n is the virtual boundary *)
  ed : int array;  (* 2 * ne: (u lsl 32) lor v, then (2 * weight) lsl 1 lor flips *)
  off : int array;  (* n + 2 entries: slot range start per vertex, then 2 * ne *)
  sy : int array;  (* 2 * ne *)
  sfe : int array;  (* 2 * ne: (eid lsl 32) lor target *)
  (* each real vertex's edges to lower real vertices, in slot order: their
     range, far end and [sfe] word (all a round-0 activation can meet) *)
  loff : int array;
  ly : int array;
  lfe : int array;
  ebits : int;  (* bits of an edge id *)
  mask : int;  (* event ring size - 1: a power of two above every target *)
  (* reusable decode arenas: a LIFO stack in a growable array, not a cons
     list, so steady-state take/release allocate nothing (the array only
     grows when more arenas are live at once than ever before) *)
  mutable pool : arena array;
  mutable npool : int;
  pool_lock : Mutex.t;
}

(* Pre-sized scratch for one in-flight decode.  Nothing in here is allocated
   per shot.  Every vertex a shot mutates ends up in a cluster, so the peel
   visits it: the reset restores exactly the vertices of the peel order,
   clears the full-edge flags through the full list and the event ring
   through its own entries.  Reset cost is proportional to the work the
   shot did — a quiet syndrome costs O(defects), not O(V + E).

   Clusters are union-find sets with depth-one trees: a vertex's owner is
   its cluster's id (one of its vertices), and a merge relabels the smaller
   side.  Growth is stored per cluster and per vertex, never per edge.  A
   cluster's clock counts the rounds it has been active (odd parity, no
   boundary): [t + clk] after t rounds while active, [clk] while not.  The
   half-steps grown from vertex x's end of its edges are
   [side x = clock (owner x) + coff x], and an edge's growth is
   [min full (side u + side v)].  x's position in its cluster's border list
   is [pbase (owner x) + poff x].

   A vertex's record is 16 words of [vs]: its own fields, then the fields
   of the cluster whose id it is, then its cursor — what a growth step
   reads of one vertex and of one cluster sits in one place. *)
and arena = {
  vs : int array;
  (* per vertex, bit 0: activated this shot (no longer pristine), bit 1:
     defect, bit 2: visited by the peel *)
  fl : Bytes.t;
  efull : Bytes.t;  (* per edge: 1 once it reached full growth this shot *)
  hits : int array;  (* an activation's slots to activated ends *)
  mutable nactive : int;
  (* per-shot defect lists, ascending: shot s of the loaded block is
     [dl.(dstart.(s)) .. dl.(dstart.(s + 1) - 1)]; [dl] only grows *)
  mutable dl : int array;
  dstart : int array;
  (* Event queues, both indexed by round modulo [mask + 1].  Bucket
     [t land mask] of [ring] heads a linked list of the edges that may full
     in round t.  [sched] is each edge's latest scheduled round plus
     [base], so an edge has one current entry and older ones are dropped
     when they pop, and advancing [base] past a shot's last round retires
     every entry of it.  Entries (stride 2: edge, next) are bump-allocated
     per shot; the arrays only grow when a shot needs more entries than any
     before it.  Bucket [t land mask] of [cring] heads a doubly linked list
     of the vertices whose cursor fulls in round t, linked through [cpn]
     (stride 2: previous, next; a head's previous is [lnot bucket]): a
     cursor is unlinked when its cluster goes inactive or it restarts, so
     every cursor that pops is live. *)
  ring : int array;
  sched : int array;
  mutable base : int;
  mutable q : int array;
  mutable q_bkt : int array;
  mutable nq : int;
  cring : int array;
  cpn : int array;
  mutable nlive : int;  (* queued edge entries plus linked cursors *)
  (* the walk-order keys of one round's fulling edges; an edge fulls once
     per shot, so [ne] entries suffice *)
  bkey : int array;
  (* even, boundary-free clusters merged this round: first vertex, length *)
  seg_head : int array;
  seg_len : int array;
  mutable nseg : int;
  full : int array;  (* every edge that reached full growth this shot *)
  mutable nfull : int;
  (* peeling: half-edge [2k] / [2k + 1] is [full.(k)] at its u / v end;
     [adj_to] is its far end, edge and logical flag as
     (w lsl 32) lor (e lsl 1) lor flips, and [par] (stride 2) a visited
     vertex's forest parent (-1 at a root) and parent half-edge word; the
     half-edge arrays grow, like [q], only when a shot fulls more edges
     than any before it *)
  adj_head : int array;
  mutable adj_next : int array;
  mutable adj_to : int array;
  par : int array;
  order : int array;
  mutable norder : int;
  stack : int array;
  corr : int array;  (* correction edge ids of the last decode *)
  mutable ncorr : int;
  (* work counts since the last flush into the [qec.uf_*_total] counters *)
  mutable n_act : int;
  mutable n_scan : int;
  mutable n_enq : int;
  mutable n_dead : int;
  mutable n_merge : int;
}

let boundary = -1

let arenas_total = Obs.Counter.create "qec.uf_arenas_total"
let decode_shots_total = Obs.Counter.create "qec.uf_decode_shots_total"
let activations_total = Obs.Counter.create "qec.uf_activations_total"
let slot_scans_total = Obs.Counter.create "qec.uf_slot_scans_total"
let queue_entries_total = Obs.Counter.create "qec.uf_queue_entries_total"
let dead_pops_total = Obs.Counter.create "qec.uf_dead_pops_total"
let merges_total = Obs.Counter.create "qec.uf_merges_total"
let batch_seconds = Obs.Histogram.create "qec.uf_decode_batch_seconds"

(* The probability-free half of a graph: endpoints, CSR incidence in
   construction order and the walk-order key width.  Many graphs share one:
   a reweight fills only the weights, flags, the target-sorted slots and
   [mask]. *)
type incidence = {
  i_n : int;
  i_ed : int array;  (* [ed] with every target 0; boundary already vertex [i_n] *)
  i_off : int array;
  i_se : int array;  (* per CSR slot: its edge id *)
  i_ebits : int;
}

let check_endpoints ~nodes u v =
  if u < 0 || u >= nodes then invalid_arg "Decoder_uf.graph: bad endpoint";
  if v < 0 || v > nodes then invalid_arg "Decoder_uf.graph: bad endpoint";
  if u = v then invalid_arg "Decoder_uf.graph: self-loop"

let check_weight weight =
  if weight < 1 then invalid_arg "Decoder_uf.graph: weight must be >= 1";
  if weight >= 1 lsl 30 then invalid_arg "Decoder_uf.graph: weight too large"

let m32 = 0xFFFF_FFFF

let incidence ~nodes ~edges =
  if nodes <= 0 then invalid_arg "Decoder_uf.graph: need nodes";
  let ne = Array.length edges in
  let ed = Array.make (2 * ne) 0 in
  Array.iteri
    (fun i (u, v) ->
      let v = if v = boundary then nodes else v in
      check_endpoints ~nodes u v;
      ed.(2 * i) <- (u lsl 32) lor v)
    edges;
  (* a walk-order key is ((smallest defect * nv) + position) lsl ebits + edge *)
  let nv = nodes + 1 in
  let ebits = ref 0 in
  while 1 lsl !ebits < ne do incr ebits done;
  if nv >= 1 lsl 30 || nv > (max_int lsr !ebits) / nv || ne >= 1 lsl 30 then
    invalid_arg "Decoder_uf.graph: too large";
  (* Every endpoint is in [0, nodes] (checked above), so every [off] entry
     is in [0, 2 * ne] and every slot names an edge id in [0, ne) and
     vertices in [0, nodes] — the invariant the unchecked reads of the
     decode loops rely on. *)
  let off = Array.make (nv + 1) 0 in
  for i = 0 to ne - 1 do
    let u = ed.(2 * i) lsr 32 and v = ed.(2 * i) land m32 in
    off.(u + 1) <- off.(u + 1) + 1;
    off.(v + 1) <- off.(v + 1) + 1
  done;
  for w = 1 to nv do
    off.(w) <- off.(w) + off.(w - 1)
  done;
  let se = Array.make (2 * ne) 0 in
  let fill = Array.sub off 0 nv in
  for i = 0 to ne - 1 do
    let u = ed.(2 * i) lsr 32 and v = ed.(2 * i) land m32 in
    se.(fill.(u)) <- i;
    se.(fill.(v)) <- i;
    fill.(u) <- fill.(u) + 1;
    fill.(v) <- fill.(v) + 1
  done;
  { i_n = nodes; i_ed = ed; i_off = off; i_se = se; i_ebits = !ebits }

let reweight inc ~weights ~logical =
  let ne = Array.length inc.i_ed / 2 in
  if Array.length weights <> ne || Array.length logical <> ne then
    invalid_arg "Decoder_uf.reweight: one weight and one flag per edge";
  Array.iter check_weight weights;
  let ed = Array.copy inc.i_ed in
  for i = 0 to ne - 1 do
    ed.((2 * i) + 1) <- (4 * weights.(i)) lor Bool.to_int logical.(i)
  done;
  (* each vertex's slots by target, then edge id: an insertion sort per
     range of the construction-order slots, on keys (target lsl 31) lor
     edge (a target is below 2^31 and an edge id below 2^30) held in
     [sfe] until they are rewritten as [sfe] words *)
  let off = inc.i_off in
  let sfe = Array.make (2 * ne) 0 and sy = Array.make (2 * ne) 0 in
  for j = 0 to (2 * ne) - 1 do
    let e = inc.i_se.(j) in
    sfe.(j) <- (ed.((2 * e) + 1) lsr 1) lsl 31 lor e
  done;
  for w = 0 to inc.i_n do
    for j = off.(w) + 1 to off.(w + 1) - 1 do
      let k = sfe.(j) in
      let i = ref (j - 1) in
      while !i >= off.(w) && sfe.(!i) > k do
        sfe.(!i + 1) <- sfe.(!i);
        decr i
      done;
      sfe.(!i + 1) <- k
    done
  done;
  for x = 0 to inc.i_n do
    for j = off.(x) to off.(x + 1) - 1 do
      let e = sfe.(j) land 0x7FFF_FFFF in
      sfe.(j) <- (e lsl 32) lor (sfe.(j) lsr 31);
      let uv = ed.(2 * e) in
      sy.(j) <- (if uv lsr 32 = x then uv land m32 else uv lsr 32)
    done
  done;
  let loff = Array.make (inc.i_n + 2) 0 in
  for x = 0 to inc.i_n do
    loff.(x + 1) <- loff.(x);
    for j = off.(x) to off.(x + 1) - 1 do
      if sy.(j) < x && x < inc.i_n then loff.(x + 1) <- loff.(x + 1) + 1
    done
  done;
  let ly = Array.make loff.(inc.i_n + 1) 0 and lfe = Array.make loff.(inc.i_n + 1) 0 in
  for x = 0 to inc.i_n do
    let k = ref loff.(x) in
    for j = off.(x) to off.(x + 1) - 1 do
      if sy.(j) < x && x < inc.i_n then begin
        ly.(!k) <- sy.(j);
        lfe.(!k) <- sfe.(j);
        incr k
      end
    done
  done;
  let span = ref 1 in
  Array.iter (fun w -> while !span <= 2 * w do span := 2 * !span done) weights;
  { n = inc.i_n; ed; off; sy; sfe; loff; ly; lfe; ebits = inc.i_ebits;
    mask = !span - 1; pool = [||]; npool = 0; pool_lock = Mutex.create () }

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
let num_edges g = Array.length g.ed / 2

let arrays g =
  [ ("ed", g.ed); ("off", g.off); ("sy", g.sy); ("sfe", g.sfe); ("loff", g.loff); ("ly", g.ly);
    ("lfe", g.lfe); ("n ebits mask", [| g.n; g.ebits; g.mask |]) ]

let edge_list g =
  Array.init (num_edges g) (fun i ->
      let u = g.ed.(2 * i) lsr 32 and v = g.ed.(2 * i) land m32 in
      let fl = g.ed.((2 * i) + 1) in
      (u, (if v = g.n then boundary else v), fl lsr 2, fl land 1 = 1))

(* ------------------------------------------------------------- arena --- *)

(* Field offsets of a vertex record: the vertex's owner, clock offset,
   position offset and border link (-1 end); then, for the cluster whose id
   it is, its state (bit 0 odd parity, bit 1 touches the boundary: active
   iff 1), clk, pbase, smallest defect id (max_int without one), length,
   union-by-rank rank (it orders a merged border list), border head and
   tail; then the vertex's cursor: its next slot (-1 when not linked) and
   [side - t] while the activation that started it lasts.  Two words of
   the 16 are spare, so a record index is a shift. *)
let v_owner = 0
let v_coff = 1
let v_poff = 2
let v_next = 3
let c_st = 4
let c_clk = 5
let c_pbase = 6
let c_mindef = 7
let c_len = 8
let c_rank = 9
let c_head = 10
let c_tail = 11
let v_cur = 12
let v_c0 = 13

let f_act = 1
let f_defect = 2
let f_visited = 4

(* Unchecked array access for the decode loops.  Every index they use is
   in range by construction: vertex and cluster ids are in [0, n], slots in
   [0, 2 * ne) and edge ids in [0, ne) (see [incidence]), and queue, batch
   and log positions stay below their arrays' capacities. *)
let[@inline] ( .!() ) (x : int array) i = Array.unsafe_get x i
let[@inline] ( .!()<- ) (x : int array) i v = Array.unsafe_set x i v

let[@inline] vget a v f = a.vs.!((v lsl 4) + f)
let[@inline] vset a v f x = a.vs.!((v lsl 4) + f) <- x

let[@inline] flags a v = Char.code (Bytes.unsafe_get a.fl v)
let[@inline] set_flags a v f = Bytes.unsafe_set a.fl v (Char.unsafe_chr f)
let[@inline] activated a v = flags a v land f_act <> 0
let[@inline] is_full a e = Bytes.unsafe_get a.efull e <> '\000'

(* The fields of slot [j] and edge [e]. *)
let[@inline] s_eid g j = g.sfe.!(j) lsr 32
let[@inline] s_full g j = g.sfe.!(j) land m32
let[@inline] e_u g e = g.ed.!(2 * e) lsr 32
let[@inline] e_v g e = g.ed.!(2 * e) land m32
let[@inline] e_full g e = g.ed.!((2 * e) + 1) lsr 1

(* Vertex [v] alone: its own singleton cluster, inactive, no cursor, out
   of the peel. *)
let init_vertex g a v =
  let b = v lsl 4 in
  a.vs.!(b + v_owner) <- v;
  a.vs.!(b + v_coff) <- 0;
  a.vs.!(b + v_poff) <- 0;
  a.vs.!(b + v_next) <- -1;
  a.vs.!(b + c_st) <- (if v = g.n then 2 else 0);
  a.vs.!(b + c_clk) <- 0;
  a.vs.!(b + c_pbase) <- 0;
  a.vs.!(b + c_mindef) <- max_int;
  a.vs.!(b + c_len) <- 1;
  a.vs.!(b + c_rank) <- 0;
  a.vs.!(b + c_head) <- v;
  a.vs.!(b + c_tail) <- v;
  a.vs.!(b + v_cur) <- -1;
  a.adj_head.!(v) <- -1;
  set_flags a v 0

let max_degree g =
  let m = ref 1 in
  for x = 0 to g.n do
    m := max !m (g.off.(x + 1) - g.off.(x))
  done;
  !m

let create_arena g =
  Obs.Counter.incr arenas_total;
  let nv = g.n + 1 in
  let ne = max 1 (num_edges g) in
  let cap = nv in
  let a =
    { vs = Array.make (16 * nv) 0;
      fl = Bytes.make nv '\000';
      efull = Bytes.make ne '\000';
      hits = Array.make (max_degree g) 0;
      nactive = 0;
      dl = Array.make nv 0;
      dstart = Array.make (Bitvec.word_size + 1) 0;
      ring = Array.make (g.mask + 1) (-1);
      sched = Array.make ne (-1);
      base = 0;
      q = Array.make (2 * cap) 0;
      q_bkt = Array.make cap 0;
      nq = 0;
      cring = Array.make (g.mask + 1) (-1);
      cpn = Array.make (2 * nv) 0;
      nlive = 0;
      bkey = Array.make ne 0;
      seg_head = Array.make (2 * nv) 0;
      seg_len = Array.make (2 * nv) 0;
      nseg = 0;
      full = Array.make ne 0;
      nfull = 0;
      adj_head = Array.make nv (-1);
      adj_next = Array.make (2 * nv) 0;
      adj_to = Array.make (2 * nv) 0;
      par = Array.make (2 * nv) 0;
      order = Array.make nv 0;
      norder = 0;
      stack = Array.make nv 0;
      corr = Array.make nv 0;
      ncorr = 0;
      n_act = 0;
      n_scan = 0;
      n_enq = 0;
      n_dead = 0;
      n_merge = 0 }
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

(* The arena's work counts go to the shared counters once per entry-point
   call, never per shot. *)
let release_arena g a =
  Obs.Counter.add activations_total a.n_act;
  Obs.Counter.add slot_scans_total a.n_scan;
  Obs.Counter.add queue_entries_total a.n_enq;
  Obs.Counter.add dead_pops_total a.n_dead;
  Obs.Counter.add merges_total a.n_merge;
  a.n_act <- 0;
  a.n_scan <- 0;
  a.n_enq <- 0;
  a.n_dead <- 0;
  a.n_merge <- 0;
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

(* Return the arena to the pristine create_arena state after a decode that
   converged.  Every vertex whose record or flags changed lies in a cluster
   (a defect, an activated or relabelled vertex, a surviving cluster id, a
   list tail, an end of a full edge), every cluster holds a defect or the
   boundary, and the peel visits all of them: the peel order is the dirty
   set.  Growth ends with every cluster inactive, so no cursor is linked.
   The edge ring is cleared through its entries, and [base] moves past
   every round this shot scheduled. *)
let reset_arena g a t_end =
  for i = 0 to a.norder - 1 do
    init_vertex g a a.order.!(i)
  done;
  a.norder <- 0;
  for i = 0 to a.nq - 1 do
    a.ring.!(a.q_bkt.!(i)) <- -1
  done;
  a.nq <- 0;
  a.nlive <- 0;
  for k = 0 to a.nfull - 1 do
    Bytes.unsafe_set a.efull a.full.!(k) '\000'
  done;
  a.nfull <- 0;
  a.base <- a.base + t_end + g.mask + 1

(* ------------------------------------------------------------ growth --- *)

(* Cluster [c]'s clock after [t] completed rounds. *)
let[@inline] clock a c t =
  let k = vget a c c_clk in
  if vget a c c_st = 1 then t + k else k

let[@inline] side a x t = clock a (vget a x v_owner) t + vget a x v_coff

let grow_queue a =
  let grow arr =
    let bigger = Array.make (2 * Array.length arr) 0 in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  in
  a.q <- grow a.q;
  a.q_bkt <- grow a.q_bkt

(* Schedule edge [e] to full in round [t], unless that is its current
   schedule already. *)
let[@inline] schedule g a e t =
  if a.sched.!(e) <> a.base + t then begin
    a.sched.!(e) <- a.base + t;
    if a.nq = Array.length a.q_bkt then grow_queue a;
    let b = t land g.mask and i = a.nq in
    a.q.!(2 * i) <- e;
    a.q.!((2 * i) + 1) <- a.ring.!(b);
    a.q_bkt.!(i) <- b;
    a.ring.!(b) <- i;
    a.nq <- i + 1;
    a.nlive <- a.nlive + 1;
    a.n_enq <- a.n_enq + 1
  end

(* Link [x]'s cursor at slot [j], which fulls its edge to a pristine end
   when x's side reaches the edge's target, into its round's bucket; past
   x's last slot, x has no cursor. *)
let[@inline] start_cursor g a x j =
  if j < g.off.!(x + 1) then begin
    let b = (s_full g j - vget a x v_c0) land g.mask in
    let h = a.cring.!(b) in
    vset a x v_cur j;
    a.cpn.!(2 * x) <- lnot b;
    a.cpn.!((2 * x) + 1) <- h;
    if h >= 0 then a.cpn.!(2 * h) <- x;
    a.cring.!(b) <- x;
    a.nlive <- a.nlive + 1;
    a.n_enq <- a.n_enq + 1
  end

let[@inline] unlink_cursor a x =
  let p = a.cpn.!(2 * x) and n = a.cpn.!((2 * x) + 1) in
  if p >= 0 then a.cpn.!((2 * p) + 1) <- n else a.cring.!(lnot p) <- n;
  if n >= 0 then a.cpn.!(2 * n) <- p;
  vset a x v_cur (-1);
  a.nlive <- a.nlive - 1

(* [x]'s cluster has just become active, after [t] rounds.  A pristine
   end (never activated this shot: inactive, nothing grown from it) stays
   so until its own cluster becomes active, so while x's activation lasts,
   x's edges to pristine ends grow at rate 1 from x's side alone and full
   in the order of their targets: one cursor over x's slots covers them
   all.  Every other edge at x that is not full yet is scheduled on its
   own: it fulls after its remaining half-steps divided by its rate (2 when
   the other end is active too), rounded up.  (An end activated after x in
   the same round schedules the edge itself, and x's cursor skips it.)  A
   vertex activated twice in one round keeps the cursor it has. *)
let activate g a x t =
  set_flags a x (flags a x lor f_act);
  let sx = side a x t in
  let lo = g.off.!(x) and hi = g.off.!(x + 1) in
  (* the slots to activated ends, collected without a branch per slot *)
  let nh = ref 0 in
  for j = lo to hi - 1 do
    a.hits.!(!nh) <- j;
    nh := !nh + (flags a g.sy.!(j) land f_act)
  done;
  for i = 0 to !nh - 1 do
    let j = a.hits.!(i) in
    let e = s_eid g j in
    if not (is_full a e) then begin
      let y = g.sy.!(j) in
      let cy = vget a y v_owner in
      let r = s_full g j - sx - clock a cy t - vget a y v_coff in
      if r > 0 then schedule g a e (t + if vget a cy c_st = 1 then (r + 1) lsr 1 else r)
    end
  done;
  a.n_act <- a.n_act + 1;
  a.n_scan <- a.n_scan + hi - lo;
  let j = ref lo in
  while !j < hi && s_full g !j <= sx do
    incr j
  done;
  let cur = vget a x v_cur in
  if cur <> !j || vget a x v_c0 <> sx - t then begin
    if cur >= 0 then unlink_cursor a x;
    vset a x v_c0 (sx - t);
    start_cursor g a x !j
  end

(* [activate] of every defect at round 0, in ascending order.  Then each
   defect is an active singleton with side 0, and an activated end is an
   earlier, so lower, defect: only the edges to lower vertices are
   scanned.  Such an edge, rate 2 with its whole target left, is due at
   half the target rounded up, and every cursor starts at the vertex's
   first slot. *)
let activate_defects g a lo hi =
  for i = lo to hi - 1 do
    let x = a.dl.!(i) in
    set_flags a x (flags a x lor f_act);
    let llo = g.loff.!(x) and lhi = g.loff.!(x + 1) in
    let nh = ref 0 in
    for k = llo to lhi - 1 do
      a.hits.!(!nh) <- k;
      nh := !nh + (flags a g.ly.!(k) land f_act)
    done;
    for i = 0 to !nh - 1 do
      let fe = g.lfe.!(a.hits.!(i)) in
      schedule g a (fe lsr 32) (((fe land m32) + 1) lsr 1)
    done;
    a.n_scan <- a.n_scan + lhi - llo;
    vset a x v_c0 0;
    start_cursor g a x g.off.!(x)
  done;
  a.n_act <- a.n_act + hi - lo

(* The walk-order key of edge [e] at vertex [x] of active cluster [c]: the
   unit-round decoder walked active clusters by smallest defect, each
   border in list order, each vertex's slots in construction order — which
   is edge-id order, so the edge id breaks ties within a vertex. *)
let[@inline] visit g a c x e =
  let pos = vget a c c_pbase + vget a x v_poff in
  (((vget a c c_mindef * (g.n + 1)) + pos) lsl g.ebits) lor e

let[@inline] dead a nb =
  a.n_dead <- a.n_dead + 1;
  nb

(* An edge entry of round [t], judged by the state at the start of the
   round (after [t - 1] rounds).  An edge already full, rescheduled, or
   with no active end left, is dropped (a dead pop); one that a rate drop
   made late is re-timed; otherwise it fulls now, at the visit that fulled
   it in the walk: a rate-2 edge with one half-step left at its first
   visit, with two at its second.  Returns the new number of fulls. *)
let pop_edge g a t e nb =
  if a.sched.!(e) <> a.base + t then dead a nb
  else begin
    let x = e_u g e and y = e_v g e in
    let cx = vget a x v_owner and cy = vget a y v_owner in
    let ax = vget a cx c_st = 1 and ay = vget a cy c_st = 1 in
    let r = if ax || ay then e_full g e - side a x (t - 1) - side a y (t - 1) else 0 in
    if r <= 0 then dead a nb
    else begin
      let due = if ax && ay then (r + 1) lsr 1 else r in
      if due > 1 then begin
        schedule g a e (t - 1 + due);
        nb
      end
      else begin
        let key =
          if not ay then visit g a cx x e
          else if not ax then visit g a cy y e
          else begin
            let kx = visit g a cx x e and ky = visit g a cy y e in
            if (r = 1) = (kx < ky) then kx else ky
          end
        in
        (* a second entry of this edge in this bucket is now stale *)
        a.sched.!(e) <- -1;
        a.bkey.!(nb) <- key;
        nb + 1
      end
    end
  end

(* [x]'s cursor fulls in round [t]: full every edge of this target to a
   still-pristine end, then link the cursor at the next target.  Its
   bucket has been emptied, so x is unlinked already. *)
let pop_cursor g a t x nb =
  let cx = vget a x v_owner in
  let c0 = vget a x v_c0 and hi = g.off.!(x + 1) in
  let nb = ref nb and j = ref (vget a x v_cur) in
  vset a x v_cur (-1);
  a.nlive <- a.nlive - 1;
  while !j < hi && s_full g !j - c0 = t do
    if not (activated a g.sy.!(!j)) then begin
      a.bkey.!(!nb) <- visit g a cx x (s_eid g !j);
      incr nb
    end;
    incr j
  done;
  start_cursor g a x !j;
  !nb

(* Pop round [t]'s buckets into [bkey]; returns how many edges full.  No
   event of round t changes the state its neighbours read, so the order
   of the pops does not matter. *)
let pop_round g a t =
  let b = t land g.mask in
  let i = ref a.ring.!(b) in
  a.ring.!(b) <- -1;
  let nb = ref 0 in
  while !i <> -1 do
    let e = a.q.!(2 * !i) in
    i := a.q.!((2 * !i) + 1);
    a.nlive <- a.nlive - 1;
    nb := pop_edge g a t e !nb
  done;
  let x = ref a.cring.!(b) in
  a.cring.!(b) <- -1;
  while !x <> -1 do
    let next = a.cpn.!((2 * !x) + 1) in
    nb := pop_cursor g a t !x !nb;
    x := next
  done;
  !nb

(* Sort [bkey.(0 .. n - 1)] ascending: insertion for the few fulls a round
   usually has, heapsort past that.  A bucket is a stack of its round's
   events, mostly scheduled in ascending key order, so the keys arrive
   mostly descending and are reversed first (at the Fig 6 d=13 point this
   cuts the insertion moves from about 1410 to 480 per shot). *)
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
  for i = 0 to (n / 2) - 1 do
    let k = a.bkey.!(i) in
    a.bkey.!(i) <- a.bkey.!(n - 1 - i);
    a.bkey.!(n - 1 - i) <- k
  done;
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

(* Merge the clusters of edge [e]'s ends at the end of round [t].  The
   border list is the higher-rank cluster's list (the u end's on a tie)
   followed by the other's, as union by rank ordered it; the id of the
   larger cluster survives and the smaller one's vertices are relabelled,
   their clock and position offsets rebased so that every side and every
   position is unchanged.  When the merged cluster is inactive, the
   cursors of a side that was active are unlinked.

   A cluster that is inactive but can become active (even, no boundary)
   is noted in [seg_head]/[seg_len]: its vertices stay a contiguous run of
   the merged border list, and are activated if the round leaves them in
   an active cluster.  A cluster formed earlier in the same round may be
   noted too; activating its vertices again is harmless, as an edge whose
   full round did not change keeps its one entry and a cursor stays where
   it was. *)
let merge g a e t =
  let uv = g.ed.!(2 * e) in
  let cu = vget a (uv lsr 32) v_owner and cv = vget a (uv land m32) v_owner in
  if cu <> cv then begin
    a.n_merge <- a.n_merge + 1;
    let su = vget a cu c_st and sv = vget a cv c_st in
    (* the seg notes, written unconditionally and kept when the state is 0 *)
    a.seg_head.!(a.nseg) <- vget a cu c_head;
    a.seg_len.!(a.nseg) <- vget a cu c_len;
    a.nseg <- a.nseg + Bool.to_int (su = 0);
    a.seg_head.!(a.nseg) <- vget a cv c_head;
    a.seg_len.!(a.nseg) <- vget a cv c_len;
    a.nseg <- a.nseg + Bool.to_int (sv = 0);
    let st = ((su lxor sv) land 1) lor ((su lor sv) land 2) in
    let ru = vget a cu c_rank and rv = vget a cv c_rank in
    let first, second = if ru >= rv then (cu, cv) else (cv, cu) in
    let lfirst = vget a first c_len and lsecond = vget a second c_len in
    let keep, gone = if lsecond > lfirst then (second, first) else (first, second) in
    let ckeep = clock a keep t in
    let pkeep = vget a keep c_pbase + if keep = second then lfirst else 0 in
    let dp = vget a gone c_pbase + (if gone = second then lfirst else 0) - pkeep in
    let dc = clock a gone t - ckeep in
    let stopped = st <> 1 && vget a gone c_st = 1 in
    let x = ref (vget a gone c_head) in
    while !x <> -1 do
      let b = !x lsl 4 in
      a.vs.!(b + v_owner) <- keep;
      a.vs.!(b + v_coff) <- a.vs.!(b + v_coff) + dc;
      a.vs.!(b + v_poff) <- a.vs.!(b + v_poff) + dp;
      if stopped && a.vs.!(b + v_cur) >= 0 then unlink_cursor a !x;
      x := a.vs.!(b + v_next)
    done;
    if st <> 1 && vget a keep c_st = 1 then begin
      let x = ref (vget a keep c_head) in
      for _ = 1 to vget a keep c_len do
        if vget a !x v_cur >= 0 then unlink_cursor a !x;
        x := vget a !x v_next
      done
    end;
    vset a (vget a first c_tail) v_next (vget a second c_head);
    vset a keep c_st st;
    vset a keep c_clk (if st = 1 then ckeep - t else ckeep);
    vset a keep c_pbase pkeep;
    let mu = vget a cu c_mindef and mv = vget a cv c_mindef in
    vset a keep c_mindef (if mu <= mv then mu else mv);
    vset a keep c_len (lfirst + lsecond);
    vset a keep c_rank (if ru = rv then ru + 1 else if ru > rv then ru else rv);
    vset a keep c_head (vget a first c_head);
    vset a keep c_tail (vget a second c_tail);
    a.nactive <-
      a.nactive + Bool.to_int (st = 1) - Bool.to_int (su = 1) - Bool.to_int (sv = 1)
  end

(* The fulls of round [t], [bkey.(0 .. nb - 1)]: sort them into walk order,
   merge in that order, then activate every inactive cluster the merges
   left in an active one. *)
let end_round g a t nb =
  sort_batch a nb;
  a.nseg <- 0;
  let emask = (1 lsl g.ebits) - 1 in
  for i = 0 to nb - 1 do
    let e = a.bkey.!(i) land emask in
    a.full.!(a.nfull) <- e;
    a.nfull <- a.nfull + 1;
    Bytes.unsafe_set a.efull e '\001';
    merge g a e t
  done;
  for i = 0 to a.nseg - 1 do
    let h = a.seg_head.!(i) in
    if vget a (vget a h v_owner) c_st = 1 then begin
      let x = ref h in
      for _ = 1 to a.seg_len.!(i) do
        activate g a !x t;
        x := vget a !x v_next
      done
    end
  done

(* Grow clusters from the defects [dl.(lo .. hi - 1)] until every cluster
   has even parity or touches the boundary; returns the last round.
   Rounds with no fulling edge cost nothing: the loop steps over their
   empty buckets.  Edge entries of clusters that went inactive stay
   queued, and are dropped or re-timed when they pop. *)
let grow g a lo hi =
  a.nactive <- hi - lo;
  activate_defects g a lo hi;
  let t = ref 0 in
  while a.nactive > 0 do
    if a.nlive = 0 then failwith "Decoder_uf: growth failed to converge";
    incr t;
    let b = !t land g.mask in
    if a.ring.!(b) <> -1 || a.cring.!(b) <> -1 then begin
      let nb = pop_round g a !t in
      if nb > 0 then end_round g a !t nb
    end
  done;
  !t

(* Iterative spanning-forest DFS over the full edges from [root].  Top-level
   (not a local closure inside [decode_into]) so the per-shot decode loop
   allocates no closure for it — part of the zero-alloc steady-state
   contract. *)
let peel_dfs a root =
  if flags a root land f_visited = 0 then begin
    set_flags a root (flags a root lor f_visited);
    a.par.!(2 * root) <- -1;
    let nstack = ref 1 in
    a.stack.(0) <- root;
    while !nstack > 0 do
      decr nstack;
      let v = a.stack.!(!nstack) in
      a.order.!(a.norder) <- v;
      a.norder <- a.norder + 1;
      (* each half-edge without a data-dependent branch: [m] is all ones
         when its far end [w] is new, and selects whether w takes v as its
         parent and goes on the stack *)
      let h = ref a.adj_head.!(v) in
      while !h <> -1 do
        let hw = a.adj_to.!(!h) in
        let w = hw lsr 32 in
        let fw = flags a w in
        let fresh = ((fw lsr 2) land 1) lxor 1 in
        let m = -fresh in
        set_flags a w (fw lor f_visited);
        let p = a.par.!(2 * w) and pe = a.par.!((2 * w) + 1) in
        a.par.!(2 * w) <- p lxor ((p lxor v) land m);
        a.par.!((2 * w) + 1) <- pe lxor ((pe lxor (hw land m32)) land m);
        a.stack.!(!nstack) <- w;
        nstack := !nstack + fresh;
        h := a.adj_next.!(!h)
      done
    done
  end

(* Grow from the defects [dl.(lo .. hi - 1)] (ascending, in [0, g.n)), then
   peel a spanning forest of the full edges and reset the arena. *)
let decode_into g a lo hi ~record =
  a.ncorr <- 0;
  if lo = hi then false
  else begin
    for i = lo to hi - 1 do
      let x = a.dl.!(i) in
      set_flags a x f_defect;
      vset a x c_st 1;
      vset a x c_mindef x
    done;
    let t_end = grow g a lo hi in
    (* Peel: spanning forest over the full edges, boundary-rooted first so
       odd clusters peel into it. *)
    if 2 * a.nfull > Array.length a.adj_next then begin
      a.adj_next <- Array.make (4 * a.nfull) 0;
      a.adj_to <- Array.make (4 * a.nfull) 0
    end;
    for k = 0 to a.nfull - 1 do
      let e = a.full.!(k) in
      let uv = g.ed.!(2 * e) in
      let u = uv lsr 32 and v = uv land m32 in
      let tag = (e lsl 1) lor (g.ed.!((2 * e) + 1) land 1) in
      a.adj_to.!(2 * k) <- (v lsl 32) lor tag;
      a.adj_next.!(2 * k) <- a.adj_head.!(u);
      a.adj_head.!(u) <- 2 * k;
      a.adj_to.!((2 * k) + 1) <- (u lsl 32) lor tag;
      a.adj_next.!((2 * k) + 1) <- a.adj_head.!(v);
      a.adj_head.!(v) <- (2 * k) + 1
    done;
    a.norder <- 0;
    peel_dfs a g.n;
    for i = lo to hi - 1 do
      peel_dfs a a.dl.!(i)
    done;
    (* Reverse discovery order processes children before parents.  A
       defect with a parent (every vertex but a root, and the boundary
       roots its tree) puts its parent edge in the correction and passes
       its defect up: [d] is 1 then, and every update below is masked by
       it instead of branched on.  A root's [d] is 0, so its index [q] may
       be any vertex. *)
    let flip = ref 0 in
    for i = a.norder - 1 downto 0 do
      let v = a.order.!(i) in
      let p = a.par.!(2 * v) and tag = a.par.!((2 * v) + 1) in
      let haspar = (p lsr 62) lxor 1 in
      let d = (flags a v lsr 1) land haspar in
      flip := !flip lxor (d land tag);
      if record then begin
        a.corr.(a.ncorr) <- tag lsr 1;
        a.ncorr <- a.ncorr + d
      end;
      set_flags a v (flags a v lxor (d lsl 1));
      let q = p land -haspar in
      set_flags a q (flags a q lxor (d lsl 1))
    done;
    reset_arena g a t_end;
    !flip land 1 = 1
  end

(* -------------------------------------------------------- entry points --- *)

let check_syndrome g syndrome =
  if Bitvec.length syndrome <> g.n then
    invalid_arg "Decoder_uf.decode: syndrome length mismatch"

(* The syndrome's defects, ascending, into [dl.(0 .. k - 1)]; returns k. *)
let load_syndrome a syndrome =
  let k = ref 0 in
  for w = 0 to Bitvec.word_count syndrome - 1 do
    let bits = ref (Bitvec.get_word syndrome w) in
    let base = w * Bitvec.word_size in
    while !bits <> 0 do
      a.dl.(!k) <- base + Bitvec.ctz !bits;
      incr k;
      bits := !bits land (!bits - 1)
    done
  done;
  !k

(* On an exception mid-decode the arena is simply dropped (never returned to
   the pool), so a failed shot can never poison a later one. *)
let decode g syndrome =
  check_syndrome g syndrome;
  Obs.Counter.incr decode_shots_total;
  let a = take_arena g in
  let flip = decode_into g a 0 (load_syndrome a syndrome) ~record:false in
  release_arena g a;
  flip

let decode_correction g syndrome =
  check_syndrome g syndrome;
  let a = take_arena g in
  let (_ : bool) = decode_into g a 0 (load_syndrome a syndrome) ~record:true in
  let corr = List.init a.ncorr (fun i -> a.corr.(i)) in
  release_arena g a;
  corr

(* Block [w] of the detector rows as per-shot defect lists: a counting sort
   by shot.  The first pass counts each shot's defects, the second writes
   each set bit's detector into its shot's run of [dl], so every run is
   ascending.  Returns the mask of shots with a defect. *)
let load_block g a detectors w =
  let dstart = a.dstart in
  for s = 0 to Bitvec.word_size do
    dstart.!(s) <- 0
  done;
  let occupied = ref 0 in
  for d = 0 to g.n - 1 do
    let bits = ref (Bitvec.get_word (Array.unsafe_get detectors d) w) in
    occupied := !occupied lor !bits;
    while !bits <> 0 do
      let s = Bitvec.ctz !bits + 1 in
      dstart.!(s) <- dstart.!(s) + 1;
      bits := !bits land (!bits - 1)
    done
  done;
  (* dstart.(s + 1) counts shot s; make it shot s's run start, so that the
     fill pass below leaves it at shot s + 1's start *)
  let total = ref 0 in
  for s = 1 to Bitvec.word_size do
    let c = dstart.!(s) in
    dstart.!(s) <- !total;
    total := !total + c
  done;
  if !total > Array.length a.dl then a.dl <- Array.make (!total + (!total / 4)) 0;
  for d = 0 to g.n - 1 do
    let bits = ref (Bitvec.get_word (Array.unsafe_get detectors d) w) in
    while !bits <> 0 do
      let s = Bitvec.ctz !bits + 1 in
      a.dl.!(dstart.!(s)) <- d;
      dstart.!(s) <- dstart.!(s) + 1;
      bits := !bits land (!bits - 1)
    done
  done;
  !occupied

(* Batch decode: one 63-shot block at a time, the detector rows are
   transposed straight into per-shot defect lists ([load_block]); shots
   with no defect are never decoded at all.

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
    let m = ref (load_block g a detectors w) in
    while !m <> 0 do
      let s = Bitvec.ctz !m in
      if decode_into g a a.dstart.(s) a.dstart.(s + 1) ~record:false then
        Bitvec.set out ((w * Bitvec.word_size) + s) true;
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
