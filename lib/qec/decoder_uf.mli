(** Union-find decoder (Delfosse–Nickerson style) over a matching graph.

    Nodes are detectors; each edge is a possible error mechanism flipping its
    two endpoint detectors (or one detector and the boundary) and carries a
    flag saying whether that error flips the logical observable.  Clusters
    grow from defects in half-edge steps and merge until every cluster has
    even defect parity or touches the boundary; a spanning-forest peeling
    then extracts a correction, whose accumulated logical flags give the
    logical-flip prediction.

    This plays the role of PyMatching in the paper's Stim-based experiments;
    union-find achieves near-matching accuracy at near-linear cost.

    Decoding runs on a reusable arena, and growth is event-driven.  The
    graph holds its incidence in CSR form, each vertex's incident edges
    sorted by growth target, and a cluster's border is the linked list of
    its vertices.  No growth is stored per edge: each cluster keeps a clock
    of the rounds it has been active (odd parity, no boundary) and each
    vertex an offset from its cluster's clock, so an edge's growth is the
    sum of its two ends' sides, capped at its target, and a cluster that
    goes inactive or touches the boundary costs O(1).  Event rings, indexed
    by round modulo a power of two above the largest half-step target,
    hold the rounds at which edges full: an edge with an active end is
    queued at its remaining half-steps divided by its rate, and a vertex's
    edges to never-activated ends share one cursor in target order.  A
    cursor is unlinked when its cluster goes inactive, so every cursor that
    pops is live; edge entries made stale by a cluster going inactive are
    re-timed or dropped when they pop.  When an inactive cluster is
    absorbed into an active one, only its vertices are scheduled.  The
    edges that full in one round are merged in the walk order of the
    unit-round decoder this replaced (clusters by smallest defect, each
    border in list order, each vertex's edges in order), so merges, the
    peel and every prediction are identical to it.

    Per shot, a batch block is transposed straight into ascending defect
    lists, one per shot; a vertex's state is one record; every vertex the
    shot mutates is in a cluster the peel visits, so the reset walks the
    peel order.  Zero allocation per shot and reset cost proportional to
    the work the shot did.  The work is counted: activations, slots
    scanned by activations, queue entries, dead pops (entries that pop and
    do nothing) and merges, in the [qec.uf_*_total] counters, added once
    per call.  Arenas are pooled per graph behind a mutex, so {!decode}
    and {!decode_batch} are safe to call concurrently from worker domains;
    an arena whose decode raised is dropped, never pooled. *)

type graph

val boundary : int
(** Pseudo-endpoint representing the open boundary (pass as [v]). *)

val graph : nodes:int -> edges:(int * int * bool) list -> graph
(** [graph ~nodes ~edges]: each edge is [(u, v, flips_logical)]; [v] may be
    {!boundary}.  Self-loops and out-of-range endpoints are rejected.  All
    edges have unit weight. *)

val weighted_graph : nodes:int -> edges:(int * int * int * bool) list -> graph
(** [(u, v, weight, flips_logical)]: clusters must grow [weight] half-steps
    from each side before the edge closes, so low-probability mechanisms
    (high weight) are matched across only when nothing cheaper exists.
    Weights must be in [1, 2^30); the event ring has a slot per round up
    to twice the largest weight.  It is {!reweight} of an {!incidence}. *)

type incidence
(** The probability-free half of a weighted graph: the endpoints and the
    CSR incidence, each vertex's edges in construction order.  Immutable;
    every graph {!reweight} makes from it shares its slot ranges. *)

val incidence : nodes:int -> edges:(int * int) array -> incidence
(** [(u, v)] per edge, [v] possibly {!boundary}, with the endpoint,
    self-loop and size checks of {!weighted_graph}. *)

val reweight : incidence -> weights:int array -> logical:bool array -> graph
(** The graph of the incidence's edges with these weights and flags (one
    each per edge, kept by the graph): exactly
    [weighted_graph ~nodes ~edges] of the same edges, with its weight
    checks, but only the targets and flags, the by-target slot order with
    its far ends and the event-ring size are computed. *)

val num_nodes : graph -> int
val num_edges : graph -> int

val edge_list : graph -> (int * int * int * bool) array
(** The edges as given to {!weighted_graph}, in construction order, with the
    virtual boundary endpoint mapped back to {!boundary} — the
    serialization-stable description: feeding it back through
    {!weighted_graph} rebuilds a graph with identical decode behavior. *)

val arrays : graph -> (string * int array) list
(** Every array the decoder reads, by field name, and the node count,
    edge-id width and event-ring mask in one; exposed for tests that
    compare construction paths field for field. *)

val decode : graph -> Bitvec.t -> bool
(** [decode g syndrome] returns the predicted logical flip for the defect
    pattern [syndrome], one bit per node: any other length raises
    [Invalid_argument].  The syndrome must have even total parity or the
    excess is matched to the boundary.  Raises
    [Failure "Decoder_uf: growth failed to converge"] when a connected
    component without a boundary edge holds an odd number of defects (for
    example a defect on a node with no edges). *)

val decode_correction : graph -> Bitvec.t -> int list
(** The chosen correction as edge indices (ordered as given to {!graph});
    exposed for tests. *)

val decode_batch : graph -> detectors:Bitvec.t array -> nshots:int -> Bitvec.t
(** [decode_batch g ~detectors ~nshots] decodes a whole batch: [detectors]
    is one row per graph node with bit [s] = shot [s] (the
    {!Dem_sampler.batch} layout, each row exactly
    [nshots] bits), and the result row has bit [s] set when shot [s] is
    predicted to flip the logical observable.  Rows are transposed into
    per-shot defect lists one 63-shot word block at a time; quiet shots
    are skipped.  Identical predictions to per-shot {!decode}. *)

val decode_batch_into :
  graph -> detectors:Bitvec.t array -> nshots:int -> out:Bitvec.t -> unit
(** Steady-state core of {!decode_batch}: writes the prediction row into the
    caller-owned [out] (cleared first; must be exactly [nshots] bits).  Once
    the arena pool is warm this path allocates nothing — no closures, no
    boxed timing values, no fresh result row — which the zero-alloc test
    in [test_fused] enforces at d=3..9, at the Fig 6 d=13 point and with
    weight-40 edges.  {!decode_batch} is this plus a fresh [out] and batch timing
    instrumentation. *)

val decode_batch_count :
  graph -> detectors:Bitvec.t array -> observable:Bitvec.t -> nshots:int -> int
(** Number of shots whose {!decode_batch} prediction disagrees with the
    sampled observable row — the batch logical-error counter. *)
