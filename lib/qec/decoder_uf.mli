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

    Decoding runs on a reusable arena.  The graph holds its incidence in
    CSR form (each vertex's incident edge ids, in construction order), and
    a cluster's border is the linked list of its vertices, so a merge
    appends one list to another in O(1).  Each unit growth round walks the
    active borders once: it grows every live edge one half-step and folds
    in, without a division, the number of rounds until the next edge fulls.
    A walk that fulls nothing applies all of those rounds but the last at
    once, and the next walk, on the same clusters, is the fulling round —
    the same growth as running every round.  Every vertex the shot mutates
    goes on a dirty log, and the reset restores it and clears the growth of
    its incident edges: zero allocation per shot and reset cost
    proportional to the work the shot did.  Arenas are pooled per graph
    behind a mutex, so {!decode} and {!decode_batch} are safe to call
    concurrently from worker domains; an arena whose decode raised is
    dropped, never pooled. *)

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
    Weights must be >= 1. *)

val num_nodes : graph -> int
val num_edges : graph -> int

val edge_list : graph -> (int * int * int * bool) array
(** The edges as given to {!weighted_graph}, in construction order, with the
    virtual boundary endpoint mapped back to {!boundary} — the
    serialization-stable description: feeding it back through
    {!weighted_graph} rebuilds a graph with identical decode behavior. *)

val decode : graph -> Bitvec.t -> bool
(** [decode g syndrome] returns the predicted logical flip for the defect
    pattern [syndrome] (one bit per node).  The syndrome must have even total
    parity or the excess is matched to the boundary.  Raises
    [Failure "Decoder_uf: growth failed to converge"] when a connected
    component without a boundary edge holds an odd number of defects (for
    example a defect on a node with no edges). *)

val decode_correction : graph -> Bitvec.t -> int list
(** The chosen correction as edge indices (ordered as given to {!graph});
    exposed for tests. *)

val decode_batch : graph -> detectors:Bitvec.t array -> nshots:int -> Bitvec.t
(** [decode_batch g ~detectors ~nshots] decodes a whole batch: [detectors]
    is one row per graph node with bit [s] = shot [s] (the
    {!Frame_batch.t} / {!Dem_sampler.sample} layout, each row exactly
    [nshots] bits), and the result row has bit [s] set when shot [s] is
    predicted to flip the logical observable.  Rows are transposed into
    per-shot syndromes one 63-shot word block at a time; quiet shots are
    skipped without materializing a syndrome.  Identical predictions to
    per-shot {!decode}. *)

val decode_batch_into :
  graph -> detectors:Bitvec.t array -> nshots:int -> out:Bitvec.t -> unit
(** Steady-state core of {!decode_batch}: writes the prediction row into the
    caller-owned [out] (cleared first; must be exactly [nshots] bits).  Once
    the arena pool is warm this path allocates nothing — no closures, no
    boxed timing values, no fresh result row — which the zero-alloc test
    in [test_fused] enforces at d=3..9.  {!decode_batch} is this plus a fresh [out] and batch timing
    instrumentation. *)

val decode_batch_count :
  graph -> detectors:Bitvec.t array -> observable:Bitvec.t -> nshots:int -> int
(** Number of shots whose {!decode_batch} prediction disagrees with the
    sampled observable row — the batch logical-error counter. *)
