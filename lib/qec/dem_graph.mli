(** Convert a detector error model into a weighted matching graph for the
    union-find decoder.

    Mechanisms flipping two detectors become edges, one detector becomes a
    boundary edge, and the rare >2-detector mechanisms (certain hook-error
    configurations) are decomposed into chained pairs.  Parallel mechanisms
    merge by probability combination, keeping the likelier mechanism's
    logical flag.  Edge weights are quantized log-likelihoods
    round(scale * ln((1-p)/p)). *)

val build :
  ?scale:float -> ?max_weight:int -> nodes:int -> Dem.mechanism list ->
  Decoder_uf.graph
(** Defaults: scale = 2.0, max_weight = 40.

    A build runs in two steps.  The {e plan} holds everything that does not
    depend on probabilities, in flat int arrays: the edges in construction
    order (the order a table keyed on the endpoint pair folds into, which
    fixes every union-find tie-break and the bytes of a stored graph) and
    each mechanism's links to them with their flag rule.  The {e fold} then
    combines the mechanisms' probabilities and likeliest-mechanism flags
    along the plan.  The last plan is kept in one atomic slot and reused
    only after a full O(n) check that the mechanisms carry the very
    [detectors] arrays it was built from (physical identity; the arrays
    are immutable) and the same [obs_mask]s — no hash is trusted.  A
    miss is single-flight, like {!Dem.of_circuit}'s structure pass.
    {!Dem.weigh} shares those arrays across the reweights of one
    structure, so every noise point of a same-shape sweep folds on one
    plan, and mechanisms from any other structure get a plan of their
    own. *)

val plans_total : Obs.Counter.t
(** [qec.dem_graph_plans_total]: plans built, so a same-shape sweep of n
    points shows 1 here and n builds. *)

val non_graphlike_count : Dem.mechanism list -> int
(** Number of mechanisms with more than two detectors (diagnostic). *)
