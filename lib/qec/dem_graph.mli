(** Convert a detector error model into a weighted matching graph for the
    union-find decoder.

    Mechanisms flipping two detectors become edges, one detector becomes a
    boundary edge, and the rare >2-detector mechanisms (certain hook-error
    configurations) are decomposed into chained pairs.  Parallel mechanisms
    merge by probability combination, keeping the likelier mechanism's
    logical flag.  Edge weights are quantized log-likelihoods
    round(scale * ln((1-p)/p)). *)

type plan
(** Everything about a DEM's matching graph that does not depend on
    probabilities, in flat int arrays: the edges in construction order (the
    order a table keyed on the endpoint pair folds into, which fixes every
    union-find tie-break and the bytes of a stored graph), each
    mechanism's links to them with their flag rule, and the decoder's CSR
    incidence of those edges ({!Decoder_uf.incidence}).  Immutable. *)

val plan : nodes:int -> Dem.mechanism array -> plan
(** The plan of these mechanisms' [detectors] and [obs_mask]s (their [p]s
    are not read).  Increments {!plans_total}. *)

val weigh : ?scale:float -> ?max_weight:int -> plan -> Dem.mechanism array -> Decoder_uf.graph
(** The {e fold}: combine the mechanisms' probabilities and
    likeliest-mechanism flags along the plan and reweight its incidence
    ({!Decoder_uf.reweight}).  The mechanisms must be the plan's, in its
    order, with any probabilities — a reweight of one {!Dem.structure}
    ({!Dem.weigh_table}) always is; a different count of mechanisms or links
    raises [Invalid_argument].  Defaults: scale = 2.0, max_weight = 40. *)

val build :
  ?scale:float -> ?max_weight:int -> nodes:int -> Dem.mechanism list ->
  Decoder_uf.graph
(** [weigh (plan ~nodes ms) ms]: a plan of its own for every call. *)

val plans_total : Obs.Counter.t
(** [qec.dem_graph_plans_total]: plans built, so a same-shape surface sweep
    of n points shows 1 here and n graphs. *)

val non_graphlike_count : Dem.mechanism list -> int
(** Number of mechanisms with more than two detectors (diagnostic). *)
