(** Greedy minimum-weight matching decoder.

    An alternative to {!Decoder_uf} for ablation studies: defects are matched
    greedily in order of increasing weighted graph distance (Dijkstra), each
    to its nearest unmatched defect or to the boundary.  Slower than
    union-find (distances are computed per shot) but closer to minimum-weight
    perfect matching on sparse syndromes. *)

type t

val create : nodes:int -> edges:(int * int * int * bool) list -> t
(** Same edge format as {!Decoder_uf.weighted_graph}: [(u, v, weight,
    flips_logical)] with [v] possibly {!Decoder_uf.boundary}. *)

val of_dem : ?scale:float -> ?max_weight:int -> nodes:int -> Dem.mechanism list -> t
(** The edges of {!Dem_graph.build}, in its construction order. *)

val decode : t -> Bitvec.t -> bool
(** Predicted logical flip for the given defect pattern. *)
