(** Detector error model (DEM) extraction.

    Walks a noisy Clifford circuit backward, tracking for every qubit the set
    of detectors and observables sensitive to an X or Z error at the current
    position (Stim's detector-error-model pass).  Each stochastic noise
    component then maps to the detector/observable sets it flips, and
    components with identical signatures are merged by combining their
    probabilities.

    Compilation is split in two.  The {e structure} pass runs the backward
    walk once per circuit shape: it assigns every distinct signature a
    mechanism id and records, in backward-pass order, which op component
    contributes to which mechanism.  The walk is sparse: each sensitivity
    row is an immutable sorted [int array] (detector [d] as [d],
    observable [i] as [ndet + i]), an XOR is a merge, and the signature
    table hashes the elements, so the cost follows the few indices a row
    holds rather than the circuit's detector count.  A component whose
    probability is not positive builds no signature at all.  Mechanism ids
    are canonical: once the walk ends they are renumbered in
    {!compare_mechanism} order, the order {!Dem_sampler} samples in.

    The {e weight} pass then reads each contribution's probability from a
    noise table — a float array the structure indexes — and folds it into
    its mechanism: a linear scan with no signature work.  A circuit is its
    own table ({!weigh}); a generator that lays out one circuit shape for
    many noise points ([Surface_circuit]) indexes a small per-point table
    instead ({!structure}'s [?index]), so a sweep pays the walk once and
    only reweights afterwards.

    The result is the exact error hypergraph a decoder should operate on. *)

type mechanism = {
  p : float;  (** total probability of this error signature per shot *)
  detectors : int array;  (** sorted detector indices flipped *)
  obs_mask : int;  (** bit i set = observable i flipped *)
}

val compare_mechanism : mechanism -> mechanism -> int
(** The canonical mechanism order: [detectors] by length, then
    element-wise (the order polymorphic [compare] gives int arrays), then
    [obs_mask], then [p]. *)

type structure
(** The probability-free part of a circuit's DEM: the merged signatures and
    the ordered contribution list, each contribution with the offset in the
    noise table it reads.  Only the sign of the recorded probabilities
    shapes it ([p /. 15.] for a [Depol2]).  Immutable; it does not retain
    the circuit. *)

val structure : ?index:int array -> Circuit.t -> structure
(** Run the backward sensitivity walk.  Increments {!structures_total}.
    Noise op [i]'s contributions read the table at [index.(i)] (a [Noise1]'s
    [px], [py], [pz] at [+0], [+1], [+2]; a [Depol2]'s [p /. 15.] at [+0]).
    Without [index] the table is the circuit's own ({!weigh}), at [3 i], and
    the structure keeps the circuit's shape for {!weigh} to check. *)

val ndet : structure -> int
val nobs : structure -> int

val weigh_table : structure -> float array -> mechanism array
(** Probabilities of the structure's mechanisms under a noise table, in
    mechanism-id order, which is {!compare_mechanism} order (no two share
    [detectors] and [obs_mask]).  Each mechanism's [p] is its first
    contribution, then [p <- p1 (1-p2) + p2 (1-p1)] for every later one in
    backward-pass order, so the result is bit-identical to merging during
    the walk.  Raises [Invalid_argument] when the table is shorter than the
    structure's offsets need.  The [detectors] arrays are shared between
    calls on one structure. *)

val circuit_table : Circuit.t -> float array
(** The circuit's own noise table: op [i]'s recorded probabilities at
    [3 i] ([px], [py], [pz] of a [Noise1]; [p /. 15.] of a [Depol2]). *)

val weigh : structure -> Circuit.t -> mechanism list
(** {!weigh_table} of the circuit's own table, for a structure built
    without [?index].  Raises [Invalid_argument] when the circuit's shape
    (gate kinds, qubits, which recorded probabilities are positive,
    measurement count, detector and observable lists) differs from the
    structure's, or the structure was built with [?index]. *)

val of_circuit : Circuit.t -> mechanism list
(** [weigh (structure c) c], without the shape check.  Mechanisms flipping
    nothing are dropped.  The list is in {!compare_mechanism} order (see
    {!weigh_table}), so {!Dem_sampler.compile} takes it as it is. *)

val contributions : structure -> (int * int * int) array
(** Every contribution as [(op index, component, mechanism id)], in
    backward-pass order: component 0, 1, 2 are the [px], [pz], [py] of a
    [Noise1], 3 any of a [Depol2]'s fifteen.  For tests against another
    structure pass. *)

val structures_total : Obs.Counter.t
(** [pauli.dem_structures_total]: structure passes run, so a same-shape
    surface sweep of n points shows 1 here and n compiles. *)

val check_graphlike : mechanism list -> bool
(** True when every mechanism flips at most two detectors (the matching-graph
    condition for surface-code memory experiments). *)
