(** Circuit-level rotated-surface-code memory experiment (paper §4.2.1).

    Builds the full noisy Clifford circuit for a Z-basis memory experiment —
    the heterogeneous ParCheck standard cell tiled across the code — along
    with the matching graph its detectors decode on.  Noise model follows the
    paper: two-qubit depolarizing error on every CX, coherence-limited idling
    on every qubit in every schedule slot (data and ancilla can have
    different T1 = T2 coherence times, the paper's Tcd / Tca), 1 us
    error-free readout during which data qubits idle.

    A build splits the circuit in two.  The {e shape} — distance, rounds,
    and which of [t_1q], [t_2q], [t_meas] and [p2] are positive — fixes
    every gate, qubit, measurement, detector and observable, and which
    entry of a noise table each noise op reads.  The {e noise table} of a
    point holds the [(px, py, pz)] of every (qubit, slot duration) and
    [p2], computed in O(qubits) from the parameters.  One memo slot keeps
    the last shape and, once a point compiles, the DEM structure
    ({!Dem.structure}) and matching-graph plan ({!Dem_graph.plan}) for the
    table's positivity pattern.  Every further point of the shape costs
    only its noise: a weight pass and a graph reweight.  A slot miss is
    single-flight across domains, and a point whose positivity pattern
    differs from the slot's (a subnormal [p2], an infinite coherence) gets
    a new structure. *)

type params = {
  distance : int;
  rounds : int;
  t_data : float;  (** data-qubit coherence Tcd (T1 = T2), seconds *)
  t_anc : float;  (** ancilla-qubit coherence Tca, seconds *)
  p2 : float;  (** two-qubit gate depolarizing probability (paper: 1e-2) *)
  t_1q : float;  (** single-qubit gate time (paper: 40 ns) *)
  t_2q : float;  (** two-qubit gate time (paper: 100 ns) *)
  t_meas : float;  (** readout time (paper: 1 us) *)
}

val default : distance:int -> params
(** Paper's §4.2.1 settings: rounds = distance, Tcd = Tca = 0.1 ms, 1% CX
    error, 40 ns / 100 ns / 1 us timings. *)

type experiment = {
  graph : Decoder_uf.graph;
  sampler : Dem_sampler.t;
  params : params;
  n_qubits : int;
  n_z_stabs : int;
}
(** What estimation needs: the compiled DEM sampler and the matching graph.
    The circuit they were compiled from is not kept; {!circuit} rebuilds
    it. *)

val circuit : ?variability:float * Rng.t -> params -> Circuit.t
(** The noisy memory-Z circuit {!build} compiles: the shape's skeleton
    with the point's noise table filled in.  With
    [~variability:(sigma, rng)], every qubit's coherence is drawn as in
    {!build_varied}, so the same [rng] state gives the circuit
    {!build_varied} compiles.  Builds never lay it out per point. *)

val build : params -> experiment
(** Construct the memory-Z experiment.  Detector i of the circuit is node i
    of the matching graph; the single observable is logical Z. *)

val build_varied : sigma:float -> Rng.t -> params -> experiment
(** Like {!build}, but every qubit's coherence time is drawn log-normally
    around its nominal value with log-std [sigma] — fabrication variability
    (§5: device variability as p-cells): [sigma] and one Gaussian per
    qubit, in qubit order, go into the noise table.  The decoding graph is
    reweighted from the varied circuit's DEM, so the decoder knows the
    per-qubit rates. *)

val logical_error_count : ?jobs:int -> experiment -> Rng.t -> shots:int -> int
(** Monte-Carlo logical error count over [shots] experiments on the fused
    pipeline: each chunk draws one DEM-direct batch
    ({!Dem_sampler.sample}) and decodes it through
    {!Decoder_uf.decode_batch_count} on a pooled arena.  Chunking and
    merge order are fixed, so for a given seeded [rng] the count is
    bit-identical at any [jobs]. *)

val logical_error_rate : ?jobs:int -> experiment -> Rng.t -> shots:int -> float
(** Monte-Carlo logical error rate per shot (per [rounds] cycles). *)

val collect_task : params -> Collect.Task.t
(** The memory experiment as a {!Collect} campaign task (kind
    ["qec.surface"]), identified by distance, rounds, decoder, and the full
    timing/noise parameter set.  Circuit and matching graph are built
    lazily on the first sampled batch. *)

val per_cycle_rate : shot_rate:float -> rounds:int -> float
(** Convert a per-shot logical error probability into the per-cycle rate the
    paper plots: 1 - (1 - P)^(1/rounds). *)

val per_cycle_rates : seed:int -> shots:int -> params list -> float list
(** The per-cycle logical error rate of each point, in order: {!build},
    {!logical_error_rate} over [shots] with [Rng.create seed], then
    {!per_cycle_rate}.  Each distinct point (floats compared by IEEE bits)
    is evaluated once, in first-appearance order, as one {!Sweep.sweep}
    task, so points fan across domains and their Monte-Carlo chunks run
    inline.  Results are byte-identical at any job count. *)
