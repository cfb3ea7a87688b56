(** DEM-direct bit-parallel sampler.

    [Frame_batch] re-simulates the whole Clifford circuit for every batch;
    for repeated logical-error-rate estimation that work is pure overhead —
    the circuit's effect on the detectors is fully captured by its detector
    error model.  This module compiles a circuit once into its merged DEM
    (the move Stim makes) and then samples batches by drawing one Bernoulli
    mask per mechanism and XOR-ing it into the mechanism's detector and
    observable bit-planes.  Per batch the cost is
    O(mechanisms * (p * shots + rows touched)) instead of
    O(gates * shots / 63) — circuit re-simulation is skipped entirely.

    Sampling semantics: mechanisms fire as independent coins.  The circuit's
    categorical noise channels (Noise1, Depol2) are mutually exclusive
    within one site, so the two samplers' distributions differ at O(p^2) per
    site — exact on noiseless circuits, statistically indistinguishable at
    the paper's noise scales (cross-validated in test/). *)

type t

val compile : Circuit.t -> t
(** Extract and merge ({!Dem.of_circuit}) the circuit's error mechanisms.
    They come out in canonical ({!Dem.compare_mechanism}) order, the order
    {!of_mechanisms} sorts into, so the sampling stream for a given seed is
    stable across save/load. *)

val weigh : Dem.structure -> float array -> t
(** {!compile} from a structure and a noise table
    ({!Dem.weigh_table}): the mechanisms come out in canonical order
    already.  Counted and traced as a compile. *)

val of_mechanisms : ndet:int -> nobs:int -> Dem.mechanism list -> t
(** Package pre-extracted mechanisms (sorted here by
    {!Dem.compare_mechanism}) with the
    detector/observable counts; the deserialization entry point. *)

val ndet : t -> int
val nobs : t -> int

val mechanisms : t -> Dem.mechanism array
(** The compiled mechanisms in canonical order.  Do not mutate. *)

val sample : t -> Rng.t -> nshots:int -> Frame_batch.t
(** Draw a batch: one Bernoulli([p]) mask per mechanism, XOR-ed into each of
    its detector rows and flagged observable rows.  Bit [s] = shot [s],
    matching the {!Frame_batch.sample} layout exactly. *)

val sample_flip_counts : ?jobs:int -> t -> Rng.t -> shots:int -> int array
(** Per-observable flip counts over [shots] shots, chunked through
    {!Parallel.monte_carlo} — seed-deterministic at any [jobs], same
    contract as {!Frame_batch.sample_flip_counts}. *)
