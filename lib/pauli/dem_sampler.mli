(** DEM-direct bit-parallel sampler: the one production Monte-Carlo
    sampler.

    Re-simulating the whole Clifford circuit for every batch is pure
    overhead for repeated logical-error-rate estimation — the circuit's
    effect on the detectors is fully captured by its detector error model.
    This module compiles a circuit once into its merged DEM (the move Stim
    makes) and then samples batches by drawing one Bernoulli mask per
    mechanism and XOR-ing it into the mechanism's detector and observable
    bit-planes.  Per batch the cost is
    O(mechanisms * (p * shots + rows touched)) instead of
    O(gates * shots / 63) — circuit re-simulation is skipped entirely.

    Sampling semantics: mechanisms fire as independent coins.  The circuit's
    categorical noise channels (Noise1, Depol2) are mutually exclusive
    within one site, so the two samplers' distributions differ at O(p^2) per
    site — exact on noiseless circuits, statistically indistinguishable at
    the paper's noise scales (cross-validated in test/ against the
    circuit-level frame samplers kept there as oracles). *)

type batch = {
  nshots : int;
  detectors : Bitvec.t array;  (** row per detector, bit [s] = shot [s] *)
  observables : Bitvec.t array;  (** row per observable *)
}
(** A sampled batch in transposed layout: one row per detector and per
    observable, bit [s] of each row = shot [s]. *)

val shot : batch -> int -> Bitvec.t * Bitvec.t
(** [shot b s] transposes shot [s] out of the batch as
    [(detectors, observables)] (vectors padded to length >= 1). *)

val flip_counts : batch -> int array
(** Per-observable flip counts across the batch (word-parallel popcounts). *)

type t

val compile : Circuit.t -> t
(** Extract and merge ({!Dem.of_circuit}) the circuit's error mechanisms.
    They come out in canonical ({!Dem.compare_mechanism}) order, which
    fixes the sampling stream for a given seed. *)

val weigh : Dem.structure -> float array -> t
(** {!compile} from a structure and a noise table
    ({!Dem.weigh_table}): the mechanisms come out in canonical order
    already.  Counted and traced as a compile. *)

val ndet : t -> int
val nobs : t -> int

val mechanisms : t -> Dem.mechanism array
(** The compiled mechanisms in canonical order.  Do not mutate. *)

val sample : t -> Rng.t -> nshots:int -> batch
(** Draw a batch: one Bernoulli([p]) mask per mechanism, XOR-ed into each of
    its detector rows and flagged observable rows.  Bit [s] = shot [s]. *)

val sample_flip_counts : ?jobs:int -> t -> Rng.t -> shots:int -> int array
(** Per-observable flip counts over [shots] shots, chunked through
    {!Parallel.monte_carlo} — seed-deterministic at any [jobs]. *)
