(** Pure-state (statevector) simulator with Monte-Carlo noise trajectories.

    Complements {!Dm}: where the density-matrix simulator is exact but
    limited to ~8 qubits (4^n scaling), statevector trajectories scale to
    ~20 qubits (2^n) by sampling one Kraus branch per noise event, at the
    cost of needing many trajectories for expectation values.  Used to
    characterize larger cells (e.g. a full 10-mode register with its compute
    qubit) where the density matrix no longer fits. *)

type t

val create : int -> t
(** |0...0> on n qubits (n <= 24). *)

val nqubits : t -> int
val copy : t -> t

val amplitude : t -> int -> Complex.t
(** Amplitude of a computational basis state. *)

val norm : t -> float
(** Should stay 1 up to float error; exposed for tests. *)

val apply_unitary : t -> Cmat.t -> int list -> unit
(** Apply a small unitary (1-3 qubits) to the listed targets (first target =
    most significant bit of the matrix index, matching {!Dm}). *)

val apply_kraus_sampled : t -> Channel.t -> int list -> Rng.t -> int
(** Apply a channel by sampling one Kraus branch with the Born weights and
    renormalizing; returns the branch index (a quantum trajectory step). *)

val idle_trajectory : t -> t1:float -> t2:float -> dt:float -> int -> Rng.t -> unit
(** Thermal idle as a sampled trajectory step on one qubit. *)

val prob_one : t -> int -> float

val measure : t -> Rng.t -> int -> int
(** Projective Z measurement with collapse. *)

val fidelity_with : t -> t -> float
(** |<a|b>|^2. *)

val to_dm : t -> Dm.t
(** Density matrix |psi><psi| (small n only). *)

val average_fidelity :
  prepare:(unit -> t) -> evolve:(t -> Rng.t -> unit) -> target:t ->
  trajectories:int -> Rng.t -> float
(** Monte-Carlo channel fidelity: average over noise trajectories of
    |<target|psi_final>|^2. *)
