(** Clifford circuits with Pauli noise, measurements, detectors, and logical
    observables — the input language of the detector-error-model compiler
    ({!Dem}) and its sampler (the role Stim plays in the paper).

    A [detector] is a set of measurement indices whose parity is deterministic
    in the noiseless circuit; an [observable] is a set of measurement indices
    whose parity encodes a logical qubit's value. *)

type gate =
  | H of int
  | S of int
  | X of int
  | Y of int
  | Z of int
  | CX of int * int  (** control, target *)
  | CZ of int * int
  | SWAP of int * int
  | M of int  (** Z-basis measurement; appends one measurement record *)
  | R of int  (** reset to |0> *)
  | Noise1 of { px : float; py : float; pz : float; q : int }
      (** stochastic single-qubit Pauli error *)
  | Depol2 of { p : float; a : int; b : int }
      (** two-qubit depolarizing: one of the 15 non-identity Paulis w.p. p *)

type t = private {
  nqubits : int;
  ops : gate array;
  nmeas : int;
  detectors : int array array;
  observables : int array array;
}

type builder

val builder : int -> builder
(** [builder nqubits] starts an empty circuit. *)

val add : builder -> gate -> unit
(** Append a gate.  [M] gates should instead use {!measure} when the
    measurement index is needed. *)

val measure : builder -> int -> int
(** Append a measurement of the qubit; returns its measurement index. *)

val add_detector : builder -> int list -> unit
(** Declare that the parity of the given measurement indices is deterministic
    noiselessly. *)

val add_observable : builder -> int list -> unit

val finish : builder -> t

val idle_noise : builder -> t1:float -> t2:float -> dt:float -> int -> unit
(** Append the Pauli-twirled thermal idle error for duration [dt]:
    px = py = (1 - exp(-dt/t1))/4 and pz chosen so the total phase-flip
    probability matches exp(-dt/t2) coherence decay. *)

val idle_probs : t1:float -> t2:float -> dt:float -> float * float
(** [(p1, pz)] of the {!idle_noise} channel: px = py = p1. *)

val count_gates : t -> int
(** Number of non-noise, non-measurement unitary gates. *)

val depth_events : t -> int
(** Total op count, a proxy for simulation cost. *)

val validate : t -> unit
(** Check all qubit and measurement indices are in range and every noise
    probability is valid ({!check_noise1}, {!check_depol2}); raises
    [Invalid_argument] otherwise. *)

val check_noise1 : px:float -> py:float -> pz:float -> unit
(** Raises [Invalid_argument] unless a [Noise1] with these probabilities is
    valid: none negative, sum at most 1. *)

val check_depol2 : float -> unit
(** Raises [Invalid_argument] unless [p] is a valid [Depol2] probability. *)
