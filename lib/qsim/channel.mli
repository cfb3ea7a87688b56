(** Quantum channels in Kraus form.

    A channel is a list of Kraus operators of common dimension [2^k]; applying
    it to a density matrix gives [sum_i K_i rho K_i†].  Channels built here
    model the noise processes of superconducting devices: amplitude damping
    (T1), pure dephasing (T_phi), and gate depolarizing errors. *)

type t = { name : string; kraus : Cmat.t list }

val nqubits : t -> int
(** Number of qubits the channel acts on. *)

val identity : int -> t

val amplitude_damping : float -> t
(** [amplitude_damping gamma]: relaxation probability [gamma] per application. *)

val phase_damping : float -> t
(** [phase_damping lambda]: pure-dephasing channel. *)

val dephasing : float -> t
(** Z error with probability p. *)

val bit_flip : float -> t
(** X error with probability p. *)

val pauli1 : px:float -> py:float -> pz:float -> t
(** Single-qubit Pauli channel. *)

val depolarizing1 : float -> t
(** Single-qubit depolarizing: each of X,Y,Z with probability p/3. *)

val depolarizing2 : float -> t
(** Two-qubit depolarizing: each of the 15 non-identity Pauli pairs with
    probability p/15. *)

val idle : t1:float -> t2:float -> dt:float -> t
(** Thermal-relaxation idle channel for duration [dt] on a device with the
    given coherence times: amplitude damping [1 - exp(-dt/t1)] composed with
    the pure dephasing required for total coherence decay [exp(-dt/t2)].
    Requires [t2 <= 2 *. t1] (physical constraint); raises otherwise. *)

val compose : t -> t -> t
(** [compose a b] applies [b] after [a] (Kraus products [Kb * Ka]). *)

val is_cptp : ?tol:float -> t -> bool
(** Checks the trace-preservation condition [sum K†K = I]. *)

val apply : t -> targets:int list -> nqubits:int -> Cmat.t -> Cmat.t
(** Apply the channel to the given qubits of a [2^nqubits] density matrix. *)

val to_bytes : t -> string
(** Versioned, length-prefixed binary encoding of the channel with raw
    IEEE-754 float bits, so [of_bytes (to_bytes t)] reconstructs every Kraus
    matrix bit-exactly.  This is the value format of the persistent
    characterization store (the store adds its own framing and checksum
    trailer on top). *)

val of_bytes : string -> t option
(** Inverse of {!to_bytes}.  Returns [None] — never raises — on a codec
    version mismatch, truncation, trailing garbage, or any structurally
    invalid field, so store corruption degrades to a cache miss. *)

val average_gate_fidelity_vs_identity : t -> float
(** Average gate fidelity of the channel relative to the identity, computed by
    the entanglement-fidelity formula
    F_avg = (sum_i |Tr K_i|^2 / d + 1) / (d + 1). *)
