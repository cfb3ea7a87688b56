(** Standard gate matrices.

    All matrices are given in the computational basis with qubit 0 as the most
    significant index bit (matching {!Hetarch_linalg.Cmat.embed_unitary}). *)

val i2 : Cmat.t
val x : Cmat.t
val y : Cmat.t
val z : Cmat.t
val h : Cmat.t
val s : Cmat.t
val t : Cmat.t

val rx : float -> Cmat.t
val ry : float -> Cmat.t
val rz : float -> Cmat.t
val phase : float -> Cmat.t
(** diag(1, e^{iθ}). *)

val cx : Cmat.t
(** Control = qubit 0 (most significant), target = qubit 1. *)

val cz : Cmat.t
val swap : Cmat.t
val iswap : Cmat.t
val cphase : float -> Cmat.t

val pauli_of_char : char -> Cmat.t
(** 'I' | 'X' | 'Y' | 'Z'. *)

val pauli_string : string -> Cmat.t
(** Tensor product of single-qubit Paulis, left character = qubit 0. *)

val is_unitary : ?tol:float -> Cmat.t -> bool
