(** CSS stabilizer codes.

    Every code used in the paper (surface codes, Steane, the 17-qubit code,
    15-qubit Reed–Muller, repetition) is CSS, so stabilizers are stored as
    X-type and Z-type supports over the data qubits. *)

type t = {
  name : string;
  n : int;  (** data qubits *)
  k : int;  (** logical qubits *)
  distance : int;  (** claimed code distance (verified in the test suite) *)
  x_stabs : int array array;  (** supports of X-type stabilizers *)
  z_stabs : int array array;  (** supports of Z-type stabilizers *)
  logical_x : int array array;  (** length [k] *)
  logical_z : int array array;
  planar : bool;
      (** whether the check structure embeds in a planar square lattice
          (drives the homogeneous baseline's routing cost) *)
}

val validate : t -> unit
(** Check supports in range; X/Z stabilizers pairwise commute (even
    intersection); logicals commute with all stabilizers; [logical_x.(i)]
    anticommutes with [logical_z.(i)] and commutes with [logical_z.(j)].
    Raises [Invalid_argument] with a description on violation. *)

val num_stabs : t -> int

val z_stab_pauli : t -> int -> Pauli.t

val syndrome_of_x_error : t -> int list -> int array
(** [syndrome_of_x_error code qubits] is the Z-stabilizer syndrome (one bit
    per Z stabilizer) triggered by X errors on the given qubits. *)

val syndrome_of_z_error : t -> int list -> int array
(** X-stabilizer syndrome triggered by Z errors. *)

val x_logical_flipped : t -> int -> int list -> bool
(** [x_logical_flipped code i qubits]: do X errors on [qubits] flip logical
    Z_i (odd overlap with its support)? *)

val z_logical_flipped : t -> int -> int list -> bool

val gf2_rank : int array array -> n:int -> int
(** Rank over GF(2) of supports viewed as rows of an [n]-column matrix
    (exposed for tests and the distance checker). *)

val brute_force_distance : t -> max_weight:int -> int option
(** Search for the minimum weight of a logical operator (X-type or Z-type) up
    to [max_weight]; [None] if none found (distance exceeds the bound).
    Exponential — tests only. *)
