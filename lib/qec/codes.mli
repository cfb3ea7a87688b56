(** Catalog of the QEC codes evaluated in the paper (§4.2.2, Table 3).

    All constructions are validated by {!Code.validate} and their distances
    brute-force checked in the test suite. *)

val repetition : int -> Code.t
(** Distance-d bit-flip repetition code [[d,1,d]] (Z-type checks only);
    protects against X errors. *)

val steane : Code.t
(** The [[7,1,3]] Steane code (ST in the paper). *)

val reed_muller_15 : Code.t
(** The [[15,1,3]] punctured quantum Reed–Muller code (RM).  Non-planar. *)

val color_17 : Code.t
(** A [[17,1,5]] CSS code standing in for the paper's 17-qubit color code
    (17QCC).  Built from the two length-17 binary quadratic-residue codes:
    X checks generate the dual of one QR code, Z checks the dual of the
    other.  Same parameters and non-planarity as the 4.8.8 color code, whose
    exact face list the paper does not specify. *)

val shor : Code.t
(** The [[9,1,3]] Shor code: six weight-2 Z checks (bit-flip blocks) and two
    weight-6 X checks (phase-flip outer code).  Useful as an asymmetric-noise
    ablation code. *)

val surface : int -> Code.t
(** Rotated surface code of odd or even distance d ([[d*d, 1, d]]): bulk
    weight-4 plaquettes in a checkerboard, weight-2 X checks on the top and
    bottom boundary, weight-2 Z checks on the left and right.  Logical Z is
    the top row, logical X the left column.  SC3/SC4 in the paper are
    [surface 3] / [surface 4]. *)

val by_name : string -> Code.t
(** Lookup with the paper's abbreviations: "RM", "17QCC", "ST", "SC3", "SC4",
    plus "SCd" for other distances, "REPd", and "SHOR".  Raises [Not_found]
    on unknown names. *)

val qubits_of_name : string -> int option
(** [Some n] when {!by_name} builds a code of [n] qubits from the name,
    [None] when it raises (an unknown name, or a distance below 2).  The
    name is only parsed: no code is built. *)

val syndrome_bits_of_name : string -> int option
(** [Some b] when {!by_name} builds a code whose larger check type has [b]
    checks (its larger lookup table has 2^b entries), [None] where
    {!qubits_of_name} is [None].  Parsed only, like {!qubits_of_name}. *)

val paper_codes : Code.t list
(** The five codes of Table 3, in the paper's order: RM, 17QCC, ST, SC3,
    SC4. *)
