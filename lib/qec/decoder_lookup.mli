(** Minimum-weight lookup-table decoder for small CSS codes.

    Tables are built by enumerating data-qubit errors in order of increasing
    weight, so each syndrome maps to a minimum-weight correction.  Suitable
    for every non-surface code in the paper (n <= 17) and for SC3/SC4 on the
    universal error-correction module, where checks are serialized and
    decoded one round at a time. *)

type t

val max_qubits : int
(** The largest code {!create} takes: 30 qubits, so an error pattern fits
    one int mask. *)

val max_syndrome_bits : int
(** The most checks of one type {!create} takes: 16, so a table holds at
    most 2^16 syndromes.  A table costs at least its size and grows about
    4x per two more checks; REP17 (16) takes about 2 ms and SC5 (12, but
    25 qubits to enumerate) about 8 ms. *)

val syndrome_bits : Code.t -> int
(** The larger of the code's X- and Z-check counts: its larger table has
    2^(syndrome_bits code) entries. *)

val create : Code.t -> t
(** Build both tables (X-error and Z-error decoding).  Cost grows with the
    syndrome space (2^checks); fine for the paper's codes.  Raises
    [Invalid_argument] on a code of more than {!max_qubits} qubits or of
    more than {!max_syndrome_bits} checks of one type. *)

val decode_x : t -> int array -> int list
(** [decode_x t syndrome] maps a Z-stabilizer syndrome (bit per Z check, as
    from {!Code.syndrome_of_x_error}) to a minimum-weight X correction
    (qubit list). *)

val decode_z : t -> int array -> int list
(** X-stabilizer syndrome to Z correction. *)

val logical_x_error_after_correction : t -> actual:int list -> bool
(** Full decode cycle for an X error: compute its syndrome, decode, apply the
    correction, and report whether the residual flips logical Z_0. *)

val logical_z_error_after_correction : t -> actual:int list -> bool

val x_correction_mask : t -> key:int -> int
(** Minimum-weight X correction for a packed syndrome [key], as a qubit
    bitmask — the mask twin of {!decode_x}.  The allocation-free building
    block for batch estimation loops ({!Threshold}, [Uec]). *)

val z_correction_mask : t -> key:int -> int

val logical_x_flip_mask : t -> actual:int -> bool
(** Mask-based fast path of {!logical_x_error_after_correction}: [actual] is
    an int bitmask of errored qubits (bit [q] = qubit [q]).  Zero allocation;
    agrees exactly with the list version.  The Monte-Carlo inner loop of
    {!Threshold.logical_rate}. *)

val logical_z_flip_mask : t -> actual:int -> bool
