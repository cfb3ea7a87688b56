(** Bell-diagonal two-qubit states and the DEJMPS distillation step.

    Entangled pairs that undergo Pauli-twirled noise stay Bell-diagonal, so
    the module-level distillation simulation tracks just four probabilities —
    the paper's channel abstraction at work.  The algebra here is verified
    against full density-matrix simulation in the test suite. *)

type t = {
  phi_p : float;  (** weight of (|00>+|11>)/sqrt2 — the fidelity *)
  psi_p : float;  (** (|01>+|10>)/sqrt2: a bit-flip *)
  psi_m : float;  (** (|01>-|10>)/sqrt2: a bit+phase flip *)
  phi_m : float;  (** (|00>-|11>)/sqrt2: a phase flip *)
}

val werner : float -> t
(** [werner f]: fidelity [f], remaining weight split evenly. *)

val perfect : t

val fidelity : t -> float
val infidelity : t -> float

val validate : t -> unit
(** Probabilities non-negative and summing to 1 (within tolerance). *)

val normalize : t -> t

val apply_pauli_half : t -> px:float -> py:float -> pz:float -> t
(** Apply a single-qubit Pauli channel to one half of the pair. *)

val twirl_probs : t1:float -> t2:float -> dt:float -> float * float * float
(** [(px, py, pz)] of one half idling for [dt] (Pauli-twirled thermal
    noise). *)

val decay : t -> t1:float -> t2:float -> dt:float -> t
(** Both halves idle for [dt] on devices with the given coherence times:
    [apply_pauli_half] twice with the [twirl_probs] channel. *)

val depolarize : t -> p:float -> t
(** Two-sided local depolarizing with total strength [p] per half — the gate
    error model for the local operations of a distillation round. *)

(** {2 Channels on flat storage}

    A pair stored as its four weights in {!to_probs} order at
    [w.(o) .. w.(o + 3)] of a float array, updated in place. *)

type channel
(** A Pauli channel applied to each half of a pair, with [px = py]. *)

val decay_channel : t1:float -> t2:float -> dt:float -> channel
(** The channel of {!decay}: {!twirl_probs} on each half. *)

val decay_into : channel -> t1:float -> t2:float -> dt:float -> unit
(** [decay_into c ~t1 ~t2 ~dt] makes [c] the {!decay_channel} of those
    arguments, in place and without allocating. *)

val depolarizing : p:float -> channel
(** The channel of {!depolarize}. *)

val apply : channel -> float array -> int -> unit
(** [apply c w o] applies [c] to both halves of the pair at offset [o], with
    the float operations of two {!apply_pauli_half} calls. *)

val of_probs : float array -> int -> t
(** [of_probs w o] is the pair stored at offset [o]. *)

val dejmps_in_place : float array -> int -> int -> float
(** [dejmps_in_place w a b] is {!dejmps} of the pairs at offsets [a] and
    [b]: it returns the success probability and writes the output pair over
    the pair at [a]. *)

(** {2 Distillation and swapping} *)

val dejmps : t -> t -> float * t
(** [dejmps a b] = (success probability, output pair given success).  The
    DEJMPS step: both pairs are rotated (phi- <-> psi-), a bilateral CNOT
    from [a] to [b] is applied, and [b] is measured in Z on both sides and
    kept on even parity.  The survivor is left in the rotated frame (still
    Bell-diagonal); the frame alternation across rounds is what makes the
    iteration converge. *)

val dejmps_predicted_fidelity : t -> t -> float
(** Fidelity of the success branch (scheduler's improvement test). *)

val to_probs : t -> float array
(** [phi_p; psi_p; psi_m; phi_m] as an array: the flat storage order. *)
