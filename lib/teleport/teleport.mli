(** Code-teleportation (CT) module — §4.3, Figs. 10-12 and Table 4.

    A CT resource state |Phi+>_AB between logical code A and logical code B is
    prepared from: distilled EPs (entanglement-distillation sub-module),
    a CAT state of size |A| + |B| grown by sequential CNOTs (SeqOp cells)
    and entangled across the two halves through remote gates on the EPs,
    two logical |+> preparations (UEC sub-modules), the transversal
    CNOT between CAT and |+> states, a logical measurement, and correction.

    As in the paper, the module-level error is composed from independently
    characterized sub-module error rates (phenomenological analysis):
    sub-simulation results are combined as 1 - prod(1 - e_i). *)

type params = {
  uec : Uec.params;
  ep_rate_hz : float;  (** EP generation rate (paper: 1000 kHz) *)
  ep_target : float;  (** distillation target fidelity (0.995) *)
  cat_verify_checks : int;  (** parity checks verifying the CAT state *)
  distill_horizon : float;  (** simulated horizon for the EP sub-module *)
}

val default_params : params

type breakdown = {
  e_ep : float;  (** residual EP infidelity after distillation *)
  e_cat : float;  (** CAT growth + verification error *)
  e_plus_a : float;  (** logical |+> preparation error, code A *)
  e_plus_b : float;
  e_meas : float;  (** logical measurement (one more UEC round) *)
  total : float;  (** combined CT-state logical error probability *)
}

val heterogeneous :
  ?params:params -> code_a:Code.t -> code_b:Code.t -> ts:float -> shots:int ->
  Rng.t -> breakdown
(** Full heterogeneous CT module at storage coherence [ts]: EP fidelity from
    the discrete-event distillation simulation, CAT error from serialized
    SeqOp CNOTs with storage idling, |+> preparations from the heterogeneous
    UEC Monte Carlo. *)

val homogeneous :
  ?params:params -> code_a:Code.t -> code_b:Code.t -> shots:int -> Rng.t ->
  breakdown
(** Homogeneous baseline: compute-only memory for the EP sub-module, routed
    lattice for the transversal stage, homogeneous UEC preparations. *)

val fig12_point :
  ?params:params -> code_a:Code.t -> code_b:Code.t -> ts:float -> shots:int ->
  Rng.t -> float
(** Heterogeneous CT logical error probability (Fig. 12 y-value). *)

val splits_per_pair : shots:int -> int
(** [Rng.split] draws one Table-4 pair takes from the shared generator:
    [heterogeneous] then [homogeneous], each one split for the EP stream
    plus {!Parallel.chunk_count}[ shots] per UEC estimate (three each). *)

val table4 :
  ?params:params -> codes:Code.t list -> ts:float -> shots:int -> Rng.t ->
  (string * string * float * float) list
(** All ordered pairs (a, b, heterogeneous, homogeneous) of distinct codes —
    the upper and lower triangles of Table 4.  Results equal the sequential
    loop of [heterogeneous] then [homogeneous] over the pairs on the one
    generator; the pairs run as {!Parallel} tasks, each from a copy of the
    generator advanced by {!splits_per_pair} per earlier pair, so the table
    is the same at any {!Parallel.jobs}. *)
