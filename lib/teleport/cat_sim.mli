(** Circuit-level Monte-Carlo simulation of CAT-state generation (§4.3's CAT
    generator sub-module), upgrading the closed-form model in {!Teleport}.

    The GHZ state is grown by a chain of CNOTs in a SeqOp cell, then verified
    by ancilla parity checks; generation is accepted when every check reads
    even.  The circuit compiles to its detector error model and is sampled
    by {!Dem_sampler} in chunks through {!Parallel.monte_carlo}, as the QEC
    experiments are, so the acceptance rate and the residual error of
    accepted states are seed-deterministic at any job count. *)

type result = {
  accept_rate : float;  (** probability the verification accepts *)
  error_given_accept : float;
      (** probability an accepted CAT has a flipped pairwise ZZ correlation
          (an undetected X-type error) *)
  shots : int;
}

val circuit :
  n:int -> p2:float -> t_coh:float -> t_2q:float -> t_readout:float ->
  verify_checks:int -> Circuit.t
(** The generation + verification circuit: qubit 0 in |+>, CNOT chain,
    [verify_checks] ancilla parity checks on qubit pairs spread across the
    CAT, and a final transversal measurement whose pairwise parities are the
    observables. *)

val run :
  n:int -> p2:float -> t_coh:float -> ?t_2q:float -> ?t_readout:float ->
  ?verify_checks:int -> shots:int -> Rng.t -> result
(** Defaults: 100 ns CNOTs, 1 us readout, 2 verification checks. *)
