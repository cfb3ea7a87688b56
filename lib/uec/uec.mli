(** Universal error-correction (UEC) module — §4.2.2, Fig. 9 and Table 3.

    The heterogeneous architecture keeps all data qubits of a stabilizer code
    in the multimode registers of a USC cell and executes stabilizer checks
    *serially*: each check swaps its data qubits out to the register compute
    devices one at a time, gates them with the central readout ancilla, and
    swaps them back.  Code topology becomes irrelevant (any <= 20-qubit code
    fits two 10-mode registers) at the price of a long round and hence a
    demand for long storage coherence Ts.

    The homogeneous baseline executes all checks in parallel on a square
    lattice of compute qubits, paying SWAP-routing overhead whenever the
    code's checks are not lattice-native (the Qiskit-transpiler role is
    played by {!Router}).

    Noise follows §4.2: two-qubit gates (CX and SWAP alike) carry a 1%
    depolarizing error; idling is coherence-limited (Tc = 0.5 ms on compute,
    Ts in storage); readout takes 1 us and is error-free. *)

type arch =
  | Het of { ts : float }  (** USC module with storage coherence [ts] *)
  | Hom  (** parallel checks on a routed square lattice *)

type params = {
  tc : float;  (** compute coherence (T1 = T2), default 0.5 ms *)
  p2 : float;  (** two-qubit gate error, default 1e-2 *)
  t_2q : float;  (** 100 ns *)
  t_swap : float;  (** storage<->compute swap, 100 ns (coherence-limited) *)
  t_readout : float;  (** 1 us *)
  register_capacity : int;  (** modes per register, default 10 *)
  eta : float;
      (** Z-bias of all Pauli noise: pz = eta * px with px = py; 1.0 is the
          paper's unbiased model (extension for tailored-code studies) *)
}

val default_params : params

type profile = {
  arch : arch;
  code : Code.t;
  round_time : float;  (** duration of one full QEC round (all checks) *)
  storage_time : float array;  (** per data qubit, per round *)
  compute_time : float array;
  gates_2q : int array;  (** 2q gates touching each data qubit per round *)
  meas_flip : float array array;
      (** [0]: per-Z-stab syndrome-bit flip probability; [1]: per-X-stab *)
  assignment : int array;  (** register index per data qubit (Het only) *)
}

val profile : ?params:params -> arch -> Code.t -> profile
(** Build the execution profile.  For [Het], the data-to-register assignment
    minimizes the serialized round time (§4.2.2's brute-force search): an
    exhaustive search over balanced two-register splits when the code needs
    at most two registers and n <= 20, greedy alternation across registers
    otherwise.  The search enumerates only splits with qubit n-1 in register
    0 — a split and its complement take the same time — and costs each check
    by a table lookup on how many of its qubits sit in register 1.  It runs
    under a ["uec.assign"] span once per (code, capacity, timing) and is
    memoized across calls.  For [Hom], checks are placed on a lattice and
    routed with {!Router}. *)

val compute_assignment : params -> Code.t -> int array
(** The uncached assignment search behind {!profile}: the register index of
    each data qubit.  Among equal round times the split with the smallest
    bitmask (bit q = register of qubit q) wins.
    Raises [Invalid_argument] when [register_capacity < 1]. *)

type channels = {
  interval : float array array;
      (** [Het]: per check (Z checks first), the Pauli channel (I, X, Z, Y)
          every data qubit idles through before that check is read; [[||]]
          for [Hom] *)
  touch : float array;
      (** [Het]: the channel on each support qubit after its check is read
          (compute idle during the swaps and CX, plus the CX depolarizing
          marginal) *)
  per_qubit : float array array;
      (** [Hom]: per data qubit, the whole round's channel; [[||]] for
          [Het] *)
  flips : float array;  (** per check (Z checks first), the read-flip probability *)
}
(** The noise {!logical_failures} samples, per round. *)

val channels : ?params:params -> profile -> channels

val logical_failures :
  ?jobs:int -> ?params:params -> profile -> rounds:int -> shots:int -> Rng.t -> int
(** Monte-Carlo logical failure {e count}: [shots] independent experiments of
    [rounds] rounds each; every round injects the profile's idle and gate
    noise, measures all stabilizers (with syndrome-bit flips), decodes X and
    Z sides with the code's lookup decoder, and applies the correction; a
    shot fails when any of its rounds leaves a residual that flips a logical
    operator.  Shot chunks fan across domains via {!Parallel}:
    seed-deterministic at any [jobs] setting. *)

val per_round_rate : failures:int -> rounds:int -> shots:int -> float
(** Convert a failure count over [shots] experiments of [rounds] rounds each
    into the per-round rate the paper plots: 1 - (1 - f/shots)^(1/rounds). *)

val logical_error_rate :
  ?jobs:int -> ?params:params -> profile -> rounds:int -> shots:int -> Rng.t -> float
(** [logical_failures] converted through {!per_round_rate}. *)

val collect_task : ?params:params -> arch -> Code.t -> rounds:int -> Collect.Task.t
(** The UEC experiment as a {!Collect} campaign task (kind ["uec.logical"]),
    identified by code, architecture (including Ts for [Het]), rounds,
    decoder, and the full noise parameter set.  The profile — including the
    brute-force register assignment — is built lazily on the first sampled
    batch.  Recorded errors are {e per-shot} failures; convert merged stats
    with {!per_round_rate}. *)

val round_time_with_registers : ?params:params -> Code.t -> registers:int -> float
(** Ablation: serialized round duration with a single shared register (no
    swap pipelining) or with the optimized two-register USC assignment. *)

val fig9_point : ?params:params -> code:Code.t -> ts:float -> shots:int -> Rng.t -> float
(** Convenience: heterogeneous logical error rate per round at storage
    coherence [ts] (Fig. 9 y-value). *)

val table3_row :
  ?params:params -> code:Code.t -> ts:float -> shots:int -> Rng.t ->
  float * float * float
(** (het rate, hom rate, reduction het-vs-hom) for Table 3 at Ts = [ts]. *)
