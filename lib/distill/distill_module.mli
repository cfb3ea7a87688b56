(** The entanglement-distillation module of §4.1 (Figs. 1-4).

    Input memory (Register cells), a ParCheck distillation cell, and an
    output memory, driven by a discrete-event simulation of probabilistic EP
    arrival and the paper's greedy scheduler:

    1. re-distill existing pairs when it would yield improvement,
    2. move distilled pairs to output memory,
    3. distill new pairs if available,
    4. store incoming pairs in memory.

    The heterogeneous module stores idle pairs in multimode-resonator
    registers (coherence Ts); the homogeneous baseline keeps them on compute
    qubits (Ts = Tc). *)

type config = {
  ts : float;  (** storage coherence (T1 = T2), seconds *)
  tc : float;  (** compute coherence, seconds *)
  input_capacity : int;  (** input memory slots (paper: 2 registers x 3 modes) *)
  output_capacity : int;  (** output memory slots (paper: 1 register x 3 modes) *)
  swap_time : float;  (** storage<->compute SWAP duration *)
  swap_error : float;  (** depolarizing strength of that SWAP *)
  gate_time_2q : float;
  gate_error_2q : float;
  gate_time_1q : float;
  readout_time : float;
  target_fidelity : float;
  source : Ep_source.t;
}

val heterogeneous : ?ts:float -> rate_hz:float -> unit -> config
(** Paper defaults: Ts = 12.5 ms, Tc = 0.5 ms, multimode-resonator swaps
    (400 ns, 1e-2), compute gates (100 ns, 1e-3), 1 us readout, target
    fidelity 0.995, capacities 6 / 3. *)

val homogeneous : rate_hz:float -> unit -> config
(** Same module on a sea of compute qubits: Ts = Tc = 0.5 ms and
    compute-grade moves instead of storage swaps. *)

type result = {
  delivered : int;  (** pairs that entered output memory at target fidelity *)
  distill_attempts : int;
  distill_successes : int;
  horizon : float;
  trace_time : float array;  (** Fig-3 sample times, oldest first *)
  trace_best : float array;
      (** best output infidelity at each sample time; [nan] while the
          output is empty *)
}

(** The scheduler's pair memory: flat weights, timestamps and round counts,
    refreshed in place.  Exposed for the bit-exact tests. *)
module Pool : sig
  type t

  val create : int -> t
  (** An empty memory of the given capacity (at least 1). *)

  val length : t -> int

  val get : t -> int -> Bell_pair.t
  (** Slot [k], newest first. *)

  val push : t -> Bell_pair.t -> since:float -> rounds:int -> unit
  (** Store a pair as the newest, last decayed at [since]. *)

  val refresh : t -> ts:float -> now:float -> unit
  (** Decay every pair whose [since] is before [now] to [now], on storage of
      coherence [ts]: bit for bit {!Bell_pair.decay} with [t1 = t2 = ts]. *)

  val pairing_score : t -> int -> int -> float
  (** The scheduler's score of pairing slots [i] and [j]: bit for bit
      {!Bell_pair.dejmps_predicted_fidelity}. *)
end

val run : ?trace_dt:float -> config -> Rng.t -> horizon:float -> result
(** Simulate for [horizon] seconds.  [trace_dt] (default 1 us) sets the
    sampling period of the Fig-3 trace. *)

val delivered_rate_per_ms : result -> float
(** Fig-4 y-axis: distilled pairs at target fidelity per millisecond. *)

val failure_count :
  ?jobs:int -> config -> horizon:float -> min_delivered:int -> shots:int ->
  Rng.t -> int
(** Monte-Carlo delivery-failure count: each shot simulates the module for
    [horizon] seconds and fails when fewer than [min_delivered] pairs reach
    output memory at target fidelity.  Shots run through {!Parallel} with a
    split RNG stream per shot: seed-deterministic at any [jobs] setting. *)

val collect_task : config -> horizon:float -> min_delivered:int -> Collect.Task.t
(** The delivery experiment as a {!Collect} campaign task (kind
    ["distill.delivery"]), identified by the full module configuration (incl.
    the EP source), [horizon], and [min_delivered]. *)
