(** Timed execution of the six-step code-teleportation protocol (Fig. 10).

    {!Teleport} composes the CT state's *error*; this module composes its
    *time*: EPs arrive stochastically from the distillation sub-module,
    while the CAT growth, the two logical |+> preparations and the
    transversal/measurement stages take characterized, fixed durations, and
    successive CT preparations pipeline through the module set.  Output:
    CT-state throughput and latency — the module-level performance metrics
    (execution time, concurrency) the paper's §2 says every module must
    expose. *)

type stage_times = {
  ep_period : float;  (** mean seconds between distilled-EP deliveries *)
  eps_needed : int;  (** EPs consumed per CT state (remote gate + verify) *)
  cat_time : float;  (** CAT growth + verification in the SeqOp cells *)
  plus_time_a : float;  (** logical |+> preparation on UEC A (2 rounds) *)
  plus_time_b : float;
  transversal_time : float;  (** CAT-to-code transversal CNOT stage *)
  meas_time : float;  (** logical measurement (one UEC round) *)
}

val characterize :
  ?params:Teleport.params -> code_a:Code.t -> code_b:Code.t -> ts:float ->
  Rng.t -> stage_times
(** Characterize each sub-module once (the DSE pattern): the EP period from
    a short calibration run of the distillation module, everything else from
    the UEC schedule model. *)

type result = {
  produced : int;  (** CT states completed within the horizon *)
  mean_latency : float;  (** seconds from first EP request to completion *)
  max_latency : float;
  horizon : float;
}

val run : stage_times -> Rng.t -> horizon:float -> result
(** Pipelined execution up to [horizon] seconds.  EP collection is the one
    serial stage and the only random one: a preparation collects
    [eps_needed] EPs (at least one), one exponential gap of mean
    [ep_period] each, and the next preparation starts collecting one more
    gap later.  Once a preparation's EPs are in, CAT generation and the two
    |+> preparations run in parallel; the transversal stage waits for all
    three and measurement completes the state.  No other hardware is
    modelled as busy, so any number of preparations may be past collection
    at once.  A state counts if it completes by [horizon].

    [ep_period = infinity] means no EPs arrive (nothing is produced).
    Raises [Invalid_argument] unless [horizon] is positive and finite,
    [ep_period > 0] and every stage time is [>= 0] (NaN included). *)

val throughput_per_ms : result -> float
