(** Sample-collection campaigns (sinter-style) for Monte-Carlo sweeps.

    A campaign runs a set of {e tasks} — (sampler, description) pairs —
    under adaptive stopping, appending every completed batch to a JSONL
    ledger.  Statistics are keyed by a content hash of the task description
    (code, distance, rounds, decoder, noise model, ...), so a relaunched
    campaign merges the ledger by {e what was sampled} and only collects
    the remaining shortfall.

    Determinism: batch [i] of a task derives its RNG from the campaign
    seed, the task id, and [i] alone, and samplers chunk their shots
    through {!Parallel} — so merged statistics are bit-identical at any
    [--jobs] setting, and a campaign killed partway then resumed produces
    byte-identical merged CSV to an uninterrupted run (same seed and
    stopping settings).  Adaptive stopping is itself deterministic: it is
    evaluated on merged totals after each batch in a fixed round-robin
    order. *)

val hash_hex : string -> string
(** The campaign content hash (hand-rolled 64-bit mix, stable across runs
    and platforms — deliberately not [Hashtbl.hash]), as 16 hex digits. *)

(** A unit of sampling work plus the description that identifies it. *)
module Task : sig
  type t

  val create :
    kind:string ->
    fields:(string * string) list ->
    sample:(Rng.t -> int -> int) ->
    t
  (** [sample rng shots] returns the number of errors observed in [shots]
      fresh shots.  It must be deterministic in [rng] (chunk through
      {!Parallel} for [--jobs] safety) and must not retain state across
      calls: every batch gets an independent stream.  [fields] should
      capture everything that defines the distribution being sampled. *)

  val id : t -> string
  (** 16-hex-digit content hash of [kind] plus the fields sorted by key —
      independent of field order, stable across runs. *)

  val canonical : t -> string
  (** The length-prefixed canonical description string that [id] hashes. *)

  val kind : t -> string
  val fields : t -> (string * string) list

  val sample : t -> Rng.t -> int -> int
  (** Run the task's sampler directly: [sample t rng shots] is the error
      count over [shots] fresh shots.  Exposed for single-task consumers
      (the serve daemon answers one query per request, outside any
      campaign); the determinism contract of [create]'s [sample] applies
      unchanged. *)

  val params_string : t -> string
  (** Sorted ["k=v;k=v"] rendering with CSV delimiters sanitized. *)
end

val batch_rng : seed:int -> id:string -> index:int -> Rng.t
(** The campaign batch RNG: a pure function of (campaign seed, task id,
    batch index) — the heart of resume determinism.  Exposed so other
    entry points (the serve daemon) can reproduce exactly the stream a
    campaign would have used for batch [index] of the task, making their
    answers byte-comparable with campaign ledgers at the same seed. *)

val shard_of : shards:int -> Task.t -> int
(** Deterministic shard assignment for multi-process campaigns: the task's
    content hash modulo [shards].  A pure function of the task description,
    so every process agrees on the split without coordination,
    and adding tasks never moves existing ones.  Raises [Invalid_argument]
    when [shards < 1]. *)

val shard_filter : shards:int -> shard:int -> Task.t list -> Task.t list
(** The tasks {!shard_of} assigns to [shard], preserving input order.
    Raises [Invalid_argument] unless [0 <= shard < shards]. *)

(** Append-only JSONL ledger of batch records. *)
module Ledger : sig
  type record = {
    task_id : string;
    shots : int;
    errors : int;
    seconds : float;
    jobs : int;
    seed : int;
  }

  type writer

  val open_writer : string -> writer
  (** Opens (creating if needed) in append mode. *)

  val append : writer -> record -> unit
  (** One record per line, flushed immediately: a killed process leaves at
      most one truncated final line, which {!replay} skips. *)

  val close : writer -> unit

  val record_to_json : record -> Obs.Json.t
  val record_of_json : Obs.Json.t -> record option
  (** [None] on missing fields or inconsistent counts
      (negative, or [errors > shots]). *)

  type totals = { t_shots : int; t_errors : int; t_seconds : float; t_records : int }

  val no_totals : totals
  val add_totals : totals -> record -> totals

  val replay : string -> (string, totals) Hashtbl.t
  (** Merged per-task totals.  A missing file is an empty ledger; blank and
      unparsable lines (the truncated tail of a killed run) are skipped. *)

  val fold : f:('a -> record -> 'a) -> init:'a -> string -> 'a
end

(** Per-task adaptive stopping rule. *)
type stop_rule = {
  max_shots : int;  (** hard per-task shot ceiling *)
  max_errors : int;  (** stop once this many errors are seen; 0 disables *)
  rel_ci : float;
      (** stop when the relative 95% Wilson half-width drops to this; 0
          disables.  Never fires with zero observed errors, so rare-event
          tasks keep sampling to [max_shots]. *)
  min_shots : int;  (** [rel_ci] is not evaluated below this many shots *)
  batch : int;  (** shots per scheduling batch (= one ledger record) *)
}

val wilson_z : float
(** z-score of the stopping rule's (and CSV's) 95% Wilson interval: 1.96. *)

val default_stop : stop_rule
(** 1M max shots, [max_errors] and [rel_ci] disabled, 100 min shots,
    batches of 1024. *)

type reason = Max_shots | Max_errors | Rel_ci | Halted

val reason_string : reason -> string

type stat = {
  task : Task.t;
  id : string;
  shots : int;  (** merged: replayed + newly sampled *)
  errors : int;
  seconds : float;  (** cumulative sampling seconds (ledger + this run) *)
  resumed_shots : int;  (** shots replayed from the ledger *)
  reason : reason;  (** [Halted] when the campaign stopped first *)
}

type outcome = {
  stats : stat list;  (** one per task, in input order *)
  halted : bool;  (** true iff [halt_after] fired before completion *)
  new_shots : int;  (** shots actually sampled by this run *)
  wall_seconds : float;
}

val run :
  ?ledger:string ->
  ?resume:bool ->
  ?progress:bool ->
  ?stop:stop_rule ->
  ?halt_after:int ->
  seed:int ->
  Task.t list ->
  outcome
(** Run the campaign.  [ledger] appends every batch to that path;
    [resume] additionally replays it first and samples only the shortfall.
    [progress] enables a throttled status line on stderr (auto-disabled
    when stderr is not a TTY).  [halt_after] stops the whole campaign
    after that many ledger appends — a deterministic stand-in for
    [kill -9] used by tests and the CI resume smoke.  Raises
    [Invalid_argument] on duplicate task ids, invalid stopping settings,
    or a sampler returning an error count outside [0, shots].

    Worker fan-out comes from the samplers chunking through {!Parallel};
    set the job count globally ([Parallel.set_jobs] / [--jobs]) — results
    are bit-identical at any setting.

    The campaign registers an [Obs.Snapshot] progress provider (per-task
    shots/errors/Wilson half-width and a rate-based ETA); the provider
    stays registered after the run so the run's snapshot reports the
    completed campaign.  The [--progress] line renders the same
    [Obs.Snapshot.campaign] the snapshot carries. *)

val csv_header : string

val csv : stat list -> string
(** Merged per-task statistics, one line per task in input order:
    [task_id,kind,params,shots,errors,rate,wilson_lo,wilson_hi,stop].
    Excludes wall time, so the bytes depend only on (seed, settings) —
    resumed and uninterrupted campaigns render identically. *)

val write_csv : path:string -> stat list -> unit
