(** Deterministic multicore executor (Domain pool).

    Fans tasks and chunked Monte-Carlo shot batches across OCaml 5 domains.
    Determinism contract: the work decomposition — chunk layout, the
    per-chunk [Rng.split] streams, and the merge order — depends only on the
    problem size and the master RNG, never on the job count.  A given seed
    therefore produces bit-identical results at any [jobs] setting; jobs
    only decide which domain executes each task.

    Tasks must not share mutable state (beyond domain-safe sinks such as
    [Obs] metrics); decoders and other read-only structures may be shared. *)

val jobs : unit -> int
(** Current global job count.  Initialised from [HETARCH_JOBS] (clamped to
    [1, 64]; malformed values fall back to 1), default 1. *)

val set_jobs : int -> unit
(** Override the global job count (e.g. from a [--jobs] CLI flag). *)

val run : ?jobs:int -> (unit -> 'a) array -> 'a array
(** Execute every thunk, result [i] from task [i] regardless of which domain
    ran it.  [jobs = 1] (the default with no override) runs inline with no
    domain spawns.  A [run] called from inside a task of a multi-domain
    [run] also runs inline, whatever its [jobs]: nested fan-outs never
    spawn domains.  The first task exception is re-raised after all domains
    join. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list

val split_rngs : Rng.t -> int -> Rng.t array
(** [split_rngs rng n] takes [n] sequential splits in fixed order. *)

val default_chunk : int
(** Shots per Monte-Carlo chunk (256): one chunk = one RNG split = one unit
    of scheduling. *)

val chunk_count : int -> int
(** [chunk_count shots] is the number of chunks {!monte_carlo} cuts [shots]
    into, and so the number of [Rng.split] draws it takes from its master
    generator.  A caller that fans out work sharing one master stream uses
    it to know where each piece's stream starts. *)

val monte_carlo :
  ?jobs:int ->
  rng:Rng.t ->
  shots:int ->
  init:'a ->
  merge:('a -> 'a -> 'a) ->
  (Rng.t -> int -> 'a) ->
  'a
(** [monte_carlo ~rng ~shots ~init ~merge f] splits [shots] into
    {!default_chunk}-shot chunks, runs [f chunk_rng chunk_shots] per chunk
    (possibly across domains), and folds the partial results with [merge]
    in chunk order. *)

val monte_carlo_count :
  ?jobs:int -> rng:Rng.t -> shots:int -> (Rng.t -> int -> int) -> int
(** [monte_carlo] specialised to summed integer counts. *)

val stats : unit -> int * int
(** [(tasks_run, domains_spawned)] process totals, for observability. *)

val queue_stats : unit -> int * int
(** [(queue_remaining, busy_domains)] instantaneous gauges: tasks submitted
    to in-flight {!run} calls but not yet claimed by a domain, and domains
    currently executing tasks (the submitting domain counts while it works
    its own share).  The serve daemon's [stats] reply reads these; both
    return to zero once every [run] exits, including on the exception
    path. *)

val task_context : (unit -> unit -> unit) ref
(** Upward hook for layers above this library (installed by [Obs]).  Called
    once in the submitting domain per {!run}; the returned closure is called
    once in each worker domain before it claims tasks.  Used to propagate
    the caller's span path so traces nest identically at any job count.
    Default: no-op. *)
