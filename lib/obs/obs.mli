(** Observability: process-global metrics, span tracing, and run snapshots.

    Three layers, all cheap enough to leave permanently enabled:

    - {b metrics} — a global registry of named counters, gauges, and
      fixed-bucket histograms.  The hot path is a mutable-field bump; no
      allocation, no I/O.  Histograms wrap the [Stats] Welford accumulator
      for streaming mean/variance alongside the bucket counts.
    - {b span tracing} — [Trace.with_span] times a scoped computation on
      the monotonic clock and records it into a bounded in-memory ring
      buffer, exportable as Chrome-trace-compatible JSONL.  The ring is
      allocated as spans arrive, so an untraced process keeps none of it.
    - {b run snapshots} — {!Snapshot.capture} records the whole registry,
      the span aggregates and a GC sample as one document per run: the
      only serialized run state ([--metrics]).  Readers ([obs report],
      [obs diff]) decode it; [obs top] reads the trace.

    Metric names follow the [subsystem.noun_unit] convention
    (e.g. [des.events_total], [pauli.dem_sample_seconds]).  Nothing here
    writes to stdout; exporters only run when explicitly invoked, so
    instrumented programs produce byte-identical output unless asked. *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds.  Zero point is arbitrary. *)

val reset : unit -> unit
(** Zero every registered metric in place and clear recorded spans (test
    isolation).  Metric handles stay registered and usable. *)

(** Minimal JSON tree: emitter plus a strict parser, enough to round-trip
    the documents this module writes without external dependencies. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact serialization.  Floats render via ["%.17g"] so parsing the
      output recovers the exact value; [nan] renders as [null]. *)

  val parse : string -> t
  (** Strict parse of one JSON value; raises [Failure] on malformed input
      or trailing garbage. *)

  val member : string -> t -> t option
  (** Field lookup on [Obj]; [None] on missing field or non-object. *)

  val to_float : t -> float
  (** Numeric value of [Int] or [Float]; raises [Failure] otherwise. *)

  val to_int : t -> int
  (** Integer value of [Int], or of a [Float] that is exactly integral
      (within the 53-bit exact range); raises [Failure] otherwise.  JSON
      has one number type, so writers that round-trip through floats may
      deliver integral values as [Float]. *)
end

val fold_jsonl : string -> ('a -> Json.t -> 'a) -> 'a -> 'a
(** Torn-tail-tolerant fold over a JSONL file: blank and unparsable lines
    (the truncated final record a killed — or still-writing — process
    leaves behind) are skipped.  The collect ledger replays through it
    too.  Raises [Sys_error] if the file cannot be opened. *)

(** Process-level run identity, stamped into both artifacts of a run (the
    snapshot and the Chrome-trace export), so the two can be matched after
    the fact.  A process names itself by its run id alone. *)
module Run : sig
  val id : unit -> string
  (** Stable 64-bit run id as 16 hex digits: a content hash of argv, pid
      and the process start time, computed once per process.
      [HETARCH_RUN_ID] (16 hex digits) overrides it — used by tests and
      fixtures that need reproducible ids. *)

  val started_unix : float
  (** Wall-clock process start, unix seconds. *)

  val set_shard : string -> unit
  (** Set the shard label (["shard0/3"]) carried by both artifacts; empty
      by default.  [collect --shard] sets it once at startup. *)

  val shard : unit -> string

  type stamp = { run_id : string; shard : string }
  (** The run identity that snapshots and trace metadata embed. *)

  val stamp : unit -> stamp
  (** This process's stamp. *)
end

(** Monotonically increasing integer metric. *)
module Counter : sig
  type t

  val create : string -> t
  (** Registers (or retrieves — names are interned) the counter. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val name : t -> string
end

(** Last-written (or high-water) float metric. *)
module Gauge : sig
  type t

  val create : string -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val set_max : t -> float -> unit
  (** Keep the running maximum: [set] only if the new value is greater. *)

  val value : t -> float
  val name : t -> string
end

(** Fixed-bucket histogram with streaming Welford mean/variance. *)
module Histogram : sig
  type t

  val bounds : unit -> float array
  (** A fresh copy of the one bucket layout every histogram uses: 34
      log-spaced upper bounds, thirds of a decade from 1 ns to 100 s,
      suited to durations in seconds.  Samples above the last bound land in
      an overflow bucket. *)

  val create : string -> t
  (** Registers (or retrieves — names are interned) the histogram. *)

  val observe : t -> float -> unit
  (** The one write path; a histogram is read through a
      {!Snapshot.capture}. *)

  val name : t -> string
end

(** Timed, nested spans in a bounded ring buffer that grows on demand. *)
module Trace : sig
  type span = {
    name : string;
    start_ns : int64;  (** relative to process start of tracing *)
    dur_ns : int64;
    depth : int;  (** 0 = root; nesting depth at entry *)
    domain : int;  (** id of the domain that recorded the span *)
    path : string;
        (** caller path including the span itself, [";"]-separated — e.g.
            ["cmd.fig6;qec.logical_error_rate"].  Spans recorded inside
            [Parallel] tasks inherit the submitting caller's path, so paths
            are identical at any job count.  Span names should therefore
            avoid [';']. *)
    minor_w : int;
        (** minor-heap words allocated on the recording domain inside the
            span window ([Gc.quick_stat] delta between entry and exit,
            clamped >= 0).  Exact, not sampled: word counters are
            mutator-maintained.  Includes the constant cost of the entry
            sample's own stat record. *)
    promoted_w : int;  (** words promoted minor→major inside the window *)
    major_w : int;
        (** words allocated directly on the major heap, as the runtime
            counts them at collections: a window with a collection inside
            can hold direct allocations made before it opened, the span
            ring's growth among them (see {!set_capacity}) *)
    attrs : (string * string) list;
  }

  val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** Run the thunk, record a completed span (also on exception, which is
      re-raised).  Spans closed after the ring fills overwrite the oldest.
      Entry/exit sample the domain-local GC word counters, so every span
      carries its own allocation alongside its duration.  The first root
      (depth 0) span of the process also sets the gauge
      [process.startup_minor_words] to the minor words allocated before it
      opened, which no span attributes. *)

  val spans : unit -> span list
  (** Retained spans, in completion order: all of them until the ring's
      capacity is reached, then the newest [capacity]. *)

  val recorded : unit -> int
  (** Total spans ever recorded, including those evicted from the ring. *)

  val by_path : unit -> (string * int * int64 * int * int * int) list
  (** Per-caller-path [(path, count, total_ns, minor_w, promoted_w,
      major_w)] aggregates over {e all} spans, sorted by path; unaffected
      by ring eviction.  The profiler's input. *)

  val set_capacity : int -> unit
  (** Set the ring's bound (clears retained spans); default 65536.  It
      allocates nothing: the ring starts empty, takes 512 slots (or the
      bound, if smaller) at the first span and doubles as spans arrive, up
      to the bound, then wraps.  A process that records no span keeps no
      ring.  From 512 slots up each array goes straight to the major heap,
      so growth never shows in a span's [minor_w]. *)

  val export : path:string -> unit
  (** Write retained spans ({!spans}: at most the ring's capacity, the
      newest ones) as JSONL, one Chrome-trace complete event per
      line: [{"name":…,"ph":"X","ts":µs,"dur":µs,"pid":0,"tid":domain,
      "args":{"depth":…,"path":…,…}}].  [tid] is the
      recording domain, so Perfetto renders one track per domain; nesting
      depth and the caller path travel in [args].  The first line is a
      [ph:"M"] ["hetarch.run"] metadata event carrying {!Run.stamp}. *)

  type event
  (** One line of a trace file: the ["hetarch.run"] metadata event or a
      span's complete ([ph:"X"]) event.  {!export} writes these through
      {!event_to_json}; every reader goes through {!event_of_json}. *)

  val event_to_json : event -> Json.t

  val event_of_json : Json.t -> event
  (** Strict: raises [Failure] on any other line, or an event missing a
      field its writer always sets (for a span, [args.path] and the three
      word counts among them). *)

  val read : string -> event list
  (** Every event of a trace file, in order.  A torn (unparsable) line is
      skipped; an event that does not decode raises [Failure]. *)
end

(** Call-tree profiler over caller-path-keyed span aggregates.

    Cumulative time is summed per exact caller path; {e self} time is
    cumulative minus the cumulative time of direct children, so self times
    telescope — summed over the whole tree they equal the root spans'
    cumulative time exactly (up to clamping of clock jitter).  Minor-word
    allocation telescopes by the identical rule ([self_w] = [cum_w] minus
    direct children's [cum_w]), attributing every allocated word to the
    innermost span that allocated it.  All renderings sort
    lexicographically by path and are therefore deterministic regardless of
    span completion order across domains. *)
module Profile : sig
  type node = {
    path : string;  (** full [";"]-separated caller path *)
    name : string;  (** leaf segment of [path] *)
    count : int;
    cum_ns : int64;
    self_ns : int64;  (** [cum_ns] minus direct children's [cum_ns], >= 0 *)
    cum_w : int;  (** cumulative minor words under this path *)
    self_w : int;
        (** [cum_w] minus direct children's [cum_w], clamped >= 0 (a parent
            whose children ran on other domains never saw their words) *)
    children : node list;  (** sorted by name *)
  }

  val tree : unit -> node list
  (** Roots of the call tree aggregated from {!Trace.by_path}. *)

  val of_totals : (string * int * int64 * int * int * int) list -> node list
  (** Build a tree from explicit [(path, count, total_ns, minor_w,
      promoted_w, major_w)] aggregates, e.g. re-aggregated from an exported
      trace file.  Paths appearing without their parent produce implicit
      zero-count interior nodes. *)

  val of_events : Trace.event list -> node list
  (** The tree of a trace file's spans.  Times are µs-granular; counts,
      words and shape exact. *)

  val folded : ?weight:[ `Self | `Count | `Alloc ] -> node list -> string
  (** Folded-stack text ([root;child;leaf weight], one line per node with a
      positive weight, sorted by path) — the input format of flamegraph.pl
      and speedscope.  The weight is the self quantity of the same key
      {!top} ranks by: [`Self] (default) self nanoseconds;
      [`Count] span count, which is byte-identical across
      [--jobs] settings for a deterministic workload; [`Alloc] self
      minor words — exact counts, byte-identical across runs and
      [--jobs] for workloads whose spans execute sequentially. *)

  val top :
    ?sort:[ `Self | `Cum | `Count | `Alloc ] -> ?limit:int -> node list -> node list
  (** Flattened nodes ranked descending by the sort key — self time
      (default), cumulative time, span count, or self minor words — with
      path as tiebreak. *)

  val top_table :
    ?sort:[ `Self | `Cum | `Count | `Alloc ] -> ?limit:int -> node list -> string
  (** Rendered table (self ms, count, cumulative ms, self%, self words,
      path); [limit] defaults to 20, [sort] to self time. *)
end

(** Complete, content-hashed serialization of one process's obs state
    (schema [hetarch.snapshot/6]) — the only captured run state: what
    [--metrics] writes, and what [obs report] and [obs diff] read.

    A snapshot carries the {e raw state}, each fact once: integer
    bucket counts in the one {!Histogram} layout, Welford
    [(count, mean, m2)] triples, per-caller-path aggregates including raw
    allocation words (they reconstruct the profile trie — time and
    allocation — exactly via {!Profile.of_totals}, and the per-name totals
    via {!span_totals}), the GC/process section, and run metadata (run id,
    shard label, argv, wall span, jobs), plus the campaign
    progress section while a provider is set ({!set_campaign}).  Derived
    quantities (quantiles, variance, rates, per-name totals) are left to
    readers.

    Serialization is canonical — sections sorted by name, floats emitted in
    round-tripping form — so [of_json] ∘ [to_json] is the identity and the
    content hash (computed over the serialization minus the hash field
    itself) is well defined.  The record type is exposed so tests can
    build synthetic snapshots. *)
module Snapshot : sig
  type hist = {
    h_counts : int array;  (** raw counts, one per bound of {!Histogram.bounds} *)
    h_overflow : int;
    h_count : int;
    h_mean : float;
    h_m2 : float;  (** Welford sum of squared deviations from the mean *)
    h_min : float;  (** [infinity] when empty *)
    h_max : float;  (** [neg_infinity] when empty *)
  }

  type process = {
    p_minor_collections : int;
    p_major_collections : int;
    p_compactions : int;
    p_minor_words : float;
    p_promoted_words : float;
    p_major_words : float;
    p_heap_words : int;
    p_top_heap_words : int;
  }

  type task_progress = {
    tp_id : string;
    tp_kind : string;
    tp_shots : int;
    tp_errors : int;
    tp_resumed : int;  (** shots replayed from a ledger; not serialized *)
    tp_rel_halfwidth : float;  (** [nan] when undefined (zero errors) *)
    tp_remaining : int;  (** shots to the task's ceiling; 0 once stopped *)
    tp_done : bool;
  }

  type campaign = {
    c_done : int;
    c_total : int;
    c_shots : int;  (** merged, including resumed *)
    c_new_shots : int;  (** sampled by this run *)
    c_rate : float;  (** new shots per second *)
    c_remaining : int;
    c_eta_s : float option;
    c_tasks : task_progress list;
  }

  type t = {
    run : Run.stamp;
    argv : string list;
    started_unix : float;
    wall_seconds : float;
    jobs : int;
    counters : (string * int) list;  (** sorted by name *)
    gauges : (string * float) list;
    histograms : (string * hist) list;
    paths : (string * int * int64 * int * int * int) list;
        (** profile trie: (path, count, total_ns, minor_w, promoted_w,
            major_w), sorted by path *)
    process : process;
    campaign : campaign option;
        (** written only when present; a decoded task's [tp_resumed] is 0 *)
  }

  val schema : string

  val capture : unit -> t
  (** Snapshot the whole registry plus trace aggregates, process stats,
      run metadata and the campaign provider's progress.  The GC/process
      section is sampled first, so the capture's own allocation stays out
      of it.  Histograms are read under their locks; domain-safe. *)

  val quantile : hist -> float -> float
  (** [quantile h q] for [q] in [0, 1]: bucket-interpolated estimate (linear
      within the bucket holding rank [q * count], edges clamped to the
      observed min/max).  With a single sample — or when every sample was
      the same value — returns that exact value.  [nan] when empty; raises
      [Invalid_argument] on [q] outside [0, 1]. *)

  val span_totals : t -> (string * int * int64 * int * int * int) list
  (** Per-name [(name, count, total_ns, minor_w, promoted_w, major_w)]
      totals, sorted by name: [paths] grouped by each path's last segment,
      the span's own name.  Taken from a capture, they cover {e all} spans,
      unaffected by ring eviction. *)

  val set_campaign : (unit -> task_progress list) option -> unit
  (** Register (or clear) the campaign progress provider and restart the
      campaign clock.  {!capture} and {!campaign} call the provider; it
      must be cheap and domain-safe. *)

  val campaign : unit -> campaign option
  (** Aggregate the provider's current task list into campaign totals, rate
      and ETA — the single code path behind both the captured section and
      the collect [--progress] line.  [None] when no provider is set. *)

  val to_json : t -> Json.t
  val of_json : Json.t -> t
  (** Raises [Failure] on anything but a JSON object, another schema or a
      malformed document — including a histogram whose [counts] do not
      match the bucket layout in length, or with a negative count or
      overflow. *)

  val content_hash : t -> string
  (** 16-hex-digit hash of the canonical serialization (excluding the
      [content_hash] field itself). *)

  val write : path:string -> t -> unit
  (** Atomic: temp file in the destination directory, then rename — a kill
      mid-write never leaves a torn snapshot. *)

  val load : string -> t
end

(** The regression judge: one run against one baseline run.  A metric
    regresses when its current value exceeds
    [baseline * (1 + threshold_pct/100)]; a metric that grows from 0 has
    limit 0, so it regresses at any threshold. *)
module Trend : sig
  type verdict = {
    v_metric : string;
    v_baseline : float;
    v_current : float;
    v_limit : float;  (** regression boundary *)
    v_regression : bool;
  }

  val default_threshold_pct : float
  (** 20%. *)

  val metrics_of : Snapshot.t -> (string * float) list
  (** The worse-when-higher metrics of one run, from
      {!Snapshot.span_totals}: span [total_ns] (as [span:<name>]), span
      minor-word totals ([alloc:<name>]) and finite histogram means
      ([hist:<name>.mean]). *)

  val judge :
    ?threshold_pct:float ->
    ?noise_floor_ns:float ->
    baseline:(string * float) list ->
    (string * float) list ->
    verdict list
  (** [judge ~baseline current], one verdict per metric both runs carry,
      sorted by name.  [threshold_pct] defaults to
      {!default_threshold_pct}; [noise_floor_ns] (default 0) never flags a
      [span:] metric whose current and baseline times are both below the
      floor.  It applies to span times only: [alloc:] word counts and
      [hist:] means are judged on the threshold alone. *)

  val delta_pct : verdict -> float
  (** [100 * (current - baseline) / baseline]; [infinity] for a rise from
      0, [0.] when both are 0. *)

  val regressions : verdict list -> verdict list
  (** The flagged verdicts, largest {!delta_pct} first. *)

  val only_in :
    baseline:(string * float) list -> (string * float) list -> string list * string list
  (** Metric names found only in the baseline and only in the current run,
      each sorted. *)
end
