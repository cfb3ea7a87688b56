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
      the span aggregates and a GC sample as one mergeable document per
      run: the only serialized run state ([--metrics], the run registry,
      each telemetry line, fleet merges).

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

(** Process-level run identity, stamped into every observability artifact
    (snapshots, telemetry lines, Chrome-trace exports) so
    fleet tooling can correlate the artifacts of one run after the fact. *)
module Run : sig
  val id : unit -> string
  (** Stable 64-bit run id as 16 hex digits: a content hash of argv, pid
      and the process start time, computed once per process.
      [HETARCH_RUN_ID] (16 hex digits) overrides it — used by tests and
      fixtures that need reproducible ids. *)

  val started_unix : float
  (** Wall-clock process start, unix seconds. *)

  val set_shard : string -> unit
  (** Set the free-form shard label ("shard0/3", a host name, ...) carried
      by every artifact; empty by default.  Set once at startup. *)

  val shard : unit -> string
end

(** Distributed trace context, W3C-traceparent style: a 128-bit
    [(trace_id, span_id)] pair of 16-hex-digit halves, minted from the run
    id at first use — or inherited from the [HETARCH_TRACE_PARENT]
    environment variable, in which case this process keeps the parent's
    [trace_id], records the parent's [span_id] as [parent_span_id], and
    mints only its own [span_id].  Every process
    of a fleet therefore shares one [trace_id] and the per-process span
    ids form a tree, which is what lets [obs trace-merge] and
    [obs monitor] correlate a coordinator with the shard children it
    forked.  The context is stamped into snapshots (and so into telemetry
    lines) and Chrome-trace metadata events. *)
module Context : sig
  type t = {
    trace_id : string;  (** 16 hex digits, shared fleet-wide *)
    span_id : string;  (** 16 hex digits, unique per process *)
    parent_span_id : string;  (** [""] for a root (unparented) process *)
  }

  val env_var : string
  (** ["HETARCH_TRACE_PARENT"]. *)

  val mint : run_id:string -> t
  (** Root context: both halves are content hashes of the run id, so a
      pinned [HETARCH_RUN_ID] yields a reproducible context. *)

  val child : t -> run_id:string -> t
  (** Inherit [trace_id], record the parent's [span_id] as
      [parent_span_id], mint a fresh [span_id] from [run_id]. *)

  val to_string : t -> string
  (** ["<trace_id>-<span_id>"] — the wire form handed to children. *)

  val of_string : string -> t option
  (** Parse the wire form; [None] unless exactly [<16 hex>-<16 hex>]. *)

  val current : unit -> t
  (** This process's context, computed once on first use: inherited from
      [HETARCH_TRACE_PARENT], else a freshly minted root.  A malformed
      parent string warns on stderr and falls back to minting. *)

  type stamp = { run_id : string; shard : string; ctx : t }
  (** The run identity plus trace context that snapshots and trace
      metadata embed. *)

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
      "args":{"trace_id":…,"depth":…,"path":…,…}}].  [tid] is the
      recording domain, so Perfetto renders one track per domain; nesting
      depth and the caller path travel in [args].  The first line is a
      [ph:"M"] ["hetarch.run"] metadata event carrying {!Context.stamp}
      plus [ts0_unix] — the wall-clock instant of this process's monotonic
      zero, the clock handshake {!Trace_merge} aligns timelines with. *)

  type event
  (** One line of a trace file: a ["hetarch.run"] metadata event, a merged
      trace's ["hetarch.trace_merge"] header, or a span's complete
      ([ph:"X"]) event.  {!export} and {!Trace_merge} write these through
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
  (** The tree of a trace file's spans, every source of a merged trace in
      one tree.  Times are µs-granular; counts, words and shape exact. *)

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

(** Append-only JSONL telemetry heartbeat: one {!Snapshot} document per
    line, the first written at {!enable} and the last by {!disable}.  Before
    each capture the writer sets two gauges: [telemetry.interval_s], its
    throttle interval, and [telemetry.final], 1 on the closing line and 0
    otherwise, so readers can tell a completed stream from a stalled one.
    {!disable} unregisters both after the closing line.  Everything else a heartbeat reports (deltas, rates) {!Monitor} derives
    from consecutive lines.

    Ticks are driven {e synchronously} from [Parallel] chunk boundaries and
    [Collect] batch completions; there is no background thread, so enabling
    telemetry cannot change any computed result.  A disabled tick costs one
    atomic load; an enabled one is throttled to the configured interval. *)
module Telemetry : sig
  val enable : path:string -> interval_s:float -> unit
  (** Open (truncating) [path], write a baseline line, and start accepting
      ticks at most every [interval_s] seconds ([0.] = every tick).
      Re-enabling closes the previous sink first. *)

  val disable : unit -> unit
  (** Write one final forced line and close the sink.  No-op when
      telemetry was never enabled.  Also installed as an [at_exit] hook by
      {!enable}, so a run that exits between ticks (including via [exit]
      deep inside a command) still leaves a complete final heartbeat. *)

  val enabled : unit -> bool

  val tick : ?force:bool -> unit -> unit
  (** Append a line if enabled and the interval has elapsed ([force]
      bypasses the throttle).  Domain-safe. *)
end

(** Complete, content-hashed serialization of one process's obs state
    (schema [hetarch.snapshot/4]) — the only captured run state: what
    [--metrics] writes, what the {!Registry} stores, each line of a
    {!Telemetry} stream, and the unit {!Merge} folds.

    A snapshot carries the {e raw mergeable state}, each fact once: integer
    bucket counts in the one {!Histogram} layout, Welford
    [(count, mean, m2)] triples, per-caller-path aggregates including raw
    allocation words (they reconstruct the profile trie — time and
    allocation — exactly via {!Profile.of_totals}, and the per-name totals
    via {!span_totals}), the GC/process section, and run metadata (run id,
    shard label, trace context, argv, wall span, jobs), plus the campaign
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
    run : Context.stamp;
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

  val gauge : t -> string -> float
  (** A gauge's captured value; [0.] when absent. *)

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
  (** Raises [Failure] on another schema or a malformed document — including
      a histogram whose [counts] do not match the bucket layout in length,
      or with a negative count or overflow. *)

  val content_hash : t -> string
  (** 16-hex-digit hash of the canonical serialization (excluding the
      [content_hash] field itself). *)

  val write : path:string -> t -> unit
  (** Atomic: temp file in the destination directory, then rename — a kill
      mid-write never leaves a torn snapshot. *)

  val load : string -> t
end

(** Deterministic, order-insensitive union of snapshots into one fleet view.

    The sources fold into one {!Snapshot.t} in a canonical order (run id,
    then content hash, duplicates removed) — so the output is
    {e byte-identical} regardless of merge order, merge grouping, or the
    [--jobs] setting of the source processes, even though float addition
    itself is not associative.  Counters, gauges, path aggregates (times
    and allocation words alike) and the process section sum, except the
    peak heap, which takes the max; histograms, all in the one bucket
    layout, bucket-merge and combine Welford states exactly (Chan's
    parallel update).

    The fleet view on disk is a JSON array of the canonical sources'
    snapshot documents; readers recompute the merged state with {!merged}. *)
module Merge : sig
  type t

  val of_snapshots : Snapshot.t list -> t
  val union : t -> t -> t
  (** Commutative, associative and idempotent up to byte equality of
      [to_json]. *)

  val sources : t -> Snapshot.t list
  (** Deduplicated sources in canonical order. *)

  val merged : t -> Snapshot.t
  (** The sources folded into one snapshot.  Its run fields are empty
      except [started_unix] and [wall_seconds], which span the sources'
      window; it has no campaign section. *)

  val to_json : t -> Json.t

  val of_json : Json.t -> t
  (** Accepts a snapshot document or a fleet view (flattened back to its
      sources, so merging merged documents is exact).  Raises [Failure] on
      anything else, including a source {!Snapshot.of_json} refuses. *)
end

(** The run registry under [HETARCH_OBS_DIR]: one snapshot file
    [<dir>/snapshots/<run_id>.json] per recorded run, written atomically.
    The files are the registry — there is no index — so a hand-deleted
    snapshot is simply a run no longer listed, and a run recorded twice
    under one pinned run id is one run. *)
module Registry : sig
  val cmd_of_argv : string list -> string
  (** The command key runs are grouped under: the leading non-flag argv
      words after the executable (e.g. ["collect uec"]), falling back to
      the executable basename. *)

  val set_dir : string option -> unit
  (** Override the registry directory ([Some dir]), or fall back to the
      [HETARCH_OBS_DIR] environment variable ([None], the default). *)

  val dir : unit -> string option
  (** Effective registry directory; [None] disables the registry. *)

  val record : ?dir:string -> Snapshot.t -> string option
  (** Write the snapshot to [<dir>/snapshots/<run_id>.json] (atomically,
      replacing a run of the same id) and return that path; [None] when no
      directory is configured. *)

  val runs : ?dir:string -> unit -> Snapshot.t list * int
  (** Every [*.json] file under [<dir>/snapshots] that decodes, sorted by
      [started_unix], then run id, and the number of [*.json] files that
      do not decode (another schema, a hand-edited or torn file).  Other
      files, such as writer temp files, are ignored.  [([], 0)] without a
      configured directory. *)

  val find : ?dir:string -> string -> string option
  (** The snapshot file of the run whose id starts with the given prefix;
      [None] on no match; raises [Failure] when the prefix matches several
      run ids. *)

  val telemetry_sink : ?dir:string -> string -> string option
  (** [telemetry_sink run_id] creates the telemetry directory and returns
      the stream path for [run_id]; [None] when no registry directory is
      configured. *)
end

(** Reader of {!Telemetry} streams, and the live fleet view over
    [<dir>/telemetry]: one row per stream, from its last complete line.
    [Done] when that line has [telemetry.final] = 1 or the run's registry
    snapshot file exists; [Stalled] when the file has gone untouched for
    [stall_factor × max(telemetry.interval_s, 1 s)] — judged against the
    stream's {e own} declared throttle interval; [Live] otherwise.
    [obs monitor FILE] prints the same row for one stream. *)
module Monitor : sig
  type tick = {
    snap : Snapshot.t;  (** the line itself *)
    seq : int;  (** 0-based index among the stream's complete lines *)
    elapsed_s : float;  (** [wall_seconds] since the first line *)
    dt_s : float;  (** since the previous line; [0.] on the first *)
    deltas : (string * int) list;
        (** counters since the previous line (from zero on the first).  A
            counter that fell was zeroed by {!Obs.reset} in between, and
            counts from zero; one that had already passed its old value by
            the next line reads as growth from it. *)
    gc_minor_delta : int;  (** minor collections since the previous line *)
    minor_words_per_s : float;
        (** minor words allocated since the previous line per second; [0.]
            when [dt_s] is 0 *)
  }
  (** One line of a stream with what consecutive lines imply. *)

  val read : string -> tick list
  (** Every complete line of a stream, in order.  Blank and torn
      (unparsable) lines are skipped; a line that is not a snapshot raises
      [Failure]. *)

  val last : string -> tick option
  (** The stream's last complete line, as {!read} would give it, decoding
      every line but keeping none; [None] for a stream without one. *)

  type status = Live | Stalled | Done

  type row = {
    file : string;  (** telemetry stream path *)
    last : tick;  (** the stream's last complete line *)
    age_s : float;  (** now − file mtime *)
    registered : bool;  (** the run's registry snapshot file exists *)
    rel_halfwidth : float;  (** worst unfinished task; [nan] when none *)
    status : status;
  }

  val stall_factor : float
  (** 5.0 — five missed heartbeats flag a stall. *)

  val row_of_stream : ?registered:bool -> ?now_unix:float -> string -> tick -> row
  (** The row for the stream at [path] whose last line is given;
      [registered] (default false) marks the run done. *)

  val scan : ?now_unix:float -> dir:string -> unit -> row list
  (** One row per stream whose lines all decode as snapshots, sorted
      [(shard, run_id)] so coordinator/shard families group together.
      [now_unix] pins the staleness clock (tests). *)

  val status_string : status -> string
  (** ["live"] / ["stalled"] / ["done"]. *)

  val row_json : row -> Json.t
  (** Machine-readable row, schema [hetarch.monitor/1] — the
      [obs monitor --once] output format. *)
end

(** Cross-process union of Chrome-trace JSONL files into one timeline.

    Each input's [ph:"M"] ["hetarch.run"] metadata event carries
    [ts0_unix] — the wall-clock instant of that process's monotonic
    zero — so per-process clocks align by shifting every event onto the
    earliest process's axis: [ts' = ts + (ts0_unix − min ts0_unix) × 1e6]
    µs.  The minimum is order-independent, sources are deduplicated by
    content hash and sorted canonically (run id, then hash), and each
    source is assigned [pid = canonical index + 1] — so the merged bytes
    are identical for any input ordering, and merging a merge's inputs
    again changes nothing.  The output opens with a
    ["hetarch.trace_merge"] metadata event (schema [hetarch.tracemerge/1])
    followed by each source's re-emitted metadata event (with its
    [clock_offset_us]) and shifted span events. *)
module Trace_merge : sig
  type stats = {
    sources : int;  (** after deduplication *)
    events : int;  (** non-metadata events emitted *)
    orphans : string list;
        (** parent span ids referenced by some source but not present among
            the merged sources' span ids — a shard merged without its
            coordinator *)
  }

  val merge : string list -> string * stats
  (** [merge texts] unions raw trace-file contents into one JSONL
      timeline.  Torn trailing lines in the inputs are skipped; raises
      [Failure] if an event does not decode ({!Trace.event_of_json}) or an
      input has no ["hetarch.run"] metadata event. *)
end

(** The regression judge, over one explicit baseline or registry history.

    The current value of each metric is judged against the {e median} of
    its history with a median-absolute-deviation noise band —
    [limit = median + max(nmad * 1.4826 * MAD, min_pct% of median)].
    The MAD is robust (one historic outlier cannot shift or widen the
    gate), 1.4826·MAD estimates sigma under normal noise, and the
    [min_pct] floor keeps near-deterministic metrics (MAD ≈ 0) from
    flagging on harmless jitter.  A one-point history is a baseline: the
    MAD is 0 and the limit [baseline * (1 + min_pct/100)]; a metric that
    grows from 0 has limit 0, so it gates. *)
module Trend : sig
  type verdict = {
    v_metric : string;
    v_current : float;
    v_median : float;  (** the current value when no history carries it *)
    v_limit : float;  (** regression boundary; [infinity] on thin history *)
    v_samples : int;  (** history points that carried this metric *)
    v_regression : bool;
  }

  val default_nmad : float
  (** 5.0 — flag only ~5-sigma excursions. *)

  val default_min_pct : float
  (** 10%, the floor against registry history. *)

  val default_baseline_pct : float
  (** 20%, the threshold against one explicit baseline. *)

  val metrics_of : Snapshot.t -> (string * float) list
  (** The worse-when-higher metrics of one run, from
      {!Snapshot.span_totals}: span [total_ns] (as [span:<name>]), span
      minor-word totals ([alloc:<name>]) and finite
      histogram means ([hist:<name>.mean]).  For a fleet view pass
      {!Merge.merged}. *)

  val judge :
    ?nmad:float ->
    ?min_pct:float ->
    ?noise_floor_ns:float ->
    ?min_samples:int ->
    history:(string * float) list list ->
    (string * float) list ->
    verdict list
  (** [judge ~history current], one verdict per current metric, sorted by
      name.  A metric carried by fewer than [min_samples] (default 2; 1
      against an explicit baseline) history points is never flagged.
      [noise_floor_ns] (default 0) never flags a metric whose current and
      median values are both below the floor. *)

  val delta_pct : verdict -> float
  (** [100 * (current - median) / median]; [infinity] for a rise from 0,
      [0.] when both are 0. *)

  val regressions : verdict list -> verdict list
  (** The flagged verdicts, largest {!delta_pct} first. *)

  val only_in :
    history:(string * float) list list -> (string * float) list ->
    string list * string list
  (** Metric names found only in the history and only in the current run,
      each sorted. *)
end
