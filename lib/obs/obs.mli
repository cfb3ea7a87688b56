(** Observability: process-global metrics, span tracing, and run snapshots.

    Three layers, all cheap enough to leave permanently enabled:

    - {b metrics} — a global registry of named counters, gauges, and
      fixed-bucket histograms.  The hot path is a mutable-field bump; no
      allocation, no I/O.  Histograms wrap the [Stats] Welford accumulator
      for streaming mean/variance alongside the bucket counts.
    - {b span tracing} — [Trace.with_span] times a scoped computation on
      the monotonic clock and records it into a bounded in-memory ring
      buffer, exportable as Chrome-trace-compatible JSONL.
    - {b run snapshots} — {!Snapshot.capture} records the whole registry,
      the span aggregates and a GC sample as one mergeable document per
      run: the only serialized run state ([--metrics], the run registry,
      fleet merges).

    Metric names follow the [subsystem.noun_unit] convention
    (e.g. [des.events_total], [pauli.decode_seconds.uf]).  Nothing here
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
    (snapshots, telemetry records, Chrome-trace exports) so
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
    forked.  The context is stamped into telemetry records, Chrome-trace
    metadata events, and snapshots. *)
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
  (** The run identity plus trace context that snapshots, telemetry
      records and trace metadata embed. *)

  val stamp : unit -> stamp
  (** This process's stamp. *)

  val stamp_to_json : stamp -> Json.t
  (** [{"id", "shard", "trace_id", "span_id", "parent_span_id"}]. *)
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

  val default_buckets : float array
  (** Log-spaced upper bounds from 1 ns to 100 s — suited to durations in
      seconds, the common case here. *)

  val create : ?buckets:float array -> string -> t
  (** [buckets] are strictly increasing upper bounds; samples above the
      last bound land in an overflow bucket.  Interned by name; [buckets]
      is ignored when the name already exists. *)

  val observe : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float

  val quantile : t -> float -> float
  (** [quantile t q] for [q] in [0, 1]: bucket-interpolated estimate (linear
      within the bucket holding rank [q * count], edges clamped to the
      observed min/max).  With a single sample — or when every sample was
      the same value — returns that exact value.  [nan] when empty; raises
      [Invalid_argument] on [q] outside [0, 1]. *)

  val min_value : t -> float
  (** [infinity] when empty. *)

  val max_value : t -> float
  (** [neg_infinity] when empty. *)

  val bucket_counts : t -> (float * int) array
  (** [(upper_bound, count)] pairs, in bound order, excluding overflow. *)

  val overflow : t -> int
  val name : t -> string
end

(** Timed, nested spans in a bounded ring buffer. *)
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
    major_w : int;  (** words allocated directly on the major heap *)
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
  (** Retained spans, in completion order. *)

  val recorded : unit -> int
  (** Total spans ever recorded, including those evicted from the ring. *)

  val summaries : unit -> (string * int * int64 * int * int * int) list
  (** Per-name [(name, count, total_ns, minor_w, promoted_w, major_w)]
      aggregates over {e all} spans, sorted by name: {!by_path} grouped by
      each path's last segment, the span's own name. *)

  val by_path : unit -> (string * int * int64 * int * int * int) list
  (** Per-caller-path [(path, count, total_ns, minor_w, promoted_w,
      major_w)] aggregates over {e all} spans, sorted by path; unaffected
      by ring eviction.  The profiler's input. *)

  val set_capacity : int -> unit
  (** Resize the ring (clears retained spans); default 65536. *)

  val export : path:string -> unit
  (** Write retained spans as JSONL, one Chrome-trace complete event per
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

  val folded : ?weight:[ `Self_ns | `Count | `Self_alloc ] -> node list -> string
  (** Folded-stack text ([root;child;leaf weight], one line per node with a
      positive weight, sorted by path) — the input format of flamegraph.pl
      and speedscope.  [`Self_ns] (default) weights by self nanoseconds;
      [`Count] weights by span count, which is byte-identical across
      [--jobs] settings for a deterministic workload; [`Self_alloc] weights
      by self minor words — exact counts, byte-identical across runs and
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

(** Append-only JSONL telemetry heartbeat, schema [hetarch.telemetry/4]:
    one {!record} per tick, the last one marked [final] so readers can tell
    a completed stream from a stalled one.  A record is the delta of two
    {!Snapshot.capture}s, its own and the previous record's: counters and
    their deltas from [counters], GC deltas and heap from [process], queue
    depth and busy domains from the [parallel.*] gauges.  Seq 0 and the
    first record after [Obs.reset] take counter deltas from zero and GC
    deltas from the moment of the enable or reset.

    Ticks are driven {e synchronously} from [Parallel] chunk boundaries and
    [Collect] batch completions; there is no background thread, so enabling
    telemetry cannot change any computed result.  A disabled tick costs one
    atomic load; an enabled one is throttled to the configured interval. *)
module Telemetry : sig
  type task_progress = {
    tp_id : string;
    tp_kind : string;
    tp_shots : int;
    tp_errors : int;
    tp_resumed : int;  (** shots replayed from a ledger *)
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

  type record = {
    run : Context.stamp;
    seq : int;
    elapsed_s : float;
    dt_s : float;  (** since the previous record; [0.] for seq 0 *)
    interval_s : float;  (** the writer's declared throttle interval *)
    counters : (string * int) list;
    deltas : (string * int) list;  (** since the previous record, >= 0 *)
    rates : (string * float) list;  (** per second, positive deltas only *)
    gc_minor_delta : int;
    gc_major_delta : int;
    gc_minor_words_delta : int;
    gc_heap_words : int;
    gc_top_heap_words : int;
    queue_depth : int;
    busy_domains : int;
    campaign : campaign option;
    final : bool;  (** the stream's closing record *)
  }
  (** One line of the stream.  [tp_resumed] is not serialized: a decoded
      task carries [0]. *)

  val to_json : record -> Json.t
  (** The line {!tick} and {!disable} write. *)

  val of_json : Json.t -> record
  (** Inverse of {!to_json} (byte-equal on re-encoding).  Strict: raises
      [Failure] unless the schema is [hetarch.telemetry/4] and every
      section the writer always emits is present and well typed. *)

  val enable : path:string -> interval_s:float -> unit
  (** Open (truncating) [path], write a baseline record (seq 0), and start
      accepting ticks at most every [interval_s] seconds ([0.] = every
      tick).  Re-enabling closes the previous sink first. *)

  val disable : unit -> unit
  (** Write one final forced record and close the sink.  No-op when
      telemetry was never enabled.  Also installed as an [at_exit] hook by
      {!enable}, so a run that exits between ticks (including via [exit]
      deep inside a command) still leaves a complete final heartbeat. *)

  val enabled : unit -> bool

  val tick : ?force:bool -> unit -> unit
  (** Append a record if enabled and the interval has elapsed ([force]
      bypasses the throttle).  Domain-safe. *)

  val set_campaign : (unit -> task_progress list) option -> unit
  (** Register (or clear) the campaign progress provider and restart the
      campaign clock.  The provider is called at each tick and by
      {!campaign_snapshot}; it must be cheap and domain-safe. *)

  val campaign_snapshot : unit -> campaign option
  (** Aggregate the provider's current task list into campaign totals, rate
      and ETA — the single code path behind both the telemetry records and
      the collect [--progress] line.  [None] when no provider is set. *)
end

(** Snapshot comparison: a perf-regression gate.

    Extracts the worse-when-higher metrics of two parsed snapshot or fleet
    documents — span [total_ns], span minor-word totals (as
    [alloc:<name>]) and histogram means — and flags relative regressions
    past a threshold.  The alloc
    metrics feed the {!Trend} watchdog, so allocation regressions gate like
    time ones. *)
module Diff : sig
  type entry = {
    metric : string;
    a : float;
    b : float;
    pct : float;  (** [100 * (b - a) / a]; [0.] when both sides are zero *)
    regression : bool;
  }

  type result = {
    entries : entry list;  (** metric intersection, sorted by name *)
    regressions : entry list;  (** past the threshold, worst first *)
    only_a : string list;  (** metrics present only in the first document *)
    only_b : string list;
  }

  val default_threshold_pct : float
  (** 20%. *)

  val metrics_of : Json.t -> (string * float) list
  (** Raises [Failure] on an unrecognized schema. *)

  val compare_docs :
    ?threshold_pct:float ->
    ?noise_floor_ns:float ->
    Json.t ->
    Json.t ->
    result
  (** [compare_docs a b] treats [a] as the baseline.

      [noise_floor_ns] (default 0): metrics whose baseline and current
      values are both below the floor stay listed but are never flagged
      as regressions — relative thresholds are meaningless under the
      machine's scheduling noise. *)
end

(** Complete, content-hashed serialization of one process's obs state
    (schema [hetarch.snapshot/3]) — the only captured run state: what
    [--metrics] writes, what the {!Registry} stores, and the unit {!Merge}
    folds.

    A snapshot carries the {e raw mergeable state}: integer bucket counts,
    Welford [(count, mean, m2)] triples, per-span-name and per-caller-path
    aggregates including raw allocation words (the path aggregates
    reconstruct the profile trie — time and allocation — exactly via
    {!Profile.of_totals}), the GC/process section, and run metadata (run
    id, shard label, trace context, argv, wall span, jobs).  Derived
    quantities (quantiles, variance) are left to readers.

    Serialization is canonical — sections sorted by name, floats emitted in
    round-tripping form — so [of_json] ∘ [to_json] is the identity and the
    content hash (computed over the serialization minus the hash field
    itself) is well defined.  The record type is exposed so tests can
    build synthetic snapshots. *)
module Snapshot : sig
  type hist = {
    h_bounds : float array;  (** bucket upper bounds, as configured *)
    h_counts : int array;  (** raw per-bucket counts *)
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

  type t = {
    run : Context.stamp;
    argv : string list;
    started_unix : float;
    wall_seconds : float;
    jobs : int;
    counters : (string * int) list;  (** sorted by name *)
    gauges : (string * float) list;
    histograms : (string * hist) list;
    spans : (string * int * int64 * int * int * int) list;
        (** (name, count, total_ns, minor_w, promoted_w, major_w) *)
    paths : (string * int * int64 * int * int * int) list;
        (** profile trie, keyed by path; same aggregate shape *)
    process : process;
  }

  val schema : string

  val capture : unit -> t
  (** Snapshot the whole registry plus trace aggregates, process stats and
      run metadata.  The GC/process section is sampled first, so the
      capture's own allocation stays out of it.  Histograms are read under
      their locks; domain-safe. *)

  val quantile : hist -> float -> float
  (** Bucket-interpolated quantile, the same estimate {!Histogram.quantile}
      gives for the live histogram. *)

  val to_json : t -> Json.t
  val of_json : Json.t -> t
  (** Raises [Failure] on another schema or a malformed document — including
      a histogram whose [counts] and [bounds] differ in length, whose
      bounds do not strictly increase, or with a negative count. *)

  val content_hash : t -> string
  (** 16-hex-digit hash of the canonical serialization (excluding the
      [content_hash] field itself). *)

  val write : path:string -> t -> unit
  (** Atomic: temp file in the destination directory, then rename — a kill
      mid-write never leaves a torn snapshot. *)

  val load : string -> t
end

(** Deterministic, order-insensitive union of snapshots into one fleet view
    (schema [hetarch.fleet/4]).

    The sources fold into one {!Snapshot.t} in a canonical order (run id,
    then content hash, duplicates removed) — so the output is
    {e byte-identical} regardless of merge order, merge grouping, or the
    [--jobs] setting of the source processes, even though float addition
    itself is not associative.  Counters, gauges, span/path aggregates
    (times and allocation words alike) and the process section sum, except
    the peak heap, which takes the max; histograms bucket-merge and combine
    Welford states exactly (Chan's parallel update), raising [Failure] on
    mismatched bucket bounds.

    The fleet document is the merged snapshot's state sections plus
    [runs], [window], [attribution] (run, shard, trace id, content hash,
    start, wall, jobs per source) and the embedded [sources]. *)
module Merge : sig
  type t

  val schema : string
  val of_snapshots : Snapshot.t list -> t
  val union : t -> t -> t
  (** Commutative, associative and idempotent up to byte equality of
      [to_json]. *)

  val sources : t -> Snapshot.t list
  (** Deduplicated sources in canonical order. *)

  val merged : t -> Snapshot.t
  (** The sources folded into one snapshot.  Its run fields are empty
      except [started_unix] and [wall_seconds], which span the sources'
      window. *)

  val to_json : t -> Json.t

  val of_json : Json.t -> t
  (** Accepts a snapshot document or a fleet document (flattened back to
      its sources, so merging merged documents is exact). *)
end

(** Append-only run registry under [HETARCH_OBS_DIR].

    Layout: [<dir>/snapshots/<run_id>.json] (atomic writes) plus
    [<dir>/index.jsonl] with one line per recorded run.  Appends are
    single flushed lines, so concurrent shard processes interleave whole
    records; replay skips blank and torn lines like the collect ledger. *)
module Registry : sig
  type entry = {
    e_run_id : string;
    e_shard : string;
    e_trace : string;  (** trace_id *)
    e_cmd : string;  (** leading non-flag argv words, e.g. ["collect uec"] *)
    e_file : string;  (** snapshot file name relative to [<dir>/snapshots] *)
    e_hash : string;  (** snapshot content hash *)
    e_unix : float;  (** run start, unix seconds *)
  }

  val cmd_of_argv : string list -> string
  (** The command key index entries group runs under: the leading non-flag
      argv words after the executable (e.g. ["collect uec"]), falling back
      to the executable basename. *)

  val set_dir : string option -> unit
  (** Override the registry directory ([Some dir]), or fall back to the
      [HETARCH_OBS_DIR] environment variable ([None], the default). *)

  val dir : unit -> string option
  (** Effective registry directory; [None] disables the registry. *)

  val record : ?dir:string -> Snapshot.t -> entry option
  (** Write the snapshot into the registry and append an index entry.
      [None] when no directory is configured. *)

  val entries : ?dir:string -> unit -> entry list
  (** Index entries in append order; [] without a configured directory.
      Torn lines and entries whose run id or hash is not 16 hex digits are
      skipped. *)

  val load : ?dir:string -> entry -> Snapshot.t

  val find : ?dir:string -> string -> entry option
  (** Latest entry whose run id starts with the given prefix; [None] on no
      match; raises [Failure] when the prefix matches several run ids. *)

  val telemetry_sink : ?dir:string -> string -> string option
  (** [telemetry_sink run_id] creates the telemetry directory and returns
      the stream path for [run_id]; [None] when no registry directory is
      configured. *)

  val snapshot_exists : ?dir:string -> entry -> bool
  (** Whether the entry's snapshot file is still on disk (hand-deleted
      snapshots leave dangling index lines behind). *)

  val prune : ?dir:string -> unit -> int * int
  (** Compact [index.jsonl] down to entries whose snapshot file exists.
      The rewrite is atomic (temp file + rename).  Returns
      [(kept, dropped)]; [(0, 0)] without a configured directory. *)
end

(** Live fleet view over [<dir>/telemetry]: one row per heartbeat
    stream, from its last complete record.  [Done] when that record is
    [final] or the run has reached [index.jsonl]; [Stalled] when the file
    has gone untouched for [stall_factor × max(interval_s, 1 s)] — judged
    against the stream's {e own} declared throttle interval; [Live]
    otherwise.  [obs tail] prints the same verdict. *)
module Monitor : sig
  type status = Live | Stalled | Done

  type row = {
    file : string;  (** telemetry stream path *)
    last : Telemetry.record;  (** the stream's last complete record *)
    age_s : float;  (** now − file mtime *)
    registered : bool;  (** run id present in [index.jsonl] *)
    rel_halfwidth : float;  (** worst unfinished task; [nan] when none *)
    alloc_w_per_s : float;
        (** the last record's [gc.minor_words_per_s] rate; [0.] when absent *)
    status : status;
  }

  val default_stall_factor : float
  (** 5.0 — five missed heartbeats flag a stall. *)

  val stall_threshold : stall_factor:float -> interval_s:float -> float
  (** [stall_factor × max(interval_s, 1 s)]: the clamp keeps sub-second
      throttle intervals from reading scheduling hiccups as stalls. *)

  val row_of_stream :
    ?registered:bool -> ?stall_factor:float -> ?now_unix:float -> string ->
    Telemetry.record -> row
  (** The row for the stream at [path] whose last record is given;
      [registered] (default false) marks the run done.  [obs tail] prints
      this row's status. *)

  val scan :
    ?stall_factor:float -> ?now_unix:float -> dir:string -> unit -> row list
  (** One row per stream whose last complete record decodes as telemetry,
      sorted [(shard, run_id)] so coordinator/shard families group
      together.  [now_unix] pins the staleness clock (tests). *)

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

(** Trend-based regression watchdog over registry history.

    Generalizes the single-baseline {!Diff} gate: the current value of each
    metric is judged against the {e median} of the last K runs with a
    median-absolute-deviation noise band —
    [limit = median + max(nmad * 1.4826 * MAD, min_pct% of median)].
    The MAD is robust (one historic outlier cannot shift or widen the
    gate), 1.4826·MAD estimates sigma under normal noise, and the
    [min_pct] floor keeps near-deterministic metrics (MAD ≈ 0) from
    flagging on harmless jitter.  Metrics with fewer than two history
    points are never flagged. *)
module Trend : sig
  type verdict = {
    v_metric : string;
    v_current : float;
    v_median : float;
    v_mad : float;
    v_limit : float;  (** regression boundary; [infinity] on thin history *)
    v_samples : int;  (** history points that carried this metric *)
    v_regression : bool;
  }

  val default_nmad : float
  (** 5.0 — flag only ~5-sigma excursions. *)

  val default_min_pct : float
  (** 10%. *)

  val judge :
    ?nmad:float ->
    ?min_pct:float ->
    ?noise_floor_ns:float ->
    history:(string * float) list list ->
    (string * float) list ->
    verdict list
  (** [judge ~history current] with metric lists as produced by
      {!Diff.metrics_of}.  [noise_floor_ns] (default 0) never flags a
      metric whose current and median values are both below the floor.
      Verdicts are sorted by metric name. *)
end
