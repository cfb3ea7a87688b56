(** Long-running estimation service: newline-delimited JSON over a socket.

    [hetarch serve] turns the batch toolkit into a resident daemon: clients
    send one JSON object per line over a Unix-domain (or loopback TCP)
    socket and receive one JSON response line back.  Query kinds cover the
    sampling campaigns ([threshold], [uec], [distill]) and the DSE
    characterization backend ([dse]); control kinds ([ping], [stats],
    [shutdown]) manage the daemon itself.

    {b Request identity}: a request is normalized — defaults filled in,
    fields sorted by key, numbers rendered canonically — and content-hashed
    with the {!Content_hash} length-prefixed encoding, so field order,
    whitespace, and explicitly-spelled defaults never change identity.
    The hash keys everything downstream: the warm response caches, the
    single-flight table, and the per-request trace attribution.

    {b Warm answers}: a byte-identical repeat of a request line skips the
    parser through a bounded line table (see {!parse_request}), and
    identical requests are answered from a two-tier response cache —
    process memory first, then the persistent {!Store} (under the ambient
    [--cache-dir], kind ["serve.response"]) — and the
    [dse] kind additionally rides the {!Char_store} characterization
    tiers.  Responses contain only deterministic content (no timestamps,
    no serving metadata), so identical requests receive byte-identical
    bodies whether computed cold, coalesced, served warm, or recomputed by
    a daemon running at a different [--jobs].

    {b Single-flight}: concurrent duplicates coalesce — one computation,
    every waiter gets the same bytes.  Admission is bounded: past the
    queue depth limit the daemon answers a structured 429-style rejection
    instead of queueing without bound. *)

val protocol_version : string
(** Schema tag stamped into every response: ["hetarch.serve/1"]. *)

val max_request_bytes : int
(** Upper bound on one request line (64 KiB).  Longer bodies are answered
    with a 413-style error; a connection that streams past the bound
    without a newline is answered and closed. *)

(** {1 Request codec} *)

type query = {
  kind : string;  (** validated query kind *)
  fields : (string * string) list;
      (** normalized parameters: every field present (defaults filled),
          sorted by key, numbers in canonical rendering *)
  hash : string;  (** 16-hex request identity over [kind] and [fields] *)
}

type control = Ping | Stats | Shutdown

type request = Query of query | Control of control

type error = { code : int; message : string }
(** HTTP-flavored status codes: 400 malformed body or parameter, 404
    unknown query kind, 413 oversized request, 429 queue full. *)

val request_hash : kind:string -> fields:(string * string) list -> string
(** The identity hash: {!Content_hash.of_components} over a protocol
    version tag, the kind, and the (already normalized) fields in key
    order.  Exposed so tests can pin wire-compatibility vectors. *)

val parse_request : string -> (request, error) result
(** Parse and normalize one request line.  Never raises: malformed JSON,
    non-object bodies, unknown kinds, unknown fields, wrong types, and
    out-of-range values all come back as structured [Error]s.

    A bounded line table sits in front of the parser: a line that parsed
    to a [Query] before returns the stored result (the same value, since
    parsing is a pure function of the line) at the cost of one string-hash
    lookup, and bumps [serve.line_hits_total].  Only [Ok (Query _)]
    results of lines up to {!line_table_max_bytes} are stored; errors,
    control kinds and longer lines are parsed every time.  The table holds
    at most {!line_table_capacity} lines and is emptied when full.  Like
    the memory response tier, it belongs to the daemon loop: it is
    process-global and unlocked, so call [parse_request] from one domain
    at a time. *)

val line_table_capacity : int
(** Most lines the table holds (1024) before it is emptied. *)

val line_table_max_bytes : int
(** Longest line the table stores (512 bytes). *)

val line_table_length : unit -> int
(** Lines stored now; never more than {!line_table_capacity}. *)

val error_body : error -> string
(** One-line JSON rendering of an error response. *)

(** {1 Answering} *)

val warm_answer : query -> string option
(** Response body from the warm tiers only: process memory, then the
    ambient persistent store ({!Char_store.set_dir}).  Disk hits are
    promoted into memory.  Bumps the [serve.warm_*_hits_total] counters. *)

val cache_response : query -> string -> unit
(** Install a response body in both warm tiers (memory, and the ambient
    persistent store when one is installed). *)

val compute_answer : query -> string
(** Compute the response body (deterministic content only — identical
    queries produce identical bytes at any [--jobs]).  Sampling kinds run
    the task's {!Collect.Task.sample} under {!Collect.batch_rng} batch 0,
    so answers are byte-comparable with campaign ledger batches at the
    same seed; [dse] characterizes through {!Char_store.memo}. *)

val answer : query -> string
(** [warm_answer] falling back to [compute_answer] with write-back into
    both warm tiers. *)

val stats_body : unit -> string
(** The [stats] control response: serve counters and gauges plus
    {!Parallel} pool statistics, as one JSON line. *)

(** {1 Daemon} *)

type endpoint =
  | Unix_path of string  (** Unix-domain stream socket at this path *)
  | Tcp of int  (** loopback-only TCP on this port *)

val run : ?max_queue:int -> endpoint -> unit
(** Serve until [shutdown] (or SIGINT/SIGTERM).  Single-threaded select
    loop: reads are multiplexed, computations run one at a time on the
    loop (fanning shots across the {!Parallel} pool), so requests arriving
    while a computation is in flight coalesce onto the pending entry or
    queue behind it, up to [max_queue] (default 64) pending uniques.  Each
    computed request runs under a [serve.request] span whose [request]
    attribute is the request hash.

    Returns normally on shutdown — the CLI's finalizers ([--metrics]
    snapshot, [--trace] export) run exactly once on the way out, SIGTERM
    included. *)

val request : ?retry_for:float -> endpoint -> string -> string
(** One-shot client: connect, send one line, return the response line
    (without the trailing newline).  [retry_for] retries refused or
    not-yet-bound sockets for that many seconds (default 0: fail fast) —
    the daemon-startup race absorber for scripts and the smoke.  Raises
    [Unix.Unix_error] or [Failure] on connection/protocol failure. *)
