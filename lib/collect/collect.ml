(* Sample-collection campaigns (sinter-style).

   A campaign is a set of Monte-Carlo *tasks*, each identified by a content
   hash of its full description — code, distance, rounds, decoder, noise
   model — never by sweep position.  Batches of shots append to a JSONL
   ledger as they complete, so a killed campaign resumes by replaying the
   ledger and sampling only the shortfall; adaptive stopping ends each task
   at max_shots, max_errors, or a target relative Wilson-interval width.

   Determinism contract: batch [i] of a task draws its RNG from
   (campaign seed, task id, i) alone, and samplers chunk shots through
   [Parallel], so every (task, batch) result is bit-identical regardless of
   --jobs, execution order, or how earlier batches were scheduled across
   runs.  A resumed campaign therefore merges to byte-identical statistics
   with an uninterrupted one at the same seed and stopping settings. *)

(* ------------------------------------------------------------ hashing -- *)

(* Stable 64-bit content hash, shared with the DSE characterization store;
   the implementation (and the ledger compatibility it implies) lives in
   Content_hash and is guarded there by pinned-value tests. *)

let hash64 = Content_hash.hash64
let hash_hex = Content_hash.hash_hex

(* -------------------------------------------------------------- tasks -- *)

module Task = struct
  type t = {
    kind : string;
    fields : (string * string) list;
    sample : Rng.t -> int -> int;
  }

  let create ~kind ~fields ~sample =
    if kind = "" then invalid_arg "Collect.Task.create: empty kind";
    List.iter
      (fun (k, _) -> if k = "" then invalid_arg "Collect.Task.create: empty field key")
      fields;
    { kind; fields; sample }

  (* Canonical form: kind then fields sorted by key, every component
     length-prefixed (Content_hash.canonical) so the encoding is injective
     and the hash is independent of the order fields were listed in. *)
  let canonical t =
    Content_hash.canonical
      (t.kind
      :: List.concat_map
           (fun (k, v) -> [ k; v ])
           (List.sort (fun (a, _) (b, _) -> compare a b) t.fields))

  let id t = hash_hex (canonical t)

  let kind t = t.kind
  let fields t = t.fields
  let sample t rng shots = t.sample rng shots

  (* "k=v;k=v" in key order, CSV-safe: delimiter characters inside values
     are replaced, never quoted (the column is for humans and plotting
     scripts; identity lives in the task id). *)
  let params_string t =
    let sanitize s =
      String.map (fun c -> match c with ',' | ';' | '\n' | '\r' | '"' -> '_' | c -> c) s
    in
    List.sort (fun (a, _) (b, _) -> compare a b) t.fields
    |> List.map (fun (k, v) -> sanitize k ^ "=" ^ sanitize v)
    |> String.concat ";"
end

(* ----------------------------------------------------------- sharding -- *)

(* Deterministic task partitioning for multi-process campaigns: a task's
   shard is a pure function of its content hash, so every process given
   the same campaign definition agrees on the split without coordination.
   Shard identity survives task reordering and campaign growth (adding a
   task never moves existing ones), unlike position-based striping. *)

let shard_of ~shards task =
  if shards < 1 then invalid_arg "Collect.shard_of: shards must be >= 1";
  Int64.to_int
    (Int64.rem (Int64.logand (hash64 (Task.canonical task)) Int64.max_int)
       (Int64.of_int shards))

let shard_filter ~shards ~shard tasks =
  if shard < 0 || shard >= shards then
    invalid_arg "Collect.shard_filter: shard out of range";
  List.filter (fun t -> shard_of ~shards t = shard) tasks

(* ------------------------------------------------------------- ledger -- *)

module Ledger = struct
  type record = {
    task_id : string;
    shots : int;
    errors : int;
    seconds : float;
    jobs : int;
    seed : int;
  }

  let record_to_json r =
    Obs.Json.Obj
      [ ("task_id", Obs.Json.String r.task_id);
        ("shots", Obs.Json.Int r.shots);
        ("errors", Obs.Json.Int r.errors);
        ("seconds", Obs.Json.Float r.seconds);
        ("jobs", Obs.Json.Int r.jobs);
        ("seed", Obs.Json.Int r.seed) ]

  let record_of_json j =
    let str k = match Obs.Json.member k j with Some (Obs.Json.String s) -> Some s | _ -> None in
    let int k = match Obs.Json.member k j with Some (Obs.Json.Int i) -> Some i | _ -> None in
    let num k = match Obs.Json.member k j with Some v -> (try Some (Obs.Json.to_float v) with Failure _ -> None) | None -> None in
    match (str "task_id", int "shots", int "errors", num "seconds", int "jobs", int "seed") with
    | Some task_id, Some shots, Some errors, Some seconds, Some jobs, Some seed
      when shots >= 0 && errors >= 0 && errors <= shots ->
        Some { task_id; shots; errors; seconds; jobs; seed }
    | _ -> None

  type writer = { oc : out_channel }

  let open_writer path = { oc = open_out_gen [ Open_append; Open_creat ] 0o644 path }

  (* Crash-safe by construction: one record per line, written and flushed
     atomically enough that a kill leaves at most one truncated final line,
     which replay skips. *)
  let append w r =
    output_string w.oc (Obs.Json.to_string (record_to_json r));
    output_char w.oc '\n';
    flush w.oc

  let close w = close_out w.oc

  type totals = { t_shots : int; t_errors : int; t_seconds : float; t_records : int }

  let no_totals = { t_shots = 0; t_errors = 0; t_seconds = 0.; t_records = 0 }

  let add_totals t (r : record) =
    { t_shots = t.t_shots + r.shots;
      t_errors = t.t_errors + r.errors;
      t_seconds = t.t_seconds +. r.seconds;
      t_records = t.t_records + 1 }

  (* A torn tail of a killed run does not parse and a line that is not a
     record does not decode; both are skipped. *)
  let fold ~f ~init path =
    if not (Sys.file_exists path) then init
    else
      Obs.fold_jsonl path
        (fun acc j -> match record_of_json j with Some r -> f acc r | None -> acc)
        init

  (* Per-task merged totals; partial records for the same task sum. *)
  let replay path : (string, totals) Hashtbl.t =
    let tbl = Hashtbl.create 32 in
    fold path ~init:()
      ~f:(fun () r ->
        let t = Option.value ~default:no_totals (Hashtbl.find_opt tbl r.task_id) in
        Hashtbl.replace tbl r.task_id (add_totals t r));
    tbl
end

(* ----------------------------------------------------------- stopping -- *)

type stop_rule = {
  max_shots : int;  (* per-task ceiling *)
  max_errors : int;  (* stop once this many errors are seen; 0 disables *)
  rel_ci : float;  (* target relative 95% Wilson half-width; 0 disables *)
  min_shots : int;  (* rel_ci is not evaluated below this many shots *)
  batch : int;  (* shots per scheduling batch (one ledger record) *)
}

let default_stop =
  { max_shots = 1_000_000; max_errors = 0; rel_ci = 0.; min_shots = 100; batch = 1024 }

type reason = Max_shots | Max_errors | Rel_ci | Halted

let reason_string = function
  | Max_shots -> "max_shots"
  | Max_errors -> "max_errors"
  | Rel_ci -> "rel_ci"
  | Halted -> "halted"

let wilson_z = 1.96

(* Fixed evaluation order so the reported reason is deterministic. *)
let decide rule ~shots ~errors =
  if shots >= rule.max_shots then Some Max_shots
  else if rule.max_errors > 0 && errors >= rule.max_errors then Some Max_errors
  else if
    rule.rel_ci > 0. && shots >= rule.min_shots
    && Stats.wilson_rel_halfwidth ~successes:errors ~trials:shots ~z:wilson_z
       <= rule.rel_ci
  then Some Rel_ci
  else None

(* ----------------------------------------------------------- progress -- *)

(* One throttled status line on stderr, opt-in and auto-disabled when
   stderr is not a TTY, so redirected runs and CI logs stay clean.  All
   displayed totals read back out of the Obs counters the runner bumps. *)

let c_batches = Obs.Counter.create "collect.batches_total"
let c_shots = Obs.Counter.create "collect.shots_total"
let c_errors = Obs.Counter.create "collect.errors_total"
let c_resumed_shots = Obs.Counter.create "collect.resumed_shots_total"
let g_tasks_done = Obs.Gauge.create "collect.tasks_done"
let h_batch_seconds = Obs.Histogram.create "collect.batch_seconds"

module Progress = struct
  type t = {
    enabled : bool;
    mutable last_ns : int64;
    mutable dirty : bool;  (* a line is on screen *)
  }

  let create ~enabled =
    let enabled = enabled && Unix.isatty Unix.stderr in
    { enabled; last_ns = 0L; dirty = false }

  let si n =
    let f = float_of_int n in
    if f >= 1e9 then Printf.sprintf "%.2fG" (f /. 1e9)
    else if f >= 1e6 then Printf.sprintf "%.2fM" (f /. 1e6)
    else if f >= 1e3 then Printf.sprintf "%.1fk" (f /. 1e3)
    else string_of_int n

  (* Totals, rate and ETA all come from [Obs.Snapshot.campaign] — the
     same code path that fills the campaign section of the run's snapshot —
     so what the status line shows is exactly what `hetarch obs report`
     reads back. *)
  let tick t ~cur_kind ~cur_shots ~cur_errors =
    if t.enabled then begin
      let now = Obs.now_ns () in
      (* ~5 updates/second: cheap enough to call per batch. *)
      if Int64.sub now t.last_ns >= 200_000_000L then begin
        t.last_ns <- now;
        match Obs.Snapshot.campaign () with
        | None -> ()
        | Some c ->
            let eta =
              match c.Obs.Snapshot.c_eta_s with
              | Some e -> Printf.sprintf "eta<=%.0fs" e
              | None -> "eta ?"
            in
            let ci =
              if cur_shots = 0 then "-"
              else begin
                let lo, hi =
                  Stats.wilson_interval ~successes:cur_errors ~trials:cur_shots
                    ~z:wilson_z
                in
                Printf.sprintf "%.3g [%.2g,%.2g]"
                  (float_of_int cur_errors /. float_of_int cur_shots)
                  lo hi
              end
            in
            Printf.eprintf
              "\r\x1b[Kcollect %d/%d tasks  %s shots  %s/s  %s  %s rate %s"
              c.Obs.Snapshot.c_done c.Obs.Snapshot.c_total
              (si c.Obs.Snapshot.c_shots)
              (si (int_of_float c.Obs.Snapshot.c_rate))
              eta cur_kind ci;
            flush stderr;
            t.dirty <- true
      end
    end

  let finish t =
    if t.enabled && t.dirty then begin
      Printf.eprintf "\r\x1b[K";
      flush stderr
    end
end

(* ------------------------------------------------------------ running -- *)

type stat = {
  task : Task.t;
  id : string;
  shots : int;
  errors : int;
  seconds : float;
  resumed_shots : int;
  reason : reason;
}

type outcome = {
  stats : stat list;
  halted : bool;
  new_shots : int;
  wall_seconds : float;
}

(* Batch RNG: a pure function of (campaign seed, task id, batch index) —
   the heart of resume determinism.  63-bit positive so Rng.create's
   splitmix expansion sees the whole hash. *)
let batch_rng ~seed ~id ~index =
  Rng.create
    (Int64.to_int (hash64 (Printf.sprintf "%s/%d/%d" id seed index)) land max_int)

let validate_stop rule =
  if rule.max_shots < 1 then invalid_arg "Collect.run: max_shots must be >= 1";
  if rule.batch < 1 then invalid_arg "Collect.run: batch must be >= 1";
  if rule.max_errors < 0 then invalid_arg "Collect.run: max_errors must be >= 0";
  if rule.min_shots < 1 then invalid_arg "Collect.run: min_shots must be >= 1";
  if not (rule.rel_ci >= 0.) then invalid_arg "Collect.run: rel_ci must be >= 0"

let run ?ledger ?(resume = false) ?(progress = false) ?(stop = default_stop)
    ?halt_after ~seed tasks =
  validate_stop stop;
  (match halt_after with
  | Some h when h < 1 -> invalid_arg "Collect.run: halt_after must be >= 1"
  | _ -> ());
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let ids = Array.map Task.id tasks in
  let seen = Hashtbl.create n in
  Array.iter
    (fun id ->
      if Hashtbl.mem seen id then
        invalid_arg (Printf.sprintf "Collect.run: duplicate task %s" id);
      Hashtbl.add seen id ())
    ids;
  Obs.Trace.with_span "collect.campaign"
    ~attrs:
      (("tasks", string_of_int n)
      :: ("seed", string_of_int seed)
      :: (match Obs.Run.shard () with "" -> [] | s -> [ ("shard", s) ]))
    (fun () ->
      let start_ns = Obs.now_ns () in
      let replayed =
        match ledger with
        | Some path when resume -> Ledger.replay path
        | _ -> Hashtbl.create 0
      in
      let totals i =
        Option.value ~default:Ledger.no_totals (Hashtbl.find_opt replayed ids.(i))
      in
      let shots = Array.init n (fun i -> (totals i).Ledger.t_shots) in
      let errors = Array.init n (fun i -> (totals i).Ledger.t_errors) in
      let seconds = Array.init n (fun i -> (totals i).Ledger.t_seconds) in
      let resumed = Array.copy shots in
      Array.iter (fun s -> Obs.Counter.add c_resumed_shots s) resumed;
      Array.iter (fun s -> Obs.Counter.add c_shots s) resumed;
      Array.iter (fun e -> Obs.Counter.add c_errors e) errors;
      let reason = Array.init n (fun i -> decide stop ~shots:shots.(i) ~errors:errors.(i)) in
      let writer = Option.map Ledger.open_writer ledger in
      let prog = Progress.create ~enabled:progress in
      let appends = ref 0 in
      let halted = ref false in
      let tasks_done () =
        Array.fold_left (fun acc r -> if r <> None then acc + 1 else acc) 0 reason
      in
      (* Per-task progress for the snapshot and the --progress line.  Both
         read it between batches, on the domain that runs the campaign. *)
      Obs.Snapshot.set_campaign
        (Some
           (fun () ->
             List.init n (fun i ->
                 let done_ = reason.(i) <> None in
                 { Obs.Snapshot.tp_id = ids.(i);
                   tp_kind = tasks.(i).Task.kind;
                   tp_shots = shots.(i);
                   tp_errors = errors.(i);
                   tp_resumed = resumed.(i);
                   tp_rel_halfwidth =
                     (if errors.(i) = 0 || shots.(i) = 0 then Float.nan
                      else
                        Stats.wilson_rel_halfwidth ~successes:errors.(i)
                          ~trials:shots.(i) ~z:wilson_z);
                   tp_remaining =
                     (if done_ then 0 else max 0 (stop.max_shots - shots.(i)));
                   tp_done = done_ })));
      Fun.protect
        ~finally:(fun () ->
          Progress.finish prog;
          Option.iter Ledger.close writer)
        (fun () ->
          (* Round-robin passes: one batch per unfinished task per pass, so
             progress (and the ledger) advances evenly across the campaign
             rather than task-by-task. *)
          let any_open = ref (Array.exists (fun r -> r = None) reason) in
          while !any_open && not !halted do
            for i = 0 to n - 1 do
              if reason.(i) = None && not !halted then begin
                (* Batch index from merged shots, so a resumed campaign
                   continues exactly where the ledger left off; ceiling
                   division never re-uses a stream after an odd merge. *)
                let index = (shots.(i) + stop.batch - 1) / stop.batch in
                let size = min stop.batch (stop.max_shots - shots.(i)) in
                let rng = batch_rng ~seed ~id:ids.(i) ~index in
                let t0 = Obs.now_ns () in
                let errs = tasks.(i).Task.sample rng size in
                if errs < 0 || errs > size then
                  invalid_arg
                    (Printf.sprintf "Collect.run: task %s returned %d errors for %d shots"
                       ids.(i) errs size);
                let dt = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e9 in
                shots.(i) <- shots.(i) + size;
                errors.(i) <- errors.(i) + errs;
                seconds.(i) <- seconds.(i) +. dt;
                Obs.Counter.incr c_batches;
                Obs.Counter.add c_shots size;
                Obs.Counter.add c_errors errs;
                Obs.Histogram.observe h_batch_seconds dt;
                Option.iter
                  (fun w ->
                    Ledger.append w
                      { Ledger.task_id = ids.(i);
                        shots = size;
                        errors = errs;
                        seconds = dt;
                        jobs = Parallel.jobs ();
                        seed })
                  writer;
                incr appends;
                reason.(i) <- decide stop ~shots:shots.(i) ~errors:errors.(i);
                Obs.Gauge.set g_tasks_done (float_of_int (tasks_done ()));
                Progress.tick prog ~cur_kind:tasks.(i).Task.kind
                  ~cur_shots:shots.(i) ~cur_errors:errors.(i);
                match halt_after with
                | Some h when !appends >= h -> halted := true
                | _ -> ()
              end
            done;
            any_open := Array.exists (fun r -> r = None) reason
          done;
          let stats =
            List.init n (fun i ->
                { task = tasks.(i);
                  id = ids.(i);
                  shots = shots.(i);
                  errors = errors.(i);
                  seconds = seconds.(i);
                  resumed_shots = resumed.(i);
                  reason = Option.value ~default:Halted reason.(i) })
          in
          let new_shots =
            Array.fold_left ( + ) 0 (Array.mapi (fun i s -> s - resumed.(i)) shots)
          in
          { stats;
            halted = !halted;
            new_shots;
            wall_seconds = Int64.to_float (Int64.sub (Obs.now_ns ()) start_ns) /. 1e9 }))

(* ---------------------------------------------------------------- csv -- *)

(* Merged per-task statistics for plotting.  Deliberately excludes wall
   time: every column is a pure function of (seed, settings), so a resumed
   campaign's CSV is byte-identical to an uninterrupted run's. *)
let csv_header = "task_id,kind,params,shots,errors,rate,wilson_lo,wilson_hi,stop"

let csv stats =
  let b = Buffer.create 256 in
  Buffer.add_string b csv_header;
  Buffer.add_char b '\n';
  List.iter
    (fun st ->
      let rate =
        if st.shots = 0 then 0. else float_of_int st.errors /. float_of_int st.shots
      in
      let lo, hi =
        Stats.wilson_interval ~successes:st.errors ~trials:st.shots ~z:wilson_z
      in
      Printf.bprintf b "%s,%s,%s,%d,%d,%.9g,%.9g,%.9g,%s\n" st.id st.task.Task.kind
        (Task.params_string st.task) st.shots st.errors rate lo hi
        (reason_string st.reason))
    stats;
  Buffer.contents b

let write_csv ~path stats =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (csv stats))
