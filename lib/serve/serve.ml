(* Long-running estimation service: newline-delimited JSON over a socket.

   Single-threaded select loop by design: no locks, no background threads,
   no external dependencies.  Concurrency comes from two places — the
   kernel buffers requests that arrive while a computation is in flight
   (so the next drain coalesces duplicates onto the single-flight table),
   and each computation fans its shots across the Parallel domain pool.
   Responses carry deterministic content only (no timestamps, no serving
   metadata — that lives in counters, gauges, and spans), so identical
   requests receive byte-identical bodies from any tier: computed cold,
   coalesced, memory-warm, disk-warm, or recomputed at another --jobs. *)

let protocol_version = "hetarch.serve/1"
let max_request_bytes = 65536

type query = {
  kind : string;
  fields : (string * string) list;
  hash : string;
}

type control = Ping | Stats | Shutdown
type request = Query of query | Control of control
type error = { code : int; message : string }

exception Bad of error

let bad code fmt =
  Printf.ksprintf (fun message -> raise (Bad { code; message })) fmt

(* ------------------------------------------------------------------ *)
(* Request identity                                                   *)

let request_hash ~kind ~fields =
  Content_hash.of_components
    (protocol_version :: kind
    :: List.concat_map
         (fun (k, v) -> [ k; v ])
         (List.sort (fun (a, _) (b, _) -> compare a b) fields))

(* ------------------------------------------------------------------ *)
(* Codec: parse + normalize.  Defaults are filled in, numbers rendered
   canonically (ints as decimal, floats as %.17g — the same rendering
   Obs.Json uses), and fields sorted by key, so spelling a default out,
   reordering fields, or writing 5e-2 for 0.05 never changes identity. *)

let canon_float f = Printf.sprintf "%.17g" f
let canon_bool b = if b then "true" else "false"

let int_field members name ~default ~lo ~hi =
  match List.assoc_opt name members with
  | None -> default
  | Some v -> (
      match Obs.Json.to_int v with
      | i when i >= lo && i <= hi -> i
      | i -> bad 400 "%s: %d out of range [%d, %d]" name i lo hi
      | exception Failure _ -> bad 400 "%s: expected an integer" name)

let float_field members name ~default ~lo ~hi =
  match List.assoc_opt name members with
  | None -> default
  | Some v -> (
      match Obs.Json.to_float v with
      | f when Float.is_finite f && f >= lo && f <= hi -> f
      | f when Float.is_finite f -> bad 400 "%s: %g out of range [%g, %g]" name f lo hi
      | _ -> bad 400 "%s: expected a finite number" name
      | exception Failure _ -> bad 400 "%s: expected a number" name)

let bool_field members name ~default =
  match List.assoc_opt name members with
  | None -> default
  | Some (Obs.Json.Bool b) -> b
  | Some _ -> bad 400 "%s: expected a boolean" name

let enum_field members name ~default ~values =
  match List.assoc_opt name members with
  | None -> default
  | Some (Obs.Json.String s) when List.mem s values -> s
  | Some (Obs.Json.String s) ->
      bad 400 "%s: unknown value %S (want one of %s)" name s
        (String.concat ", " values)
  | Some _ -> bad 400 "%s: expected a string" name

let string_field members name ~default =
  match List.assoc_opt name members with
  | None -> default
  | Some (Obs.Json.String s) when s <> "" -> s
  | Some _ -> bad 400 "%s: expected a non-empty string" name

(* Common sampling parameters: every sampling kind carries the campaign
   seed and a per-request shot budget (bounded — this is admission
   control's first line, long before the queue limit). *)
let sampling_fields members =
  let shots = int_field members "shots" ~default:1024 ~lo:1 ~hi:1_000_000 in
  let seed = int_field members "seed" ~default:1 ~lo:0 ~hi:max_int in
  (shots, seed)

let finish ~kind ~allowed members fields =
  List.iter
    (fun (k, _) ->
      if k <> "kind" && not (List.mem k allowed) then
        bad 400 "unknown field %S for kind %s" k kind)
    members;
  let fields = List.sort (fun (a, _) (b, _) -> compare a b) fields in
  { kind; fields; hash = request_hash ~kind ~fields }

let parse_threshold members =
  let distance = int_field members "distance" ~default:3 ~lo:2 ~hi:25 in
  let default_t = (Surface_circuit.default ~distance).Surface_circuit.t_data in
  let t_data =
    float_field members "t_data" ~default:default_t ~lo:1e-9 ~hi:1.0
  in
  let shots, seed = sampling_fields members in
  finish ~kind:"threshold"
    ~allowed:[ "distance"; "t_data"; "shots"; "seed" ]
    members
    [ ("distance", string_of_int distance);
      ("t_data", canon_float t_data);
      ("shots", string_of_int shots);
      ("seed", string_of_int seed) ]

let parse_uec members =
  let code = string_field members "code" ~default:"SC3" in
  (* Parsed, not built: a name's code can be large, and a distance below 2
     or a code too large for the lookup decoder would only fail later.  Its
     check counts bound what its lookup tables cost. *)
  (match Codes.qubits_of_name code with
  | None -> bad 400 "code: no code named %S (RM, 17QCC, ST, SHOR, SCd, REPd; d >= 2)" code
  | Some n when n > Decoder_lookup.max_qubits ->
      bad 400 "code: %S has more than the %d qubits the lookup decoder takes" code
        Decoder_lookup.max_qubits
  | Some _ -> (
      match Codes.syndrome_bits_of_name code with
      | Some b when b > Decoder_lookup.max_syndrome_bits ->
          bad 400 "code: %S has more than the %d checks of one type the lookup decoder takes"
            code Decoder_lookup.max_syndrome_bits
      | _ -> ()));
  let rounds = int_field members "rounds" ~default:3 ~lo:1 ~hi:1000 in
  let arch = enum_field members "arch" ~default:"het" ~values:[ "het"; "hom" ] in
  let ts = float_field members "ts" ~default:50e-3 ~lo:1e-9 ~hi:1e3 in
  let shots, seed = sampling_fields members in
  finish ~kind:"uec"
    ~allowed:[ "code"; "rounds"; "arch"; "ts"; "shots"; "seed" ]
    members
    [ ("code", code);
      ("rounds", string_of_int rounds);
      ("arch", arch);
      ("ts", canon_float ts);
      ("shots", string_of_int shots);
      ("seed", string_of_int seed) ]

let parse_distill members =
  let arch = enum_field members "arch" ~default:"het" ~values:[ "het"; "hom" ] in
  let rate_hz = float_field members "rate_hz" ~default:1e6 ~lo:1.0 ~hi:1e12 in
  let horizon = float_field members "horizon" ~default:100e-6 ~lo:1e-9 ~hi:1.0 in
  let min_delivered = int_field members "min_delivered" ~default:1 ~lo:0 ~hi:1000 in
  let shots, seed = sampling_fields members in
  finish ~kind:"distill"
    ~allowed:[ "arch"; "rate_hz"; "horizon"; "min_delivered"; "shots"; "seed" ]
    members
    [ ("arch", arch);
      ("rate_hz", canon_float rate_hz);
      ("horizon", canon_float horizon);
      ("min_delivered", string_of_int min_delivered);
      ("shots", string_of_int shots);
      ("seed", string_of_int seed) ]

let parse_dse members =
  let op =
    enum_field members "op" ~default:"load"
      ~values:[ "load"; "retention"; "seq_cnots"; "stabilizer" ]
  in
  let alpha = float_field members "alpha" ~default:1.0 ~lo:1e-3 ~hi:1e3 in
  let dt = float_field members "dt" ~default:10e-6 ~lo:1e-12 ~hi:1.0 in
  let count = int_field members "count" ~default:5 ~lo:1 ~hi:100 in
  let weight = int_field members "weight" ~default:4 ~lo:2 ~hi:8 in
  let serialized = bool_field members "serialized" ~default:true in
  finish ~kind:"dse"
    ~allowed:[ "op"; "alpha"; "dt"; "count"; "weight"; "serialized" ]
    members
    [ ("op", op);
      ("alpha", canon_float alpha);
      ("dt", canon_float dt);
      ("count", string_of_int count);
      ("weight", string_of_int weight);
      ("serialized", canon_bool serialized) ]

let parse_control ~kind ~ctl members =
  ignore (finish ~kind ~allowed:[] members []);
  Control ctl

let parse_line line =
  try
    if String.length line > max_request_bytes then
      bad 413 "request exceeds %d bytes" max_request_bytes;
    let doc =
      try Obs.Json.parse line
      with Failure m -> bad 400 "malformed JSON: %s" m
    in
    let members =
      match doc with
      | Obs.Json.Obj ms -> ms
      | _ -> bad 400 "request must be a JSON object"
    in
    let kind =
      match List.assoc_opt "kind" members with
      | Some (Obs.Json.String k) -> k
      | Some _ -> bad 400 "kind must be a string"
      | None -> bad 400 "missing field \"kind\""
    in
    Ok
      (match kind with
      | "ping" -> parse_control ~kind ~ctl:Ping members
      | "stats" -> parse_control ~kind ~ctl:Stats members
      | "shutdown" -> parse_control ~kind ~ctl:Shutdown members
      | "threshold" -> Query (parse_threshold members)
      | "uec" -> Query (parse_uec members)
      | "distill" -> Query (parse_distill members)
      | "dse" -> Query (parse_dse members)
      | k -> bad 404 "unknown query kind %S" k)
  with Bad e -> Error e

(* ------------------------------------------------------------------ *)
(* Response rendering                                                 *)

let error_body e =
  Obs.Json.(
    to_string
      (Obj
         [ ("schema", String protocol_version);
           ("error", Obj [ ("code", Int e.code); ("message", String e.message) ])
         ]))

let ok_body kind =
  Obs.Json.(
    to_string
      (Obj
         [ ("schema", String protocol_version);
           ("kind", String kind);
           ("ok", Bool true) ]))

(* ------------------------------------------------------------------ *)
(* Observability                                                      *)

let requests_total = Obs.Counter.create "serve.requests_total"
let responses_total = Obs.Counter.create "serve.responses_total"
let coalesced_total = Obs.Counter.create "serve.coalesced_total"
let warm_memory_hits_total = Obs.Counter.create "serve.warm_memory_hits_total"
let warm_disk_hits_total = Obs.Counter.create "serve.warm_disk_hits_total"
let computed_total = Obs.Counter.create "serve.computed_total"
let rejected_total = Obs.Counter.create "serve.rejected_total"
let error_responses_total = Obs.Counter.create "serve.error_responses_total"
let line_hits_total = Obs.Counter.create "serve.line_hits_total"
let queue_depth_gauge = Obs.Gauge.create "serve.queue_depth"
let connections_gauge = Obs.Gauge.create "serve.connections"

let stats_body () =
  let tasks_run, domains_spawned = Parallel.stats () in
  let queue_remaining, busy_domains = Parallel.queue_stats () in
  let c cnt = Obs.Json.Int (Obs.Counter.value cnt) in
  Obs.Json.(
    to_string
      (Obj
         [ ("schema", String protocol_version);
           ("kind", String "stats");
           ( "counters",
             Obj
               [ ("serve.requests_total", c requests_total);
                 ("serve.responses_total", c responses_total);
                 ("serve.coalesced_total", c coalesced_total);
                 ("serve.warm_memory_hits_total", c warm_memory_hits_total);
                 ("serve.warm_disk_hits_total", c warm_disk_hits_total);
                 ("serve.computed_total", c computed_total);
                 ("serve.rejected_total", c rejected_total);
                 ("serve.error_responses_total", c error_responses_total);
                 ("serve.line_hits_total", c line_hits_total) ] );
           ( "gauges",
             Obj
               [ ("serve.queue_depth", Float (Obs.Gauge.value queue_depth_gauge));
                 ("serve.connections", Float (Obs.Gauge.value connections_gauge))
               ] );
           ( "parallel",
             Obj
               [ ("jobs", Int (Parallel.jobs ()));
                 ("tasks_run", Int tasks_run);
                 ("domains_spawned", Int domains_spawned);
                 ("queue_remaining", Int queue_remaining);
                 ("busy_domains", Int busy_domains) ] ) ]))

(* ------------------------------------------------------------------ *)
(* Line table: raw request line -> parsed query.  [parse_line] is a pure
   function of the line and static tables (Codes.qubits_of_name,
   Surface_circuit.default), so a stored result is exactly what a fresh
   parse would return.  Only successful queries are stored, so a flood of
   bad lines cannot churn the table.  Owned by the daemon loop, like
   [memory]: no lock. *)

let line_table_capacity = 1024
let line_table_max_bytes = 512

module Lines = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let lines : (request, error) result Lines.t = Lines.create 64

let line_table_length () = Lines.length lines

let parse_request line =
  if String.length line > line_table_max_bytes then parse_line line
  else
    match Lines.find lines line with
    | parsed ->
        Obs.Counter.incr line_hits_total;
        parsed
    | exception Not_found -> (
        match parse_line line with
        | Ok (Query _) as parsed ->
            if Lines.length lines >= line_table_capacity then Lines.reset lines;
            Lines.add lines line parsed;
            parsed
        | parsed -> parsed)

(* ------------------------------------------------------------------ *)
(* Computation: normalized fields -> deterministic response body      *)

let field q name =
  (* normalization guarantees presence; a miss here is a codec bug *)
  match List.assoc_opt name q.fields with
  | Some v -> v
  | None -> invalid_arg ("Serve: missing normalized field " ^ name)

let ifield q name = int_of_string (field q name)
let ffield q name = float_of_string (field q name)

let sampling_task q =
  match q.kind with
  | "threshold" ->
      let distance = ifield q "distance" in
      Surface_circuit.collect_task
        { (Surface_circuit.default ~distance) with
          Surface_circuit.t_data = ffield q "t_data" }
  | "uec" ->
      let arch =
        match field q "arch" with
        | "het" -> Uec.Het { ts = ffield q "ts" }
        | _ -> Uec.Hom
      in
      Uec.collect_task arch (Codes.by_name (field q "code"))
        ~rounds:(ifield q "rounds")
  | "distill" ->
      let rate_hz = ffield q "rate_hz" in
      let config =
        match field q "arch" with
        | "het" -> Distill_module.heterogeneous ~rate_hz ()
        | _ -> Distill_module.homogeneous ~rate_hz ()
      in
      Distill_module.collect_task config ~horizon:(ffield q "horizon")
        ~min_delivered:(ifield q "min_delivered")
  | k -> invalid_arg ("Serve: not a sampling kind: " ^ k)

let params_json q =
  Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.String v)) q.fields)

let sampling_body q =
  let task = sampling_task q in
  let shots = ifield q "shots" and seed = ifield q "seed" in
  let errors =
    Collect.Task.sample task
      (Collect.batch_rng ~seed ~id:(Collect.Task.id task) ~index:0)
      shots
  in
  let lo, hi =
    Stats.wilson_interval ~successes:errors ~trials:shots ~z:Collect.wilson_z
  in
  Obs.Json.(
    to_string
      (Obj
         [ ("schema", String protocol_version);
           ("kind", String q.kind);
           ("request", String q.hash);
           ("task", String (Collect.Task.id task));
           ("params", params_json q);
           ("shots", Int shots);
           ("errors", Int errors);
           ("rate", Float (float_of_int errors /. float_of_int shots));
           ("wilson_lo", Float lo);
           ("wilson_hi", Float hi) ]))

let dse_body q =
  let alpha = ffield q "alpha" in
  let base = Device.multimode_resonator_3d in
  let storage =
    Device.with_coherence base ~t1:(alpha *. base.Device.t1)
      ~t2:(alpha *. base.Device.t2)
  in
  let cell, op =
    match field q "op" with
    | "load" -> (Cell.register ~storage (), Characterize.Load)
    | "retention" ->
        (Cell.register ~storage (), Characterize.Retention { dt = ffield q "dt" })
    | "seq_cnots" ->
        (Cell.seqop ~storage (), Characterize.Seq_cnots { count = ifield q "count" })
    | _ ->
        ( Cell.usc ~storage (),
          Characterize.Stabilizer
            { weight = ifield q "weight";
              serialized = bool_of_string (field q "serialized") } )
  in
  let memo = Char_store.memo () in
  let perf = (Characterize.characterize_op ~memo cell op).Characterize.perf in
  Obs.Json.(
    to_string
      (Obj
         [ ("schema", String protocol_version);
           ("kind", String q.kind);
           ("request", String q.hash);
           ("params", params_json q);
           ("duration_s", Float perf.Characterize.duration);
           ("error", Float perf.Characterize.error) ]))

let compute_answer q =
  match q.kind with "dse" -> dse_body q | _ -> sampling_body q

(* ------------------------------------------------------------------ *)
(* Warm response tiers: process memory, then the ambient persistent
   store.  The store key wraps the request hash under its own kind, so
   serve responses share a --cache-dir with characterizations without
   any possibility of collision, and Store's version tag makes entries
   from older code unreachable rather than wrong. *)

let memory : (string, string) Hashtbl.t = Hashtbl.create 64
let store_key q = Store.key ~kind:"serve.response" ~fields:[ ("request", q.hash) ]

let warm_answer q =
  match Hashtbl.find_opt memory q.hash with
  | Some body ->
      Obs.Counter.incr warm_memory_hits_total;
      Some body
  | None -> (
      match Char_store.store () with
      | None -> None
      | Some st -> (
          match Store.find st (store_key q) with
          | Some body ->
              Obs.Counter.incr warm_disk_hits_total;
              Hashtbl.replace memory q.hash body;
              Some body
          | None -> None))

let cache_response q body =
  Hashtbl.replace memory q.hash body;
  match Char_store.store () with
  | Some st -> Store.put st (store_key q) body
  | None -> ()

let answer q =
  match warm_answer q with
  | Some body -> body
  | None ->
      let body = compute_answer q in
      cache_response q body;
      body

(* ------------------------------------------------------------------ *)
(* Socket plumbing                                                    *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

type endpoint = Unix_path of string | Tcp of int

let connect_endpoint = function
  | Unix_path path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd (Unix.ADDR_UNIX path);
         fd
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e)
  | Tcp port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
         fd
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e)

let request ?(retry_for = 0.) endpoint line =
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec connect () =
    match connect_endpoint endpoint with
    | fd -> fd
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
        ignore (Unix.select [] [] [] 0.05);
        connect ()
  in
  let fd = connect () in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd (line ^ "\n");
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      let rec read_line () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ()
        | 0 -> failwith "Serve.request: connection closed before a response"
        | n -> (
            Buffer.add_subbytes buf chunk 0 n;
            let s = Buffer.contents buf in
            match String.index_opt s '\n' with
            | Some i -> String.sub s 0 i
            | None -> read_line ())
      in
      read_line ())

(* ------------------------------------------------------------------ *)
(* The daemon                                                         *)

(* Bytes read from a connection and not yet framed: [buf.[0 .. len-1]],
   with no newline before [scanned]. *)
type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable scanned : int;
  mutable alive : bool;
}

let rec newline_in buf i len =
  if i >= len then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else newline_in buf (i + 1) len

let stop = ref false

let compute_traced q =
  (* Per-request spans nest under the daemon's root span; the request hash
     names the request, so a span joins against response bodies and store
     entries. *)
  Obs.Trace.with_span
    ~attrs:[ ("kind", q.kind); ("request", q.hash) ]
    "serve.request"
    (fun () -> compute_answer q)

let run ?(max_queue = 64) endpoint =
  stop := false;
  let previous =
    List.map
      (fun s -> (s, Sys.signal s (Sys.Signal_handle (fun _ -> stop := true))))
      [ Sys.sigint; Sys.sigterm ]
  in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let listen_fd, unix_path =
    match endpoint with
    | Unix_path path ->
        (try if Sys.file_exists path then Sys.remove path
         with Sys_error _ -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try
           Unix.bind fd (Unix.ADDR_UNIX path);
           Unix.listen fd 64
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        (fd, Some path)
    | Tcp port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        (try
           Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
           Unix.listen fd 64
         with e ->
           (try Unix.close fd with Unix.Unix_error _ -> ());
           raise e);
        (fd, None)
  in
  let conns = ref [] in
  let pending : (string, query * conn list ref) Hashtbl.t = Hashtbl.create 16 in
  let queue : string Queue.t = Queue.create () in
  let set_queue_gauge () =
    Obs.Gauge.set queue_depth_gauge (float_of_int (Queue.length queue))
  in
  let reply conn body =
    if conn.alive then (
      try
        write_all conn.fd (body ^ "\n");
        Obs.Counter.incr responses_total
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        conn.alive <- false)
  in
  let handle_request conn line =
    match parse_request line with
    | Error e ->
        Obs.Counter.incr error_responses_total;
        reply conn (error_body e)
    | Ok (Control Ping) -> reply conn (ok_body "ping")
    | Ok (Control Stats) -> reply conn (stats_body ())
    | Ok (Control Shutdown) ->
        reply conn (ok_body "shutdown");
        stop := true
    | Ok (Query q) -> (
        Obs.Counter.incr requests_total;
        match warm_answer q with
        | Some body -> reply conn body
        | None -> (
            match Hashtbl.find_opt pending q.hash with
            | Some (_, waiters) ->
                (* single-flight: attach to the in-flight computation *)
                Obs.Counter.incr coalesced_total;
                waiters := conn :: !waiters
            | None ->
                if Queue.length queue >= max_queue then (
                  Obs.Counter.incr rejected_total;
                  reply conn
                    (error_body
                       { code = 429;
                         message =
                           Printf.sprintf "queue full (%d pending)" max_queue
                       }))
                else (
                  Hashtbl.replace pending q.hash (q, ref [ conn ]);
                  Queue.push q.hash queue;
                  set_queue_gauge ())))
  in
  (* Frame by offset: each complete line is copied out once, the newline
     search resumes where the previous read left it, and the unterminated
     tail moves to the front once per read — a read carrying k pipelined
     lines costs O(bytes), not O(k * bytes). *)
  let drain_conn conn =
    let rec go start =
      match newline_in conn.buf conn.scanned conn.len with
      | -1 ->
          conn.scanned <- conn.len;
          start
      | i ->
          let stop_at =
            if i > start && Bytes.get conn.buf (i - 1) = '\r' then i - 1 else i
          in
          let line = Bytes.sub_string conn.buf start (stop_at - start) in
          conn.scanned <- i + 1;
          if String.trim line <> "" then handle_request conn line;
          if conn.alive && not !stop then go (i + 1) else i + 1
    in
    let start = go 0 in
    if start > 0 then begin
      Bytes.blit conn.buf start conn.buf 0 (conn.len - start);
      conn.len <- conn.len - start;
      conn.scanned <- conn.scanned - start
    end;
    if conn.alive && conn.scanned = conn.len && conn.len > max_request_bytes
    then begin
      (* no newline in sight and the bound is blown: answer and close
         (there is no reliable way to resync the stream) *)
      Obs.Counter.incr error_responses_total;
      reply conn
        (error_body
           { code = 413;
             message = Printf.sprintf "request exceeds %d bytes" max_request_bytes });
      conn.alive <- false
    end
  in
  let read_chunk = Bytes.create 4096 in
  let read_conn conn =
    match Unix.read conn.fd read_chunk 0 (Bytes.length read_chunk) with
    | 0 -> conn.alive <- false
    | n ->
        if conn.len + n > Bytes.length conn.buf then begin
          let grown = Bytes.create (max (conn.len + n) (2 * Bytes.length conn.buf)) in
          Bytes.blit conn.buf 0 grown 0 conn.len;
          conn.buf <- grown
        end;
        Bytes.blit read_chunk 0 conn.buf conn.len n;
        conn.len <- conn.len + n;
        drain_conn conn
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        conn.alive <- false
  in
  let accept_conn () =
    match Unix.accept listen_fd with
    | fd, _ ->
        conns :=
          { fd; buf = Bytes.create 256; len = 0; scanned = 0; alive = true }
          :: !conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  let compute_one () =
    match Queue.pop queue with
    | exception Queue.Empty -> ()
    | h ->
        set_queue_gauge ();
        (match Hashtbl.find_opt pending h with
        | None -> ()
        | Some (q, waiters) ->
            (* A computation exception must not kill the daemon: waiters
               get a structured 500 and nothing is cached. *)
            let body =
              match compute_traced q with
              | body ->
                  Obs.Counter.incr computed_total;
                  cache_response q body;
                  body
              | exception e ->
                  Obs.Counter.incr error_responses_total;
                  error_body
                    { code = 500;
                      message = "internal error: " ^ Printexc.to_string e }
            in
            Hashtbl.remove pending h;
            List.iter (fun c -> reply c body) (List.rev !waiters))
  in
  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let finally () =
    (* Stragglers get a structured refusal, not a hung connection. *)
    Queue.clear queue;
    Hashtbl.iter
      (fun _ (_, waiters) ->
        List.iter
          (fun c -> reply c (error_body { code = 503; message = "shutting down" }))
          !waiters)
      pending;
    Hashtbl.reset pending;
    List.iter (fun c -> close_fd c.fd) !conns;
    conns := [];
    close_fd listen_fd;
    Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) unix_path;
    List.iter (fun (s, b) -> Sys.set_signal s b) previous;
    Sys.set_signal Sys.sigpipe prev_pipe
  in
  Fun.protect ~finally (fun () ->
      while not !stop do
        conns :=
          List.filter
            (fun c -> if c.alive then true else (close_fd c.fd; false))
            !conns;
        Obs.Gauge.set connections_gauge (float_of_int (List.length !conns));
        (* Exhaust readiness before computing: accept every backlogged
           connection and drain every readable one until select reports
           nothing, so all the requests that piled up during the previous
           computation land on the pending table (coalescing duplicates)
           before the next computation starts.  Zero timeout while work is
           queued — between computations we pump, never block. *)
        let rec pump timeout =
          match
            Unix.select
              (listen_fd
              :: List.filter_map
                   (fun c -> if c.alive then Some c.fd else None)
                   !conns)
              [] [] timeout
          with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | readable, _, _ ->
              List.iter
                (fun fd ->
                  if fd = listen_fd then accept_conn ()
                  else
                    match List.find_opt (fun c -> c.fd = fd) !conns with
                    | Some conn when conn.alive -> read_conn conn
                    | _ -> ())
                readable;
              if not !stop then pump 0.
        in
        pump (if Queue.is_empty queue then 0.2 else 0.);
        if (not !stop) && not (Queue.is_empty queue) then compute_one ()
      done)
