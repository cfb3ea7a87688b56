(* Serve daemon: request codec (malformed input -> structured errors, never
   a crash or hang), pinned request-hash wire vectors, warm-tier byte
   identity at any --jobs, and the end-to-end daemon contract — split
   socket reads, oversized bodies, and SIGTERM shutdown that leaves valid
   registry artifacts exactly once. *)

let parse_err line =
  match Serve.parse_request line with
  | Error e -> e
  | Ok _ -> Alcotest.failf "expected a parse error for %S" line

let parse_query line =
  match Serve.parse_request line with
  | Ok (Serve.Query q) -> q
  | Ok (Serve.Control _) -> Alcotest.failf "expected a query for %S" line
  | Error e -> Alcotest.failf "unexpected error %d (%s) for %S" e.Serve.code e.Serve.message line

(* ------------------------------------------------------ codec errors *)

let test_codec_errors () =
  let code line = (parse_err line).Serve.code in
  Alcotest.(check int) "malformed JSON" 400 (code "{nope");
  Alcotest.(check int) "trailing garbage" 400 (code "{\"kind\":\"ping\"} {}");
  Alcotest.(check int) "non-object body" 400 (code "[1,2,3]");
  Alcotest.(check int) "missing kind" 400 (code "{}");
  Alcotest.(check int) "non-string kind" 400 (code "{\"kind\":3}");
  Alcotest.(check int) "unknown kind" 404 (code "{\"kind\":\"frobnicate\"}");
  Alcotest.(check int) "unknown field" 400
    (code "{\"kind\":\"threshold\",\"distence\":5}");
  Alcotest.(check int) "wrong type" 400
    (code "{\"kind\":\"threshold\",\"distance\":\"five\"}");
  Alcotest.(check int) "out of range" 400
    (code "{\"kind\":\"threshold\",\"distance\":99}");
  Alcotest.(check int) "unknown code name" 400
    (code "{\"kind\":\"uec\",\"code\":\"NOPE\"}");
  (* Names the code tables would reject: a distance below 2, more qubits
     than the lookup decoder takes (SC6 has 36), or more checks of one type
     than its tables hold (REP18 has 17, REP30 29; a REP30 table would
     take minutes and gigabytes).  Each is a 400 from the parser, never an
     exception out of it. *)
  List.iter
    (fun name ->
      match Serve.parse_request (Printf.sprintf {|{"kind":"uec","code":"%s"}|} name) with
      | Error e -> Alcotest.(check int) (name ^ " rejected") 400 e.Serve.code
      | Ok _ -> Alcotest.failf "%s accepted" name
      | exception e -> Alcotest.failf "%s raised %s" name (Printexc.to_string e))
    [ "SC0"; "SC1"; "REP1"; "SC-3"; "SC6"; "REP18"; "REP30"; "REP31"; "SC99999999999" ];
  List.iter
    (fun name ->
      ignore (parse_query (Printf.sprintf {|{"kind":"uec","code":"%s","shots":1}|} name)))
    [ "SC2"; "SC5"; "REP2"; "REP17"; "RM"; "17QCC"; "ST"; "SHOR" ];
  List.iter
    (fun c ->
      Alcotest.(check bool) (c.Code.name ^ " admitted") true
        (Serve.parse_request (Printf.sprintf {|{"kind":"uec","code":"%s"}|} c.Code.name)
         |> Result.is_ok))
    Codes.paper_codes;
  Alcotest.(check int) "control kind with stray field" 400
    (code "{\"kind\":\"ping\",\"x\":1}");
  let oversized =
    Printf.sprintf "{\"kind\":\"threshold\",\"pad\":\"%s\"}"
      (String.make Serve.max_request_bytes 'x')
  in
  Alcotest.(check int) "oversized body" 413 (code oversized);
  (* error bodies are themselves parseable one-line JSON *)
  let body = Serve.error_body { Serve.code = 429; message = "queue full" } in
  (match Obs.Json.member "error" (Obs.Json.parse body) with
  | Some e ->
      Alcotest.(check int) "error code round-trips" 429
        (Obs.Json.to_int (Option.get (Obs.Json.member "code" e)))
  | None -> Alcotest.fail "error body without error object");
  Alcotest.(check bool) "error body is one line" false
    (String.contains body '\n')

(* ------------------------------------------------- request identity *)

let test_pinned_hashes () =
  (* Wire-compatibility vectors: these hashes key persisted responses, so
     a change here invalidates every warm store in the fleet.  Bump the
     protocol version tag when the identity scheme must change. *)
  List.iter
    (fun (line, expect) ->
      Alcotest.(check string) line expect (parse_query line).Serve.hash)
    [ ("{\"kind\":\"threshold\",\"shots\":16,\"seed\":1}", "7b1a24fa9b5a045b");
      ("{\"kind\":\"dse\"}", "4c5ff39bcead6a4c");
      ("{\"kind\":\"uec\",\"shots\":16}", "344c5ba2d5a97e4b");
      ("{\"kind\":\"distill\",\"shots\":16}", "3245442b42eda244") ]

let test_normalization () =
  let h line = (parse_query line).Serve.hash in
  Alcotest.(check string) "field order is irrelevant"
    (h "{\"kind\":\"threshold\",\"shots\":16,\"seed\":1}")
    (h "{\"kind\":\"threshold\",\"seed\":1,\"shots\":16}");
  Alcotest.(check string) "explicit defaults hash like omitted ones"
    (h "{\"kind\":\"threshold\",\"shots\":16,\"seed\":1}")
    (h "{\"kind\":\"threshold\",\"shots\":16,\"seed\":1,\"distance\":3,\"t_data\":1e-4}");
  Alcotest.(check string) "number spelling is canonicalized"
    (h "{\"kind\":\"uec\",\"ts\":0.05}")
    (h "{\"kind\":\"uec\",\"ts\":5e-2}");
  Alcotest.(check bool) "different parameters, different identity" false
    (h "{\"kind\":\"threshold\",\"shots\":16,\"seed\":1}"
    = h "{\"kind\":\"threshold\",\"shots\":16,\"seed\":2}")

(* ------------------------------------------- deterministic answers *)

let test_answer_bytes_jobs_invariant () =
  let q = parse_query "{\"kind\":\"threshold\",\"shots\":512,\"seed\":9}" in
  let saved = Parallel.jobs () in
  Parallel.set_jobs 1;
  let one = Serve.compute_answer q in
  Parallel.set_jobs 2;
  let two = Serve.compute_answer q in
  Parallel.set_jobs saved;
  Alcotest.(check string) "byte-identical at --jobs 1 and 2" one two;
  (* warm tier returns exactly the cached bytes *)
  Serve.cache_response q one;
  (match Serve.warm_answer q with
  | Some body -> Alcotest.(check string) "warm answer is byte-identical" one body
  | None -> Alcotest.fail "cached response not found in warm tier");
  Alcotest.(check string) "answer() serves the warm bytes" one (Serve.answer q)

(* A warm daemon's per-request cost, socket I/O aside: parse one request
   line, normalize and hash it, and answer from the memory tier.  This is
   the daemon's hot loop, so its allocation is budgeted twice: a repeated
   line is a line-table hit (4 words measured; the budget is that plus 10%,
   rounded up), and a never-seen line still pays the full parse within 2048
   words. *)
let test_warm_request_alloc () =
  let line = {|{"kind":"threshold","distance":3,"shots":1024,"seed":1}|} in
  let q = parse_query line in
  Serve.cache_response q (Serve.compute_answer q);
  let warm_request line () =
    match Serve.parse_request line with
    | Ok (Serve.Query q) ->
        if Serve.warm_answer q = None then Alcotest.fail "warm tier missed"
    | _ -> Alcotest.fail "request line did not parse"
  in
  let words = Alloc.min_words (warm_request line) in
  Alcotest.(check bool)
    (Printf.sprintf "repeated request %d minor words, budget 5" words)
    true (words <= 5);
  (* The same query spelled with a different amount of leading space each
     run, so every measured parse misses the line table. *)
  let fresh = Array.init 8 (fun i -> String.make (i + 1) ' ' ^ line) in
  let next = ref 0 in
  let cold =
    Alloc.min_words (fun () ->
        let l = fresh.(!next) in
        incr next;
        warm_request l ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "never-seen request %d minor words, budget 2048" cold)
    true (cold <= 2048)

let test_answer_matches_campaign_stream () =
  (* The serve answer must be byte-comparable with what a collect campaign
     would record for batch 0 of the same task at the same seed. *)
  let q = parse_query "{\"kind\":\"threshold\",\"shots\":256,\"seed\":5}" in
  let task =
    Surface_circuit.collect_task (Surface_circuit.default ~distance:3)
  in
  let expect =
    Collect.Task.sample task
      (Collect.batch_rng ~seed:5 ~id:(Collect.Task.id task) ~index:0)
      256
  in
  let body = Obs.Json.parse (Serve.compute_answer q) in
  Alcotest.(check int) "errors equal the campaign batch" expect
    (Obs.Json.to_int (Option.get (Obs.Json.member "errors" body)));
  Alcotest.(check string) "task id matches the campaign task"
    (Collect.Task.id task)
    (match Obs.Json.member "task" body with
    | Some (Obs.Json.String s) -> s
    | _ -> "")

(* ------------------------------------------------------- line table *)

let line_hits () =
  Obs.Counter.value (Obs.Counter.create "serve.line_hits_total")

let oversized_line =
  Printf.sprintf "{\"kind\":\"threshold\",\"pad\":\"%s\"}"
    (String.make Serve.max_request_bytes 'x')

(* Every query kind, omitted and spelled-out defaults, reordered fields,
   number spellings, the control kinds, and every error class of
   [test_codec_errors]. *)
let corpus =
  [ {|{"kind":"threshold","shots":16,"seed":1}|};
    {|{"kind":"threshold","seed":1,"shots":16}|};
    {|{"kind":"threshold","shots":16,"seed":1,"distance":3,"t_data":1e-4}|};
    {|{"kind":"uec","shots":16}|};
    {|{"kind":"uec","ts":0.05}|};
    {|{"kind":"uec","ts":5e-2}|};
    {|{"kind":"uec","code":"SC3","rounds":3,"arch":"het","ts":0.05,"shots":1024,"seed":1}|};
    {|{"kind":"distill","shots":16}|};
    {|{"kind":"distill","arch":"hom","rate_hz":2e6,"horizon":5e-5,"min_delivered":2}|};
    {|{"kind":"dse"}|};
    {|{"kind":"dse","serialized":false,"weight":6,"op":"stabilizer"}|};
    {|{"kind":"ping"}|};
    {|{"kind":"stats"}|};
    {|{"kind":"shutdown"}|};
    "{nope";
    {|{"kind":"ping"} {}|};
    "[1,2,3]";
    "{}";
    {|{"kind":3}|};
    {|{"kind":"frobnicate"}|};
    {|{"kind":"threshold","distence":5}|};
    {|{"kind":"threshold","distance":"five"}|};
    {|{"kind":"threshold","distance":99}|};
    {|{"kind":"uec","code":"NOPE"}|};
    {|{"kind":"ping","x":1}|};
    oversized_line ]

let test_line_table_repeats () =
  List.iter
    (fun line ->
      let label = if String.length line > 80 then String.sub line 0 80 else line in
      let first = Serve.parse_request line in
      let before = line_hits () in
      let second = Serve.parse_request line in
      let hits = line_hits () - before in
      Alcotest.(check bool) ("repeat equals first: " ^ label) true (first = second);
      match first, second with
      | Ok (Serve.Query _), _ ->
          Alcotest.(check int) ("query repeat is a table hit: " ^ label) 1 hits;
          (* a leading space makes a line the table has never seen: the
             stored result equals a fresh parse *)
          Alcotest.(check bool) ("stored = fresh parse: " ^ label) true
            (second = Serve.parse_request (" " ^ line))
      | Ok (Serve.Control _), _ ->
          Alcotest.(check int) ("control lines are parsed every time: " ^ label) 0 hits
      | Error e1, Error e2 ->
          Alcotest.(check int) ("error lines are parsed every time: " ^ label) 0 hits;
          Alcotest.(check int) ("error repeat keeps its code: " ^ label) e1.Serve.code
            e2.Serve.code
      | Error _, Ok _ -> Alcotest.failf "error turned into a result: %s" label)
    corpus

let test_line_table_flood () =
  let line seed = Printf.sprintf {|{"kind":"threshold","shots":16,"seed":%d}|} seed in
  let n = Serve.line_table_capacity + 300 in
  for seed = 2 to n + 1 do
    ignore (parse_query (line seed));
    if Serve.line_table_length () > Serve.line_table_capacity then
      Alcotest.failf "line table holds %d lines, bound %d"
        (Serve.line_table_length ()) Serve.line_table_capacity
  done;
  (* answers after the flood: every seed, evicted or still stored, parses
     to the identity its normalized fields hash to, and the pinned vector
     still holds *)
  List.iter
    (fun seed ->
      let q = parse_query (line seed) in
      Alcotest.(check string)
        (Printf.sprintf "seed %d identity" seed)
        (Serve.request_hash ~kind:q.Serve.kind ~fields:q.Serve.fields)
        q.Serve.hash;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d repeat = fresh parse" seed)
        true
        (Serve.parse_request (line seed) = Serve.parse_request (" " ^ line seed)))
    [ 2; 3; n / 2; n; n + 1 ];
  Alcotest.(check string) "pinned vector after the flood" "7b1a24fa9b5a045b"
    (parse_query {|{"kind":"threshold","shots":16,"seed":1}|}).Serve.hash

let test_line_table_length_cap () =
  let short = {|{"kind":"threshold","shots":16,"seed":1}|} in
  (* the same query with JSON whitespace between tokens, past the cap *)
  let long =
    let pad = String.make (Serve.line_table_max_bytes / 2) ' ' in
    Printf.sprintf {|{"kind":"threshold",%s"shots":16,%s"seed":1}|} pad pad
  in
  Alcotest.(check bool) "line exceeds the cap" true
    (String.length long > Serve.line_table_max_bytes);
  let stored = Serve.line_table_length () in
  let before = line_hits () in
  let first = parse_query long in
  let second = parse_query long in
  Alcotest.(check int) "long lines never hit the table" 0 (line_hits () - before);
  Alcotest.(check int) "long lines are not stored" stored (Serve.line_table_length ());
  Alcotest.(check string) "long line, same identity" (parse_query short).Serve.hash
    first.Serve.hash;
  Alcotest.(check bool) "long line parses equal on a repeat" true (first = second)

(* ------------------------------------------------- live daemon tests *)

let with_tmp_dir f =
  let dir = Filename.temp_file "hetarch_serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ -> ()) (fun () -> f dir)

let hetarch_bin =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "main.exe")

let spawn_daemon ?(obs_dir = None) ~socket () =
  let argv =
    [| hetarch_bin; "serve"; "--socket"; socket |]
  in
  let argv =
    match obs_dir with
    | None -> argv
    | Some d -> Array.append argv [| "--obs-dir"; d |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process hetarch_bin argv Unix.stdin devnull devnull)
  in
  (* wait until the daemon answers rather than sleeping *)
  let pong =
    Serve.request ~retry_for:10. (Serve.Unix_path socket) "{\"kind\":\"ping\"}"
  in
  Alcotest.(check bool) "daemon answers ping" true
    (match Obs.Json.member "ok" (Obs.Json.parse pong) with
    | Some (Obs.Json.Bool true) -> true
    | _ -> false);
  pid

(* A client connection keeps the bytes read past the last line it
   returned: the daemon may answer pipelined requests in a single read. *)
type conn = { fd : Unix.file_descr; pending : Buffer.t }

let connect_unix socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  { fd; pending = Buffer.create 256 }

let send_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let recv_line c =
  let chunk = Bytes.create 1024 in
  let rec go () =
    let s = Buffer.contents c.pending in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear c.pending;
        Buffer.add_substring c.pending s (i + 1) (String.length s - i - 1);
        String.sub s 0 i
    | None -> (
        match Unix.read c.fd chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "connection closed before a response line"
        | n ->
            Buffer.add_subbytes c.pending chunk 0 n;
            go ())
  in
  go ()

let test_split_reads_and_pipelining () =
  with_tmp_dir (fun dir ->
      let socket = Filename.concat dir "serve.sock" in
      let pid = spawn_daemon ~socket () in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        (fun () ->
          (* one request delivered byte-dribbled across many writes *)
          let c = connect_unix socket in
          let line = "{\"kind\":\"threshold\",\"shots\":64,\"seed\":3}\n" in
          String.iter
            (fun ch ->
              send_all c.fd (String.make 1 ch);
              if ch = ',' then ignore (Unix.select [] [] [] 0.01))
            line;
          let split_resp = recv_line c in
          Unix.close c.fd;
          (* the same request in one piece, plus pipelined control traffic
             on a single connection *)
          let c = connect_unix socket in
          send_all c.fd (line ^ "{\"kind\":\"ping\"}\n");
          let whole_resp = recv_line c in
          let pong = recv_line c in
          Unix.close c.fd;
          Alcotest.(check string)
            "split delivery and whole delivery answer byte-identically"
            whole_resp split_resp;
          Alcotest.(check bool) "pipelined ping answered" true
            (match Obs.Json.member "ok" (Obs.Json.parse pong) with
            | Some (Obs.Json.Bool true) -> true
            | _ -> false);
          (* a burst of pipelined queries in a single write, spanning
             several daemon reads (lines cut at read boundaries, CRLF and
             LF endings mixed, control lines between queries): every line
             is answered in order, with the bytes a one-at-a-time request
             gets *)
          let variants =
            [| String.sub line 0 (String.length line - 1);
               {|{"kind":"threshold","seed":3,"shots":64}|};
               {|{"kind":"ping"}|};
               {|{"kind":"threshold","shots":32,"seed":4}|};
               {|{"kind":"uec","shots":32,"seed":4}|};
               {|{"kind":"threshold","distance":9}|} |]
          in
          let alone =
            Array.map (fun l -> Serve.request (Serve.Unix_path socket) l) variants
          in
          let burst = 240 in
          let pick k = k mod Array.length variants in
          let payload =
            String.concat ""
              (List.init burst (fun k ->
                   variants.(pick k) ^ if k mod 5 = 0 then "\r\n" else "\n"))
          in
          let c = connect_unix socket in
          send_all c.fd payload;
          for k = 0 to burst - 1 do
            Alcotest.(check string)
              (Printf.sprintf "pipelined answer %d" k)
              alone.(pick k) (recv_line c)
          done;
          Unix.close c.fd;
          (* an over-long line without a newline is answered 413 and the
             connection closed — the daemon neither crashes nor hangs *)
          let c = connect_unix socket in
          send_all c.fd (String.make (Serve.max_request_bytes + 1024) 'j');
          let resp = recv_line c in
          (match Obs.Json.member "error" (Obs.Json.parse resp) with
          | Some e ->
              Alcotest.(check int) "oversized stream -> 413" 413
                (Obs.Json.to_int (Option.get (Obs.Json.member "code" e)))
          | None -> Alcotest.fail "expected an error response");
          Unix.close c.fd;
          (* daemon survives all of the above *)
          let pong =
            Serve.request (Serve.Unix_path socket) "{\"kind\":\"ping\"}"
          in
          Alcotest.(check bool) "daemon still alive" true
            (String.length pong > 0)))

let count_final_records path =
  Obs.fold_jsonl path
    (fun acc j ->
      match Obs.Json.member "final" j with
      | Some (Obs.Json.Bool true) -> acc + 1
      | _ -> acc)
    0

let test_sigterm_finalizes_once () =
  with_tmp_dir (fun dir ->
      let socket = Filename.concat dir "serve.sock" in
      let obs = Filename.concat dir "obs" in
      let pid = spawn_daemon ~obs_dir:(Some obs) ~socket () in
      Unix.kill pid Sys.sigterm;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED c -> Alcotest.failf "daemon exited %d on SIGTERM" c
      | _ -> Alcotest.fail "daemon killed by signal instead of exiting");
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket);
      (* the registry holds exactly one snapshot for the run *)
      let index = Filename.concat obs "index.jsonl" in
      let entries = Obs.fold_jsonl index (fun n _ -> n + 1) 0 in
      Alcotest.(check int) "one registry entry" 1 entries;
      (* and the telemetry stream closed with exactly one final record *)
      let tdir = Filename.concat obs "telemetry" in
      let streams = Sys.readdir tdir in
      Alcotest.(check int) "one telemetry stream" 1 (Array.length streams);
      Alcotest.(check int) "exactly one final telemetry record" 1
        (count_final_records (Filename.concat tdir streams.(0))))

let () =
  Alcotest.run "serve"
    [ ( "codec",
        [ Alcotest.test_case "structured errors" `Quick test_codec_errors;
          Alcotest.test_case "pinned request-hash vectors" `Quick
            test_pinned_hashes;
          Alcotest.test_case "normalization" `Quick test_normalization ] );
      ( "line table",
        [ Alcotest.test_case "repeats parse equal" `Quick test_line_table_repeats;
          Alcotest.test_case "flood stays bounded" `Quick test_line_table_flood;
          Alcotest.test_case "long lines parsed every time" `Quick
            test_line_table_length_cap ] );
      ( "answers",
        [ Alcotest.test_case "byte identity across --jobs and tiers" `Quick
            test_answer_bytes_jobs_invariant;
          Alcotest.test_case "matches campaign batch stream" `Quick
            test_answer_matches_campaign_stream ;
          Alcotest.test_case "warm request alloc budget" `Quick
            test_warm_request_alloc ] );
      ( "daemon",
        [ Alcotest.test_case "split reads, pipelining, oversized" `Quick
            test_split_reads_and_pipelining;
          Alcotest.test_case "SIGTERM finalizes exactly once" `Quick
            test_sigterm_finalizes_once ] ) ]
