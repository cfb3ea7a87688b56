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
      ( "answers",
        [ Alcotest.test_case "byte identity across --jobs and tiers" `Quick
            test_answer_bytes_jobs_invariant;
          Alcotest.test_case "matches campaign batch stream" `Quick
            test_answer_matches_campaign_stream ] );
      ( "daemon",
        [ Alcotest.test_case "split reads, pipelining, oversized" `Quick
            test_split_reads_and_pipelining;
          Alcotest.test_case "SIGTERM finalizes exactly once" `Quick
            test_sigterm_finalizes_once ] ) ]
