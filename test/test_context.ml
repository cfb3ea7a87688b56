(* Fleet linkage by run id: a child names its parent's run id, handed down
   in HETARCH_PARENT_RUN — in-process, through a malformed value, and across
   a real forked `collect --shards 2` coordinator — and the canonical
   trace-merge algebra (order-invariance, dedup idempotence, orphan
   detection).

   The merge law is checked on the serialized bytes: `obs trace-merge`
   from any input order must produce byte-identical timelines, which is
   the property test/monitor_smoke.t relies on. *)

(* Install an inherited parent before anything forces the lazy parent:
   this test process itself plays the child half of the env-var
   inheritance round trip. *)
let parent_run = "00112233445566aa"
let () = Unix.putenv Obs.Run.parent_env parent_run

let test_env_inheritance () =
  Alcotest.(check string) "parent from HETARCH_PARENT_RUN" parent_run (Obs.Run.parent ());
  Alcotest.(check bool) "own run id differs" true (Obs.Run.id () <> parent_run);
  (* the snapshot names the run once: id, shard and parent *)
  match Obs.Json.member "run" (Obs.Snapshot.to_json (Obs.Snapshot.capture ())) with
  | Some (Obs.Json.Obj kvs) ->
      Alcotest.(check (list string)) "run object keys"
        [ "id"; "shard"; "parent"; "argv"; "started_unix"; "wall_seconds"; "jobs" ]
        (List.map fst kvs);
      Alcotest.(check bool) "parent stamped" true
        (List.assoc "parent" kvs = Obs.Json.String parent_run)
  | _ -> Alcotest.fail "snapshot has no run object"

(* ------------------------------------------------- child command lines *)

let test_shard_argv_rewrite () =
  let argv =
    [| "hetarch"; "collect"; "threshold"; "--trace"; "t.jsonl";
       "--csv=out.csv"; "--shards"; "2"; "--seed"; "7" |]
  in
  Alcotest.(check (list string)) "path flags suffixed, shard appended"
    [ "hetarch"; "collect"; "threshold"; "--trace"; "t.jsonl.shard1";
      "--csv=out.csv.shard1"; "--shards"; "2"; "--seed"; "7"; "--shard"; "1" ]
    (Collect.Fleet.shard_argv ~shard:1 argv)

let test_child_env () =
  let env =
    [| "PATH=/usr/bin"; "HETARCH_RUN_ID=00000000000000aa";
       "HETARCH_PARENT_RUN=00000000000000ff"; "HOME=/root" |]
  in
  Alcotest.(check (list string))
    "run-id pin and stale parent dropped, new parent appended"
    [ "PATH=/usr/bin"; "HOME=/root"; "HETARCH_PARENT_RUN=" ^ parent_run ]
    (Array.to_list (Collect.Fleet.child_env ~parent:parent_run env))

(* ------------------------------- forked coordinator, end to end *)

let with_tmp_dir f =
  let dir = Filename.temp_file "hetarch_ctx" "" in
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

(* The CLI binary is a declared dependency of this test (see test/dune)
   and lives next to the test executable in the build tree — resolve it
   from there so both `dune runtest` and `dune exec` find it. *)
let hetarch_bin =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "main.exe")

(* Run the CLI with [parent] as its HETARCH_PARENT_RUN binding, or none
   (the putenv above must not leak into the coordinator, or it would
   parent under our synthetic parent_run and the orphan assertions below
   would shift).  Stdout goes to /dev/null, stderr to [stderr]. *)
let run_hetarch ?parent ?(stderr = Unix.stderr) args =
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun b -> not (String.starts_with ~prefix:(Obs.Run.parent_env ^ "=") b))
    |> List.append (Option.to_list (Option.map (( ^ ) (Obs.Run.parent_env ^ "=")) parent))
    |> Array.of_list
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process_env hetarch_bin
          (Array.of_list (hetarch_bin :: args))
          env Unix.stdin devnull stderr)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail ("hetarch " ^ String.concat " " args ^ " failed")

let run_meta path =
  let meta =
    Obs.fold_jsonl path
      (fun acc j ->
        match acc with
        | Some _ -> acc
        | None -> (
            match (Obs.Json.member "ph" j, Obs.Json.member "name" j) with
            | Some (Obs.Json.String "M"), Some (Obs.Json.String "hetarch.run")
              ->
                Obs.Json.member "args" j
            | _ -> acc))
      None
  in
  match meta with
  | Some args -> args
  | None -> Alcotest.fail ("no hetarch.run metadata event in " ^ path)

let meta_field name args =
  match Obs.Json.member name args with
  | Some (Obs.Json.String s) -> s
  | _ -> ""

(* The "run" object of a --metrics snapshot. *)
let snapshot_run path = (Obs.Snapshot.load path).Obs.Snapshot.run

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A malformed parent warns once on stderr and leaves the process a root. *)
let test_malformed_parent () =
  with_tmp_dir (fun dir ->
      List.iteri
        (fun i bad ->
          let metrics = Filename.concat dir (Printf.sprintf "m%d.json" i) in
          let err = Filename.concat dir (Printf.sprintf "err%d" i) in
          let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () -> run_hetarch ~parent:bad ~stderr:fd [ "devices"; "--metrics"; metrics ]);
          Alcotest.(check string)
            (Printf.sprintf "%S warned once" bad)
            (Printf.sprintf
               "hetarch: ignoring malformed HETARCH_PARENT_RUN %S (want 16 hex digits)\n" bad)
            (read_file err);
          Alcotest.(check string) (Printf.sprintf "%S leaves a root" bad) ""
            (snapshot_run metrics).parent)
        [ "";
          "zz";
          "00112233445566AA";
          "00112233445566a";
          "00112233445566aa0";
          "00112233445566aa-8899aabbccddeeff" ])

let test_forked_shards_and_merge () =
  with_tmp_dir (fun dir ->
      let trace = Filename.concat dir "trace.jsonl" in
      let metrics = Filename.concat dir "m.json" in
      run_hetarch
        [ "collect"; "threshold"; "--seed"; "7"; "--max-shots"; "256"; "--batch"; "128";
          "--shards"; "2"; "--trace"; trace; "--metrics"; metrics ];
      let coord = run_meta trace in
      let coord_id = meta_field "id" coord in
      (* shards name the coordinator's run id as their parent, in the trace
         metadata and in the snapshot alike *)
      Alcotest.(check string) "coordinator is a root" "" (meta_field "parent" coord);
      Alcotest.(check string) "coordinator snapshot names its run" coord_id
        (snapshot_run metrics).run_id;
      Alcotest.(check string) "coordinator snapshot is a root" ""
        (snapshot_run metrics).parent;
      let shard_ids =
        List.map
          (fun i ->
            let sfx = Printf.sprintf ".shard%d" i in
            let meta = run_meta (trace ^ sfx) and snap = snapshot_run (metrics ^ sfx) in
            let lbl n = Printf.sprintf "shard%d %s" i n in
            Alcotest.(check string) (lbl "trace parent") coord_id (meta_field "parent" meta);
            Alcotest.(check string) (lbl "snapshot parent") coord_id snap.parent;
            Alcotest.(check string) (lbl "one run id") (meta_field "id" meta) snap.run_id;
            snap.run_id)
          [ 0; 1 ]
      in
      Alcotest.(check int) "run ids distinct" 3
        (List.length (List.sort_uniq compare (coord_id :: shard_ids)));
      (* no per-span copy of the identity *)
      Obs.fold_jsonl trace
        (fun () j ->
          if Obs.Json.member "ph" j = Some (Obs.Json.String "X") then
            Alcotest.(check bool) "span args carry no run identity" true
              (List.for_all
                 (fun k -> Obs.Json.member k (Option.get (Obs.Json.member "args" j)) = None)
                 [ "id"; "parent" ]))
        ();
      (* canonical merge: any input order, and re-merging duplicates,
         produces the same bytes *)
      let texts =
        List.map read_file [ trace; trace ^ ".shard0"; trace ^ ".shard1" ]
      in
      let fwd, stats = Obs.Trace_merge.merge texts in
      let rev, _ = Obs.Trace_merge.merge (List.rev texts) in
      let dup, _ = Obs.Trace_merge.merge (texts @ [ List.nth texts 1 ]) in
      Alcotest.(check string) "merge is order-invariant (bytes)" fwd rev;
      Alcotest.(check string) "merge deduplicates by content (bytes)" fwd dup;
      Alcotest.(check int) "three sources" 3 stats.Obs.Trace_merge.sources;
      Alcotest.(check (list string)) "full fleet has no orphans" []
        stats.Obs.Trace_merge.orphans;
      (* shards merged without their coordinator orphan its run id *)
      let _, partial = Obs.Trace_merge.merge (List.tl texts) in
      Alcotest.(check (list string)) "missing coordinator is an orphan"
        [ coord_id ] partial.Obs.Trace_merge.orphans)

let () =
  Alcotest.run "context"
    [ ( "context",
        [ Alcotest.test_case "malformed wire forms" `Quick test_malformed_parent;
          Alcotest.test_case "env-var inheritance" `Quick test_env_inheritance ] );
      ( "fleet",
        [ Alcotest.test_case "shard argv rewrite" `Quick test_shard_argv_rewrite;
          Alcotest.test_case "child env" `Quick test_child_env;
          Alcotest.test_case "forked shards + trace merge" `Quick
            test_forked_shards_and_merge ] ) ]
