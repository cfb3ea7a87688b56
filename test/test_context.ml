(* Distributed trace-context propagation: pinned mint vectors, wire-form
   parsing, parent/child linkage — in-process and across a real forked
   `collect --shards 2` coordinator — and the canonical trace-merge
   algebra (order-invariance, dedup idempotence, orphan detection).

   The merge law is checked on the serialized bytes: `obs trace-merge`
   from any input order must produce byte-identical timelines, which is
   the property test/monitor_smoke.t relies on. *)

(* Install an inherited parent before anything forces the lazy context:
   this test process itself plays the child half of the env-var
   inheritance round trip. *)
let wire_parent = "00112233445566aa-8899aabbccddeeff"
let () = Unix.putenv Obs.Context.env_var wire_parent

let is_hex_id s =
  String.length s = 16
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

(* ------------------------------------------------------- mint and wire *)

(* Pinned vectors: the context is derived by content hash from the run id,
   so a changed derivation breaks every recorded parent/child linkage —
   these fail loudly on drift. *)
let test_pinned_mint () =
  let c = Obs.Context.mint ~run_id:"00000000000000aa" in
  Alcotest.(check string) "pinned trace id" "212a48ba9008d48e"
    c.Obs.Context.trace_id;
  Alcotest.(check string) "pinned span id" "d8250e735ea5bacc"
    c.Obs.Context.span_id;
  Alcotest.(check string) "root has no parent" "" c.Obs.Context.parent_span_id

let test_wire_roundtrip () =
  let c = Obs.Context.mint ~run_id:"00000000000000ab" in
  match Obs.Context.of_string (Obs.Context.to_string c) with
  | Some p ->
      Alcotest.(check string) "trace id survives" c.Obs.Context.trace_id
        p.Obs.Context.trace_id;
      Alcotest.(check string) "span id survives" c.Obs.Context.span_id
        p.Obs.Context.span_id;
      Alcotest.(check string) "wire form carries no parent" ""
        p.Obs.Context.parent_span_id
  | None -> Alcotest.fail "minted context does not re-parse"

let test_wire_malformed () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (Obs.Context.of_string s = None))
    [ "";
      "zz";
      "00112233445566aa";
      "00112233445566aa+8899aabbccddeeff";
      "00112233445566AA-8899aabbccddeeff";
      "00112233445566aa-8899aabbccddeef";
      "00112233445566aa-8899aabbccddeeffe";
      "0011223344556-6aa8899aabbccddeeff" ]

let test_child_linkage () =
  let parent = Obs.Context.mint ~run_id:"00000000000000aa" in
  let child = Obs.Context.child parent ~run_id:"00000000000000ab" in
  Alcotest.(check string) "trace id inherited" parent.Obs.Context.trace_id
    child.Obs.Context.trace_id;
  Alcotest.(check string) "parent span recorded" parent.Obs.Context.span_id
    child.Obs.Context.parent_span_id;
  Alcotest.(check bool) "own span is fresh" true
    (child.Obs.Context.span_id <> parent.Obs.Context.span_id
    && is_hex_id child.Obs.Context.span_id)

let test_env_inheritance () =
  let c = Obs.Context.current () in
  Alcotest.(check string) "trace id from HETARCH_TRACE_PARENT"
    "00112233445566aa" c.Obs.Context.trace_id;
  Alcotest.(check string) "parent span from HETARCH_TRACE_PARENT"
    "8899aabbccddeeff" c.Obs.Context.parent_span_id;
  Alcotest.(check bool) "own span minted fresh" true
    (is_hex_id c.Obs.Context.span_id
    && c.Obs.Context.span_id <> "8899aabbccddeeff");
  (* every observability stamp carries all three fields *)
  match Obs.Json.member "run" (Obs.Snapshot.to_json (Obs.Snapshot.capture ())) with
  | Some (Obs.Json.Obj kvs) ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " stamped") true (List.mem_assoc k kvs))
        [ "id"; "shard"; "trace_id"; "span_id"; "parent_span_id" ]
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
       "HETARCH_TRACE_PARENT=old-parent"; "HOME=/root" |]
  in
  Alcotest.(check (list string))
    "run-id pin and stale parent dropped, new parent appended"
    [ "PATH=/usr/bin"; "HOME=/root"; "HETARCH_TRACE_PARENT=" ^ wire_parent ]
    (Array.to_list (Collect.Fleet.child_env ~trace_parent:wire_parent env))

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

(* Spawn the real coordinator with a clean context (the putenv above must
   not leak in, or the coordinator itself would parent under our synthetic
   wire_parent and the orphan assertions below would shift). *)
let run_coordinator ~trace =
  let argv =
    [| hetarch_bin; "collect"; "threshold"; "--seed"; "7"; "--max-shots";
       "256"; "--batch"; "128"; "--shards"; "2"; "--trace"; trace |]
  in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun b ->
           not
             (String.length b >= 21
             && String.sub b 0 21 = "HETARCH_TRACE_PARENT="))
    |> Array.of_list
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process_env hetarch_bin argv env Unix.stdin devnull
          Unix.stderr)
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "collect --shards 2 coordinator failed"

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

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_forked_shards_and_merge () =
  with_tmp_dir (fun dir ->
      let trace = Filename.concat dir "trace.jsonl" in
      run_coordinator ~trace;
      let coord = run_meta trace in
      let s0 = run_meta (trace ^ ".shard0") in
      let s1 = run_meta (trace ^ ".shard1") in
      let coord_span = meta_field "span_id" coord in
      (* one trace id fleet-wide, shard spans parent under the coordinator *)
      Alcotest.(check string) "coordinator is a root" ""
        (meta_field "parent_span_id" coord);
      List.iteri
        (fun i s ->
          let lbl n = Printf.sprintf "shard%d %s" i n in
          Alcotest.(check string) (lbl "trace id")
            (meta_field "trace_id" coord)
            (meta_field "trace_id" s);
          Alcotest.(check string) (lbl "parent span") coord_span
            (meta_field "parent_span_id" s))
        [ s0; s1 ];
      Alcotest.(check bool) "shard spans distinct" true
        (meta_field "span_id" s0 <> meta_field "span_id" s1
        && meta_field "span_id" s0 <> coord_span);
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
      (* shards merged without their coordinator orphan its span id *)
      let _, partial = Obs.Trace_merge.merge (List.tl texts) in
      Alcotest.(check (list string)) "missing coordinator is an orphan"
        [ coord_span ] partial.Obs.Trace_merge.orphans)

let () =
  Alcotest.run "context"
    [ ( "context",
        [ Alcotest.test_case "pinned mint vectors" `Quick test_pinned_mint;
          Alcotest.test_case "wire round trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "malformed wire forms" `Quick test_wire_malformed;
          Alcotest.test_case "child linkage" `Quick test_child_linkage;
          Alcotest.test_case "env-var inheritance" `Quick test_env_inheritance
        ] );
      ( "fleet",
        [ Alcotest.test_case "shard argv rewrite" `Quick
            test_shard_argv_rewrite;
          Alcotest.test_case "child env" `Quick test_child_env;
          Alcotest.test_case "forked shards + trace merge" `Quick
            test_forked_shards_and_merge ] ) ]
