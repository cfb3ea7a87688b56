(* Tests for the call-tree profiler, the telemetry heartbeat, and the
   snapshot/bench diff gate: tree structure and the self-time telescoping
   identity, path integrity on exception exits, folded-stack determinism
   across --jobs, delta arithmetic across Obs.reset, and regression
   detection on crafted documents. *)

let spin () = ignore (Sys.opaque_identity (Array.init 2000 (fun i -> i * i)))

let rec fold_nodes f acc nodes =
  List.fold_left
    (fun acc (n : Obs.Profile.node) -> fold_nodes f (f acc n) n.Obs.Profile.children)
    acc nodes

let names nodes = List.map (fun (n : Obs.Profile.node) -> n.Obs.Profile.name) nodes

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ tree *)

let test_tree_structure () =
  Obs.reset ();
  Obs.Trace.with_span "root" (fun () ->
      spin ();
      Obs.Trace.with_span "a" (fun () -> spin ());
      Obs.Trace.with_span "b" (fun () ->
          spin ();
          Obs.Trace.with_span "c" (fun () -> spin ()));
      Obs.Trace.with_span "a" (fun () -> spin ()));
  match Obs.Profile.tree () with
  | [ root ] ->
      Alcotest.(check string) "root name" "root" root.Obs.Profile.name;
      Alcotest.(check string) "root path" "root" root.Obs.Profile.path;
      Alcotest.(check int) "root count" 1 root.Obs.Profile.count;
      Alcotest.(check (list string))
        "children sorted by name" [ "a"; "b" ]
        (names root.Obs.Profile.children);
      let a = List.nth root.Obs.Profile.children 0 in
      let b = List.nth root.Obs.Profile.children 1 in
      Alcotest.(check int) "sibling calls aggregate" 2 a.Obs.Profile.count;
      Alcotest.(check (list string)) "nested child" [ "c" ] (names b.Obs.Profile.children);
      Alcotest.(check string) "full path" "root;b;c"
        (List.hd b.Obs.Profile.children).Obs.Profile.path;
      (* Self times are nonnegative and bounded by cumulative time. *)
      fold_nodes
        (fun () (n : Obs.Profile.node) ->
          Alcotest.(check bool)
            (n.Obs.Profile.path ^ " self within [0, cum]")
            true
            (n.Obs.Profile.self_ns >= 0L && n.Obs.Profile.self_ns <= n.Obs.Profile.cum_ns))
        () [ root ];
      (* The telescoping identity: self times summed over the whole tree
         equal the root's cumulative time (within 1% for clamping). *)
      let self_sum =
        fold_nodes
          (fun acc (n : Obs.Profile.node) -> Int64.add acc n.Obs.Profile.self_ns)
          0L [ root ]
      in
      let cum = Int64.to_float root.Obs.Profile.cum_ns in
      Alcotest.(check bool) "self times telescope to root cum" true
        (Float.abs (Int64.to_float self_sum -. cum) <= 0.01 *. cum)
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_exception_exit_paths () =
  Obs.reset ();
  Obs.Trace.with_span "outer" (fun () ->
      (try Obs.Trace.with_span "boom" (fun () -> failwith "x")
       with Failure _ -> ());
      (* The path stack must unwind on the exception exit: this sibling is a
         child of outer, not of outer;boom. *)
      Obs.Trace.with_span "next" (fun () -> ()));
  let paths = List.map (fun (p, _, _, _, _, _) -> p) (Obs.Trace.by_path ()) in
  Alcotest.(check (list string))
    "paths unwound past the raising span"
    [ "outer"; "outer;boom"; "outer;next" ]
    paths

let test_of_totals_implicit_parent () =
  (* A path whose parent never completed a span of its own (e.g. evicted or
     filtered input) gets an implicit zero-count interior node. *)
  let nodes =
    Obs.Profile.of_totals
      [ ("p;q", 3, 300L, 90, 0, 0); ("p;q;r", 2, 100L, 40, 0, 0) ]
  in
  match nodes with
  | [ p ] ->
      Alcotest.(check int) "implicit node count" 0 p.Obs.Profile.count;
      Alcotest.(check int64) "implicit self clamps to zero" 0L p.Obs.Profile.self_ns;
      let q = List.hd p.Obs.Profile.children in
      Alcotest.(check int64) "child self = cum - grandchild" 200L q.Obs.Profile.self_ns;
      Alcotest.(check int) "alloc telescopes too" 50 q.Obs.Profile.self_w;
      (* Folded output skips zero-weight lines under all weightings. *)
      Alcotest.(check string) "folded self_ns" "p;q 200\np;q;r 100\n"
        (Obs.Profile.folded nodes);
      Alcotest.(check string) "folded counts" "p;q 3\np;q;r 2\n"
        (Obs.Profile.folded ~weight:`Count nodes);
      Alcotest.(check string) "folded self alloc" "p;q 50\np;q;r 40\n"
        (Obs.Profile.folded ~weight:`Self_alloc nodes)
  | _ -> Alcotest.fail "expected a single root"

let test_top_ranking () =
  let nodes =
    Obs.Profile.of_totals
      [ ("r", 1, 1000L, 2000, 0, 0);
        ("r;cheap", 5, 100L, 1800, 0, 0);
        ("r;hot", 5, 700L, 50, 0, 0) ]
  in
  let paths ns = List.map (fun (n : Obs.Profile.node) -> n.Obs.Profile.path) ns in
  let top = Obs.Profile.top ~limit:2 nodes in
  Alcotest.(check (list string))
    "ranked by self time, descending" [ "r;hot"; "r" ] (paths top);
  (* The alloc sort key surfaces a different leader: [r;cheap] is cheap in
     time but dominates self minor words. *)
  Alcotest.(check (list string))
    "ranked by self alloc, descending" [ "r;cheap"; "r" ]
    (paths (Obs.Profile.top ~sort:`Alloc ~limit:2 nodes));
  Alcotest.(check (list string))
    "ranked by cumulative time" [ "r"; "r;hot" ]
    (paths (Obs.Profile.top ~sort:`Cum ~limit:2 nodes));
  let table = Obs.Profile.top_table nodes in
  Alcotest.(check bool) "table mentions the hot path" true (contains table "r;hot")

(* --------------------------------------------------------- determinism *)

let folded_run jobs =
  Obs.reset ();
  Obs.Trace.with_span "driver" (fun () ->
      ignore
        (Parallel.run ~jobs
           (Array.init 8 (fun i ->
                fun () -> Obs.Trace.with_span "task" (fun () -> i * i)))));
  Obs.Profile.folded ~weight:`Count (Obs.Profile.tree ())

let test_folded_identical_across_jobs () =
  let f1 = folded_run 1 in
  let f2 = folded_run 2 in
  let f4 = folded_run 4 in
  Alcotest.(check string) "folded stacks byte-identical at --jobs 1 vs 2" f1 f2;
  Alcotest.(check string) "folded stacks byte-identical at --jobs 1 vs 4" f1 f4;
  (* Worker-domain spans must inherit the submitting caller's path. *)
  Alcotest.(check string) "workers nest under the caller"
    "driver 1\ndriver;task 8\n" f2

(* --------------------------------------------------------- allocation *)

(* Allocate ~n minor-heap words in 100-word chunks: blocks past
   Max_young_wosize go straight to the major heap and would never move the
   minor-words counter this test attributes. *)
let alloc_n n =
  for _ = 1 to n / 100 do
    ignore (Sys.opaque_identity (Array.make 99 0))
  done

let test_span_alloc_attribution () =
  Obs.reset ();
  Obs.Trace.with_span "outer" (fun () ->
      alloc_n 1000;
      Obs.Trace.with_span "inner" (fun () -> alloc_n 5000));
  match Obs.Profile.tree () with
  | [ root ] -> (
      match root.Obs.Profile.children with
      | [ inner ] ->
          (* The 5000-word array belongs to inner's self-allocation; outer's
             self must exclude it but still see its own 1000-word array. *)
          Alcotest.(check bool) "inner self_w sees its array" true
            (inner.Obs.Profile.self_w >= 5000);
          Alcotest.(check bool) "outer self excludes inner's words" true
            (root.Obs.Profile.self_w < 5000);
          Alcotest.(check bool) "outer self sees its own words" true
            (root.Obs.Profile.self_w >= 1000);
          (* Self words telescope exactly: root cum = root self + child cum. *)
          Alcotest.(check int) "alloc telescoping identity"
            root.Obs.Profile.cum_w
            (root.Obs.Profile.self_w + inner.Obs.Profile.cum_w)
      | cs -> Alcotest.failf "expected one child, got %d" (List.length cs))
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_self_alloc_deterministic_sequential () =
  (* Minor words are a pure function of the allocation sequence, so a
     sequential workload folds to byte-identical `Self_alloc output on
     every run. *)
  let run () =
    Obs.reset ();
    Obs.Trace.with_span "seq" (fun () ->
        for _ = 1 to 4 do
          Obs.Trace.with_span "work" (fun () -> alloc_n 512)
        done);
    Obs.Profile.folded ~weight:`Self_alloc (Obs.Profile.tree ())
  in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "self-alloc folded byte-identical across runs" a b;
  Alcotest.(check bool) "work rows carry positive weight" true
    (contains a "seq;work ")

(* ------------------------------------------------------------ telemetry *)

let read_records path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Obs.Json.parse

let delta_of name record =
  match Option.bind (Obs.Json.member "deltas" record) (Obs.Json.member name) with
  | Some (Obs.Json.Int d) -> d
  | _ -> Alcotest.failf "record missing delta for %s" name

let test_telemetry_deltas_across_reset () =
  Obs.reset ();
  let c = Obs.Counter.create "telemetry_test.events_total" in
  let path = Filename.temp_file "hetarch_telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Telemetry.enable ~path ~interval_s:0.;
      Alcotest.(check bool) "enabled" true (Obs.Telemetry.enabled ());
      Obs.Counter.add c 10;
      Obs.Telemetry.tick ~force:true ();
      (* Zeroing every metric must also forget the delta baseline: the next
         record reports +3, not 3 - 10 = -7 (or a clamped 0). *)
      Obs.reset ();
      Obs.Counter.add c 3;
      Obs.Telemetry.tick ~force:true ();
      Obs.Telemetry.disable ();
      Alcotest.(check bool) "disabled" false (Obs.Telemetry.enabled ());
      match read_records path with
      | [ baseline; first; after_reset; final ] ->
          List.iteri
            (fun i r ->
              Alcotest.(check bool)
                (Printf.sprintf "record %d schema" i)
                true
                (Obs.Json.member "schema" r
                = Some (Obs.Json.String "hetarch.telemetry/4"));
              Alcotest.(check bool)
                (Printf.sprintf "record %d run stamp" i)
                true
                (Option.bind (Obs.Json.member "run" r) (Obs.Json.member "id")
                <> None);
              Alcotest.(check bool)
                (Printf.sprintf "record %d seq" i)
                true
                (Obs.Json.member "seq" r = Some (Obs.Json.Int i)))
            [ baseline; first; after_reset; final ];
          Alcotest.(check int) "baseline delta zero" 0
            (delta_of "telemetry_test.events_total" baseline);
          Alcotest.(check int) "first tick sees +10" 10
            (delta_of "telemetry_test.events_total" first);
          Alcotest.(check int) "post-reset tick sees +3, not -7" 3
            (delta_of "telemetry_test.events_total" after_reset);
          Alcotest.(check int) "final record delta zero" 0
            (delta_of "telemetry_test.events_total" final)
      | records -> Alcotest.failf "expected 4 records, got %d" (List.length records))

let test_telemetry_tick_noop_when_disabled () =
  Obs.reset ();
  (* Must not raise or write anywhere. *)
  Obs.Telemetry.tick ();
  Obs.Telemetry.tick ~force:true ();
  Obs.Telemetry.disable ();
  Alcotest.(check bool) "still disabled" false (Obs.Telemetry.enabled ())

(* ----------------------------------------------------------------- diff *)

let bench_doc kernels =
  Obs.Json.Obj
    [ ("schema", Obs.Json.String "hetarch.bench/3");
      ( "kernels",
        Obs.Json.List
          (List.map
             (fun (name, ns) ->
               Obs.Json.Obj
                 [ ("name", Obs.Json.String name);
                   ("ns_per_run", Obs.Json.Float ns) ])
             kernels) ) ]

let test_diff_detects_regression () =
  let a = bench_doc [ ("k1", 100.); ("k2", 50.); ("gone", 10.) ] in
  let b = bench_doc [ ("k1", 150.); ("k2", 51.); ("new", 10.) ] in
  let r = Obs.Diff.compare_docs ~threshold_pct:20. a b in
  Alcotest.(check int) "two shared metrics" 2 (List.length r.Obs.Diff.entries);
  (match r.Obs.Diff.regressions with
  | [ e ] ->
      Alcotest.(check string) "k1 flagged" "kernel:k1" e.Obs.Diff.metric;
      Alcotest.(check bool) "pct is +50" true (Float.abs (e.Obs.Diff.pct -. 50.) < 1e-9)
  | regs -> Alcotest.failf "expected 1 regression, got %d" (List.length regs));
  Alcotest.(check (list string)) "only_a" [ "kernel:gone" ] r.Obs.Diff.only_a;
  Alcotest.(check (list string)) "only_b" [ "kernel:new" ] r.Obs.Diff.only_b;
  (* A looser threshold accepts the same pair. *)
  let loose = Obs.Diff.compare_docs ~threshold_pct:60. a b in
  Alcotest.(check int) "no regressions at 60%" 0
    (List.length loose.Obs.Diff.regressions)

let test_diff_manifest_metrics () =
  Obs.reset ();
  let h = Obs.Histogram.create ~buckets:[| 1.; 10. |] "diff_test.hist" in
  Obs.Histogram.observe h 4.;
  Obs.Trace.with_span "diff_test.span" (fun () -> ());
  let doc = Obs.Snapshot.to_json (Obs.Snapshot.capture ()) in
  let metrics = Obs.Diff.metrics_of doc in
  Alcotest.(check bool) "histogram mean extracted" true
    (List.mem_assoc "hist:diff_test.hist.mean" metrics);
  Alcotest.(check bool) "span total extracted" true
    (List.mem_assoc "span:diff_test.span" metrics);
  (* Identical documents never regress. *)
  let r = Obs.Diff.compare_docs doc doc in
  Alcotest.(check int) "self-compare clean" 0 (List.length r.Obs.Diff.regressions);
  Alcotest.(check bool) "unknown schema rejected" true
    (try
       ignore (Obs.Diff.metrics_of (Obs.Json.Obj [ ("schema", Obs.Json.String "x/1") ]));
       false
     with Failure _ -> true)

let () =
  Alcotest.run "profile"
    [ ( "tree",
        [ Alcotest.test_case "structure and telescoping" `Quick test_tree_structure;
          Alcotest.test_case "exception exit paths" `Quick test_exception_exit_paths;
          Alcotest.test_case "implicit parents" `Quick test_of_totals_implicit_parent;
          Alcotest.test_case "top ranking" `Quick test_top_ranking ] );
      ( "determinism",
        [ Alcotest.test_case "folded identical across jobs" `Quick
            test_folded_identical_across_jobs ] );
      ( "allocation",
        [ Alcotest.test_case "span alloc attribution" `Quick
            test_span_alloc_attribution;
          Alcotest.test_case "sequential self-alloc determinism" `Quick
            test_self_alloc_deterministic_sequential ] );
      ( "telemetry",
        [ Alcotest.test_case "deltas across reset" `Quick
            test_telemetry_deltas_across_reset;
          Alcotest.test_case "tick no-op when disabled" `Quick
            test_telemetry_tick_noop_when_disabled ] );
      ( "diff",
        [ Alcotest.test_case "regression detection" `Quick test_diff_detects_regression;
          Alcotest.test_case "manifest metrics" `Quick test_diff_manifest_metrics ] ) ]
