(* Tests for the call-tree profiler, the trace codec and the snapshot diff
   gate: tree structure and the self-time telescoping identity, path
   integrity on exception exits, folded-stack determinism across --jobs,
   trace re-reading, and regression detection on crafted documents. *)

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
        (Obs.Profile.folded ~weight:`Alloc nodes)
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
     sequential workload folds to byte-identical `Alloc output on
     every run. *)
  let run () =
    Obs.reset ();
    Obs.Trace.with_span "seq" (fun () ->
        for _ = 1 to 4 do
          Obs.Trace.with_span "work" (fun () -> alloc_n 512)
        done);
    Obs.Profile.folded ~weight:`Alloc (Obs.Profile.tree ())
  in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "self-alloc folded byte-identical across runs" a b;
  Alcotest.(check bool) "work rows carry positive weight" true
    (contains a "seq;work ")

(* ---------------------------------------------------------------- codecs *)

let raises_failure f = match f () with _ -> false | exception Failure _ -> true

(* The exported trace re-reads event for event, to the same bytes; a
   snapshot document is not a trace event. *)
let test_trace_codec_roundtrip () =
  Obs.reset ();
  Obs.Trace.with_span "a" (fun () ->
      Obs.Trace.with_span ~attrs:[ ("distance", "5") ] "b" (fun () -> spin ()));
  let path = Filename.temp_file "hetarch_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.export ~path;
      let lines = In_channel.with_open_text path In_channel.input_lines in
      let events = Obs.Trace.read path in
      Alcotest.(check int) "one event per line" (List.length lines) (List.length events);
      List.iter2
        (fun line ev ->
          Alcotest.(check string) "event re-encodes byte-equal" line
            (Obs.Json.to_string (Obs.Trace.event_to_json ev)))
        lines events;
      Alcotest.(check bool) "snapshot line rejected" true
        (raises_failure (fun () ->
             Obs.Trace.event_of_json
               (Obs.Json.parse {|{"schema":"hetarch.snapshot/6","run":{}}|}))))

(* ----------------------------------------------------------------- diff *)

(* A snapshot whose spans are [(name, total_ns, minor_words)]. *)
let snapshot spans =
  let spans = List.map (fun (n, ns, w) -> (n, 1, Int64.of_int ns, w, 0, 0)) spans in
  { Obs.Snapshot.run = { run_id = "00000000000000aa"; shard = "" };
    argv = [ "hetarch"; "fig6" ];
    started_unix = 1723100000.;
    wall_seconds = 1.;
    jobs = 1;
    counters = [];
    gauges = [];
    histograms = [];
    paths = List.map (fun (n, c, t, mw, pw, jw) -> ("root;" ^ n, c, t, mw, pw, jw)) spans;
    process =
      { p_minor_collections = 0; p_major_collections = 0; p_compactions = 0;
        p_minor_words = 0.; p_promoted_words = 0.; p_major_words = 0.;
        p_heap_words = 0; p_top_heap_words = 0 };
    campaign = None }

(* [b] judged against the baseline [a]. *)
let against ?noise_floor_ns ~threshold_pct a b =
  let baseline = Obs.Trend.metrics_of a and current = Obs.Trend.metrics_of b in
  ( Obs.Trend.judge ~threshold_pct ?noise_floor_ns ~baseline current,
    Obs.Trend.only_in ~baseline current )

let regressions verdicts =
  List.map (fun (v : Obs.Trend.verdict) -> (v.v_metric, Obs.Trend.delta_pct v))
    (Obs.Trend.regressions verdicts)

let test_diff_detects_regression () =
  let a = snapshot [ ("k1", 100, 8); ("k2", 50, 100); ("gone", 10, 0) ] in
  let b = snapshot [ ("k1", 150, 8); ("k2", 51, 200); ("new", 10, 0) ] in
  let r, (only_a, only_b) = against ~threshold_pct:20. a b in
  Alcotest.(check int) "four shared metrics" 4 (List.length r);
  Alcotest.(check (list (pair string (float 1e-9)))) "regressions, worst first"
    [ ("alloc:k2", 100.); ("span:k1", 50.) ]
    (regressions r);
  Alcotest.(check (list string)) "only_a" [ "alloc:gone"; "span:gone" ] only_a;
  Alcotest.(check (list string)) "only_b" [ "alloc:new"; "span:new" ] only_b;
  (* A looser threshold keeps only the doubled allocation. *)
  let loose, _ = against ~threshold_pct:60. a b in
  Alcotest.(check (list string)) "one regression at 60%" [ "alloc:k2" ]
    (List.map fst (regressions loose));
  (* Both spans fall below a 200 ns noise floor: listed, never flagged. *)
  let floored, _ = against ~threshold_pct:20. ~noise_floor_ns:200. a b in
  Alcotest.(check (list string)) "span:k1 under the noise floor" [ "alloc:k2" ]
    (List.map fst (regressions floored));
  (* An allocation that grows from 0 is an infinite rise: it gates. *)
  let zero = snapshot [ ("z", 100, 0) ] and big = snapshot [ ("z", 100, 1_000_000_000) ] in
  let r, _ = against ~threshold_pct:Obs.Trend.default_threshold_pct zero big in
  Alcotest.(check (list (pair string (float 0.)))) "0 -> 1e9 words flagged"
    [ ("alloc:z", infinity) ]
    (regressions r);
  (* The floor is in nanoseconds and spares span times only: a word count
     below it still gates. *)
  let floored, _ =
    against ~threshold_pct:Obs.Trend.default_threshold_pct ~noise_floor_ns:2e9 zero big
  in
  Alcotest.(check (list string)) "0 -> 1e9 words under a 2e9 ns floor flagged" [ "alloc:z" ]
    (List.map fst (regressions floored))

let test_diff_manifest_metrics () =
  Obs.reset ();
  let h = Obs.Histogram.create "diff_test.hist" in
  Obs.Histogram.observe h 4.;
  Obs.Trace.with_span "diff_test.span" (fun () -> ());
  let snap = Obs.Snapshot.capture () in
  let metrics = Obs.Trend.metrics_of snap in
  Alcotest.(check bool) "histogram mean extracted" true
    (List.mem_assoc "hist:diff_test.hist.mean" metrics);
  Alcotest.(check bool) "span total extracted" true
    (List.mem_assoc "span:diff_test.span" metrics);
  (* Identical runs never regress. *)
  let r, _ = against ~threshold_pct:Obs.Trend.default_threshold_pct snap snap in
  Alcotest.(check int) "self-compare clean" 0 (List.length (regressions r))

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
      ( "codec",
        [ Alcotest.test_case "trace round trip" `Quick test_trace_codec_roundtrip ] );
      ( "diff",
        [ Alcotest.test_case "regression detection" `Quick test_diff_detects_regression;
          Alcotest.test_case "manifest metrics" `Quick test_diff_manifest_metrics ] ) ]
