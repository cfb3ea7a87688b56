(* Tests for the call-tree profiler, the telemetry heartbeat, and the
   snapshot diff gate: tree structure and the self-time telescoping
   identity, path integrity on exception exits, folded-stack determinism
   across --jobs, the telemetry stream and the deltas its reader derives
   across Obs.reset, and regression detection on crafted documents. *)

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

(* ------------------------------------------------------------ telemetry *)

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
      (* Zeroing every metric drops the counter to 3: the reader takes the
         fall for a reset and counts from zero, +3 rather than 3 - 10 = -7. *)
      Obs.reset ();
      Obs.Counter.add c 3;
      Obs.Telemetry.tick ~force:true ();
      Obs.Counter.add c 4;
      Obs.Telemetry.disable ();
      Alcotest.(check bool) "disabled" false (Obs.Telemetry.enabled ());
      Alcotest.(check bool) "writer gauges leave with the writer" true
        (List.for_all
           (fun (n, _) -> not (String.starts_with ~prefix:"telemetry." n))
           (Obs.Snapshot.capture ()).gauges);
      let delta_of (t : Obs.Monitor.tick) =
        List.assoc "telemetry_test.events_total" t.deltas
      in
      match Obs.Monitor.read path with
      | [ baseline; first; after_reset; final ] as ticks ->
          List.iteri
            (fun i (t : Obs.Monitor.tick) ->
              Alcotest.(check int) (Printf.sprintf "line %d seq" i) i t.seq;
              Alcotest.(check bool)
                (Printf.sprintf "line %d run stamp" i)
                true
                (t.snap.run = (List.hd ticks).snap.run);
              Alcotest.(check bool)
                (Printf.sprintf "line %d elapsed" i)
                true
                (t.elapsed_s = t.snap.wall_seconds -. baseline.snap.wall_seconds
                && t.dt_s >= 0.))
            ticks;
          Alcotest.(check int) "baseline delta zero" 0 (delta_of baseline);
          Alcotest.(check int) "first tick sees +10" 10 (delta_of first);
          Alcotest.(check int) "post-reset tick sees +3, not -7" 3
            (delta_of after_reset);
          Alcotest.(check int) "final line sees +4" 4 (delta_of final)
      | ticks -> Alcotest.failf "expected 4 lines, got %d" (List.length ticks))

let test_telemetry_tick_noop_when_disabled () =
  Obs.reset ();
  (* Must not raise or write anywhere. *)
  Obs.Telemetry.tick ();
  Obs.Telemetry.tick ~force:true ();
  Obs.Telemetry.disable ();
  Alcotest.(check bool) "still disabled" false (Obs.Telemetry.enabled ())

(* ---------------------------------------------------------------- codecs *)

(* The CLI binary is a declared dependency of this test (see test/dune)
   and lives next to the test executable in the build tree. *)
let hetarch_bin =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "main.exe")

let raises_failure f = match f () with _ -> false | exception Failure _ -> true

(* A real campaign's telemetry stream, written with the given extra flags
   into a temporary file that [f] reads. *)
let with_collect_stream flags f =
  let path = Filename.temp_file "hetarch_collect" ".telemetry.jsonl" in
  let ledger = Filename.temp_file "hetarch_collect" ".ledger.jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path; Sys.remove ledger)
    (fun () ->
      let cmd =
        Filename.quote_command hetarch_bin ~stdout:"/dev/null"
          ([ "collect"; "threshold"; "--seed"; "7"; "--batch"; "256"; "--ledger"; ledger;
             "--telemetry"; path; "--telemetry-interval"; "0" ]
          @ flags)
      in
      Alcotest.(check int) "collect exits 0" 0 (Sys.command cmd);
      f path)

(* Every line a real campaign writes is a snapshot that re-encodes to the
   same bytes; only the last is marked final, and it carries the campaign.
   Dropping any section the writer always emits is rejected. *)
let test_telemetry_codec_roundtrip () =
  with_collect_stream [ "--max-shots"; "512" ] (fun path ->
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Alcotest.(check bool) "several lines" true (List.length lines > 2);
      let snaps =
        List.mapi
          (fun i line ->
            let s = Obs.Snapshot.of_json (Obs.Json.parse line) in
            Alcotest.(check string)
              (Printf.sprintf "line %d re-encodes byte-equal" i)
              line
              (Obs.Json.to_string (Obs.Snapshot.to_json s));
            s)
          lines
      in
      let final s = Obs.Snapshot.gauge s "telemetry.final" in
      Alcotest.(check (list (float 0.))) "only the last line is final"
        (List.mapi (fun i _ -> if i = List.length snaps - 1 then 1. else 0.) snaps)
        (List.map final snaps);
      let last = List.nth snaps (List.length snaps - 1) in
      Alcotest.(check bool) "last line carries the campaign" true (last.campaign <> None);
      Alcotest.(check (float 0.)) "interval gauge" 0.
        (Obs.Snapshot.gauge last "telemetry.interval_s");
      match Obs.Json.parse (List.nth lines (List.length lines - 1)) with
      | Obs.Json.Obj kvs ->
          List.iter
            (fun key ->
              Alcotest.(check bool) ("without " ^ key ^ " rejected") true
                (raises_failure (fun () ->
                     Obs.Snapshot.of_json (Obs.Json.Obj (List.remove_assoc key kvs)))))
            [ "schema"; "run"; "counters"; "gauges"; "histograms"; "paths"; "process" ]
      | _ -> Alcotest.fail "line is not an object")

(* A stream cut at any byte reads as its longest prefix of complete lines —
   a line is complete once its last byte is in, with or without its
   newline — and as the empty stream before the first one.  The reader
   never raises and never reports a row the complete lines do not give. *)
let test_telemetry_cut_every_byte () =
  (* Halted after its first ledger append, the campaign still writes a
     complete stream — baseline, heartbeats, final line — of four lines. *)
  with_collect_stream [ "--max-shots"; "256"; "--jobs"; "1"; "--halt-after"; "1" ] (fun path ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      let ends =
        List.filter_map
          (fun i -> if text.[i] = '\n' then Some i else None)
          (List.init (String.length text) Fun.id)
      in
      Alcotest.(check bool) "at least three lines" true (List.length ends >= 3);
      let cut = Filename.temp_file "hetarch_cut" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove cut)
        (fun () ->
          (* Every file read here gets one mtime, so rows differ only by
             what the stream holds. *)
          let row_of bytes =
            Out_channel.with_open_bin cut (fun oc -> Out_channel.output_string oc bytes);
            Unix.utimes cut 1e9 1e9;
            Option.map
              (fun t ->
                Obs.Json.to_string
                  (Obs.Monitor.row_json (Obs.Monitor.row_of_stream ~now_unix:(1e9 +. 1.) cut t)))
              (Obs.Monitor.last cut)
          in
          (* [expected.(k)]: the row of the first k lines. *)
          let expected =
            Array.of_list (None :: List.map (fun e -> row_of (String.sub text 0 (e + 1))) ends)
          in
          Alcotest.(check bool) "every prefix of complete lines has a row" true
            (Array.for_all Option.is_some (Array.sub expected 1 (Array.length expected - 1)));
          for n = 0 to String.length text do
            let complete = List.length (List.filter (fun e -> e <= n) ends) in
            match row_of (String.sub text 0 n) with
            | row ->
                if row <> expected.(complete) then
                  Alcotest.failf "cut at %d/%d: row differs from the first %d lines'" n
                    (String.length text) complete
            | exception e ->
                Alcotest.failf "cut at %d/%d raised %s" n (String.length text)
                  (Printexc.to_string e)
          done))

(* The exported trace re-reads event for event, to the same bytes; a
   telemetry record is not a trace event. *)
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
               (Obs.Json.parse {|{"schema":"hetarch.snapshot/5","run":{}}|}))))

(* ----------------------------------------------------------------- diff *)

(* A snapshot whose spans are [(name, total_ns, minor_words)]. *)
let snapshot spans =
  let spans = List.map (fun (n, ns, w) -> (n, 1, Int64.of_int ns, w, 0, 0)) spans in
  { Obs.Snapshot.run = { run_id = "00000000000000aa"; shard = ""; parent = "" };
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

(* [b] judged against the explicit baseline [a]: a one-point history that
   may flag. *)
let against ?noise_floor_ns ~threshold_pct a b =
  let history = [ Obs.Trend.metrics_of a ] and current = Obs.Trend.metrics_of b in
  ( Obs.Trend.judge ~min_pct:threshold_pct ?noise_floor_ns ~min_samples:1 ~history current,
    Obs.Trend.only_in ~history current )

let regressions verdicts =
  List.map (fun (v : Obs.Trend.verdict) -> (v.v_metric, Obs.Trend.delta_pct v))
    (Obs.Trend.regressions verdicts)

let test_diff_detects_regression () =
  let a = snapshot [ ("k1", 100, 8); ("k2", 50, 100); ("gone", 10, 0) ] in
  let b = snapshot [ ("k1", 150, 8); ("k2", 51, 200); ("new", 10, 0) ] in
  let r, (only_a, only_b) = against ~threshold_pct:20. a b in
  Alcotest.(check int) "four shared metrics" 4
    (List.length (List.filter (fun (v : Obs.Trend.verdict) -> v.v_samples > 0) r));
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
  let r, _ = against ~threshold_pct:Obs.Trend.default_baseline_pct zero big in
  Alcotest.(check (list (pair string (float 0.)))) "0 -> 1e9 words flagged"
    [ ("alloc:z", infinity) ]
    (regressions r);
  let floored, _ =
    against ~threshold_pct:Obs.Trend.default_baseline_pct ~noise_floor_ns:2e9 zero big
  in
  Alcotest.(check int) "0 -> 1e9 under a 2e9 floor not flagged" 0
    (List.length (regressions floored))

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
  let r, _ = against ~threshold_pct:Obs.Trend.default_baseline_pct snap snap in
  Alcotest.(check int) "self-compare clean" 0 (List.length (regressions r));
  (* A fleet view is judged by its merged snapshot: one source gives the
     same metrics. *)
  Alcotest.(check bool) "fleet of one, same metrics" true
    (Obs.Trend.metrics_of (Obs.Merge.merged (Obs.Merge.of_snapshots [ snap ])) = metrics)

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
      ( "codec",
        [ Alcotest.test_case "telemetry round trip" `Quick
            test_telemetry_codec_roundtrip;
          Alcotest.test_case "telemetry cut at every byte" `Quick
            test_telemetry_cut_every_byte;
          Alcotest.test_case "trace round trip" `Quick test_trace_codec_roundtrip ] );
      ( "diff",
        [ Alcotest.test_case "regression detection" `Quick test_diff_detects_regression;
          Alcotest.test_case "manifest metrics" `Quick test_diff_manifest_metrics ] ) ]
