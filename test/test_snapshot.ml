(* Snapshot serialization, fleet-merge algebra, the run registry, and the
   trend watchdog.

   The merge laws (commutativity / associativity / idempotence) are checked
   on the serialized bytes, not on abstract values: `hetarch obs merge` from
   any process order must produce byte-identical fleet views, which is the
   property test/obs_merge.t relies on. *)

let to_string snap = Obs.Json.to_string (Obs.Snapshot.to_json snap)
let fleet_string m = Obs.Json.to_string (Obs.Merge.to_json m)

(* ------------------------------------------------- synthetic snapshots *)

let proc0 =
  { Obs.Snapshot.p_minor_collections = 3;
    p_major_collections = 1;
    p_compactions = 0;
    p_minor_words = 1000.5;
    p_promoted_words = 10.;
    p_major_words = 50.25;
    p_heap_words = 4096;
    p_top_heap_words = 8192 }

(* values [2.; 4.]: count 2, mean 3, M2 2 *)
let hist_a =
  { Obs.Snapshot.h_bounds = [| 1.; 10. |];
    h_counts = [| 0; 2 |];
    h_overflow = 0;
    h_count = 2;
    h_mean = 3.;
    h_m2 = 2.;
    h_min = 2.;
    h_max = 4. }

(* values [6.]: count 1, mean 6, M2 0 *)
let hist_b =
  { Obs.Snapshot.h_bounds = [| 1.; 10. |];
    h_counts = [| 0; 1 |];
    h_overflow = 0;
    h_count = 1;
    h_mean = 6.;
    h_m2 = 0.;
    h_min = 6.;
    h_max = 6. }

let snap ?(run_id = "00000000000000aa") ?(shard = "") ?(counters = [])
    ?(gauges = []) ?(histograms = []) ?(spans = []) () =
  { Obs.Snapshot.run =
      { run_id; shard;
        ctx = { trace_id = "0123456789abcdef"; span_id = "fedcba9876543210"; parent_span_id = "" } };
    argv = [ "hetarch"; "collect"; "threshold"; "--seed"; "7" ];
    started_unix = 1723100000.;
    wall_seconds = 1.5;
    jobs = 2;
    counters;
    gauges;
    histograms;
    spans;
    paths =
      List.map
        (fun (n, c, t, mw, pw, jw) -> ("root;" ^ n, c, t, mw, pw, jw))
        spans;
    process = proc0 }

let fixed =
  snap
    ~counters:[ ("a.total", 2); ("b.total", 7) ]
    ~gauges:[ ("g.x", 1.5) ]
    ~histograms:[ ("h.lat", hist_a) ]
    ~spans:[ ("s.run", 3, 900L, 450, 30, 12) ]
    ()

(* --------------------------------------------------------- round trip *)

let test_roundtrip_bit_equal () =
  let bytes = to_string fixed in
  let reread = Obs.Snapshot.of_json (Obs.Json.parse bytes) in
  Alcotest.(check string) "re-serialize is bit-equal" bytes (to_string reread);
  Alcotest.(check string) "content hash survives round trip"
    (Obs.Snapshot.content_hash fixed)
    (Obs.Snapshot.content_hash reread)

let test_capture_roundtrip () =
  Obs.reset ();
  Obs.Counter.add (Obs.Counter.create "snapcap.events_total") 5;
  Obs.Gauge.set (Obs.Gauge.create "snapcap.gauge") 2.25;
  let h = Obs.Histogram.create ~buckets:[| 1.; 2. |] "snapcap.hist" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 1.5; 3. ];
  Obs.Trace.with_span "snapcap.span" (fun () -> ());
  (* One span name under two callers and nested in itself: a;x, b;x, x;x. *)
  let x () = Obs.Trace.with_span "x" (fun () -> ignore (Sys.opaque_identity (List.init 8 Fun.id))) in
  Obs.Trace.with_span "a" x;
  Obs.Trace.with_span "b" x;
  Obs.Trace.with_span "x" x;
  let s = Obs.Snapshot.capture () in
  let bytes = to_string s in
  let reread = Obs.Snapshot.of_json (Obs.Json.parse bytes) in
  Alcotest.(check string) "live capture round-trips bit-equal" bytes
    (to_string reread);
  Alcotest.(check bool) "counter captured" true
    (List.mem ("snapcap.events_total", 5) s.Obs.Snapshot.counters);
  let last_segment path = List.nth (List.rev (String.split_on_char ';' path)) 0 in
  let grouped =
    List.fold_left
      (fun acc (path, c, t, mw, pw, jw) ->
        let name = last_segment path in
        let c', t', mw', pw', jw' =
          Option.value ~default:(0, 0L, 0, 0, 0) (List.assoc_opt name acc)
        in
        (name, (c + c', Int64.add t t', mw + mw', pw + pw', jw + jw'))
        :: List.remove_assoc name acc)
      [] s.paths
    |> List.map (fun (n, (c, t, mw, pw, jw)) -> (n, c, t, mw, pw, jw))
    |> List.sort compare
  in
  Alcotest.(check bool) "spans = paths grouped by last segment" true (s.spans = grouped);
  Alcotest.(check (list string)) "x's three paths" [ "a;x"; "b;x"; "x"; "x;x" ]
    (List.filter_map
       (fun (p, _, _, _, _, _) -> if last_segment p = "x" then Some p else None)
       s.paths);
  Alcotest.(check bool) "x counted four times" true
    (List.exists (fun (n, c, _, _, _, _) -> n = "x" && c = 4) s.spans)

let test_write_load () =
  let path = Filename.temp_file "hetarch_snap" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Snapshot.write ~path fixed;
      let reread = Obs.Snapshot.load path in
      Alcotest.(check string) "write/load round trip" (to_string fixed)
        (to_string reread))

(* Pinned vectors: a serialization or hash change must be a deliberate
   schema bump, not an accident — these fail loudly on drift. *)
let test_pinned_content_hash () =
  Alcotest.(check string) "pinned content hash" "ba6040ca0402385d"
    (Obs.Snapshot.content_hash fixed);
  let empty = snap ~run_id:"00000000000000bb" () in
  Alcotest.(check string) "pinned empty-snapshot hash" "c916c79e831f0b30"
    (Obs.Snapshot.content_hash empty);
  let fleet = Obs.Merge.to_json (Obs.Merge.of_snapshots [ fixed; empty ]) in
  Alcotest.(check bool) "pinned fleet hash" true
    (Obs.Json.member "content_hash" fleet = Some (Obs.Json.String "b19f640784972860"))

(* One format: a document under any other schema string is rejected, not
   read with defaults. *)
let test_other_schemas_rejected () =
  let with_schema name = function
    | Obs.Json.Obj kvs ->
        Obs.Json.Obj
          (List.map
             (fun (k, v) -> if k = "schema" then (k, Obs.Json.String name) else (k, v))
             kvs)
    | j -> j
  in
  List.iter
    (fun old ->
      let doc = with_schema old (Obs.Snapshot.to_json fixed) in
      Alcotest.(check bool) (old ^ " rejected") true
        (match Obs.Snapshot.of_json doc with
        | exception Failure _ -> true
        | _ -> false))
    [ "hetarch.snapshot/2"; "hetarch.snapshot/1"; "hetarch.obs/5" ]

(* A torn snapshot or fleet document — cut at any byte — is a Failure and
   nothing else; only the complete document parses. *)
let test_truncated_every_byte () =
  Obs.reset ();
  Obs.Counter.add (Obs.Counter.create "torn.events_total") 3;
  Obs.Histogram.observe (Obs.Histogram.create "torn.seconds") 1e-3;
  Obs.Trace.with_span "torn.span" (fun () -> ());
  let captured = Obs.Snapshot.capture () in
  let fleet = Obs.Merge.of_snapshots [ captured; fixed ] in
  let check what bytes of_json =
    let n = String.length bytes in
    for cut = 0 to n - 1 do
      match of_json (Obs.Json.parse (String.sub bytes 0 cut)) with
      | exception Failure _ -> ()
      | exception e ->
          Alcotest.failf "%s cut at %d/%d raised %s" what cut n
            (Printexc.to_string e)
      | _ -> Alcotest.failf "%s cut at %d/%d parsed" what cut n
    done;
    ignore (of_json (Obs.Json.parse bytes))
  in
  check "snapshot" (to_string captured) (fun j -> ignore (Obs.Snapshot.of_json j));
  check "fleet" (fleet_string fleet) (fun j -> ignore (Obs.Merge.of_json j))

(* -------------------------------------------------------- merge algebra *)

let test_merge_sums_and_attribution () =
  let s1 =
    snap ~run_id:"0000000000000001" ~shard:"shard0/2"
      ~counters:[ ("x.total", 2) ]
      ~gauges:[ ("g", 1.) ]
      ~histograms:[ ("h", hist_a) ]
      ~spans:[ ("s", 1, 100L, 40, 3, 1) ]
      ()
  in
  let s2 =
    snap ~run_id:"0000000000000002" ~shard:"shard1/2"
      ~counters:[ ("x.total", 3); ("y.total", 5) ]
      ~gauges:[ ("g", 3.) ]
      ~histograms:[ ("h", hist_b) ]
      ~spans:[ ("s", 2, 250L, 60, 7, 9) ]
      ()
  in
  let doc =
    Obs.Json.parse (fleet_string (Obs.Merge.of_snapshots [ s1; s2 ]))
  in
  let mem path =
    List.fold_left
      (fun acc name -> Option.bind acc (Obs.Json.member name))
      (Some doc) path
  in
  Alcotest.(check bool) "counters sum" true
    (mem [ "counters"; "x.total" ] = Some (Obs.Json.Int 5)
    && mem [ "counters"; "y.total" ] = Some (Obs.Json.Int 5));
  Alcotest.(check bool) "span counts and totals sum" true
    (mem [ "spans"; "s"; "count" ] = Some (Obs.Json.Int 3)
    && mem [ "spans"; "s"; "total_ns" ] = Some (Obs.Json.Int 350));
  (* allocation aggregates re-fold under the same sum rule *)
  Alcotest.(check bool) "span alloc words sum" true
    (mem [ "spans"; "s"; "minor_w" ] = Some (Obs.Json.Int 100)
    && mem [ "spans"; "s"; "promoted_w" ] = Some (Obs.Json.Int 10)
    && mem [ "spans"; "s"; "major_w" ] = Some (Obs.Json.Int 10));
  Alcotest.(check bool) "path alloc words sum" true
    (mem [ "paths"; "root;s"; "minor_w" ] = Some (Obs.Json.Int 100));
  (* gauges sum like counters; the per-source readings stay in the
     embedded sources *)
  Alcotest.(check bool) "gauges sum" true
    (mem [ "gauges"; "g" ] = Some (Obs.Json.Float 4.));
  Alcotest.(check int) "sources embedded" 2
    (match mem [ "sources" ] with Some (Obs.Json.List l) -> List.length l | _ -> -1);
  (* histogram buckets add; count/mean/M2 follow Chan's pairwise Welford:
     [2;4] + [6] -> count 3, mean 4, M2 8 *)
  let hf name = Option.map Obs.Json.to_float (mem [ "histograms"; "h"; name ]) in
  Alcotest.(check bool) "histogram bucket-merge" true
    (hf "count" = Some 3. && hf "mean" = Some 4. && hf "m2" = Some 8.
    && hf "min" = Some 2. && hf "max" = Some 6.);
  Alcotest.(check int) "two attributed runs" 2
    (match Obs.Json.member "attribution" doc with
    | Some (Obs.Json.List l) -> List.length l
    | _ -> -1)

let test_merge_bounds_mismatch_rejected () =
  let s1 = snap ~run_id:"0000000000000001" ~histograms:[ ("h", hist_a) ] () in
  let s2 =
    snap ~run_id:"0000000000000002"
      ~histograms:
        [ ("h", { hist_b with Obs.Snapshot.h_bounds = [| 5. |]; h_counts = [| 1 |] }) ]
      ()
  in
  Alcotest.check_raises "incompatible bucket bounds"
    (Failure "Obs.Merge: histogram h bucket bounds differ across snapshots")
    (fun () -> ignore (fleet_string (Obs.Merge.of_snapshots [ s1; s2 ])));
  (* Malformed bucket state is rejected when a document is read, before a
     merge could index past the end of a short counts array. *)
  let doc h = Obs.Json.parse (to_string (snap ~histograms:[ ("h", h) ] ())) in
  List.iter
    (fun (what, h) ->
      Alcotest.(check bool) what true
        (match Obs.Merge.of_json (doc h) with
        | exception Failure _ -> true
        | _ -> false))
    [ ("counts shorter than bounds", { hist_a with Obs.Snapshot.h_counts = [| 2 |] });
      ("bounds not increasing", { hist_a with Obs.Snapshot.h_bounds = [| 10.; 1. |] });
      ("negative bucket count", { hist_a with Obs.Snapshot.h_counts = [| -1; 3 |] });
      ("negative overflow", { hist_a with Obs.Snapshot.h_overflow = -1 }) ]

let test_merge_of_json_flattens_fleet () =
  let s1 = snap ~run_id:"0000000000000001" ~counters:[ ("c", 1) ] () in
  let s2 = snap ~run_id:"0000000000000002" ~counters:[ ("c", 2) ] () in
  let s3 = snap ~run_id:"0000000000000003" ~counters:[ ("c", 4) ] () in
  (* merge(merge(1,2), 3) via re-parsed fleet JSON = merge(1,2,3) *)
  let partial =
    Obs.Json.parse (fleet_string (Obs.Merge.of_snapshots [ s1; s2 ]))
  in
  let via_doc =
    Obs.Merge.union (Obs.Merge.of_json partial) (Obs.Merge.of_snapshots [ s3 ])
  in
  Alcotest.(check string) "fleet docs merge exactly"
    (fleet_string (Obs.Merge.of_snapshots [ s1; s2; s3 ]))
    (fleet_string via_doc)

(* qcheck: serialized-bytes merge laws on random snapshot triples.  Bucket
   bounds are fixed per histogram name so random snapshots are mergeable. *)
let gen_snapshot =
  let open QCheck.Gen in
  let name pool = oneofl pool in
  let counters =
    list_size (0 -- 3)
      (pair (name [ "c.a"; "c.b"; "c.c" ]) (0 -- 1000))
  in
  let gauges =
    list_size (0 -- 2)
      (pair (name [ "g.a"; "g.b" ]) (float_bound_inclusive 100.))
  in
  let hist bounds =
    let n = Array.length bounds in
    let* counts = array_size (return n) (0 -- 50) in
    let* overflow = 0 -- 10 in
    let total = Array.fold_left ( + ) overflow counts in
    let* mean = float_bound_inclusive 50. in
    let* m2 = float_bound_inclusive 10. in
    return
      { Obs.Snapshot.h_bounds = bounds;
        h_counts = counts;
        h_overflow = overflow;
        h_count = total;
        h_mean = (if total = 0 then 0. else mean);
        h_m2 = (if total = 0 then 0. else m2);
        h_min = (if total = 0 then infinity else 0.5);
        h_max = (if total = 0 then neg_infinity else mean +. 1.) }
  in
  let histograms =
    let* ha = hist [| 1.; 10. |] and* hb = hist [| 5. |] in
    oneofl [ []; [ ("h.a", ha) ]; [ ("h.a", ha); ("h.b", hb) ] ]
  in
  let spans =
    list_size (0 -- 3)
      (let* n = name [ "s.a"; "s.b" ]
       and* c = 1 -- 100
       and* t = 0 -- 100000
       and* mw = 0 -- 5000
       and* pw = 0 -- 200
       and* jw = 0 -- 100 in
       return (n, c, Int64.of_int t, mw, pw, jw))
  in
  let* id = int_range 1 0xfffff
  and* shard = oneofl [ ""; "shard0/2"; "shard1/2" ]
  and* counters = counters
  and* gauges = gauges
  and* histograms = histograms
  and* spans = spans in
  return
    (snap
       ~run_id:(Printf.sprintf "%016x" id)
       ~shard
       ~counters:(List.sort_uniq compare counters)
       ~gauges:(List.sort_uniq compare gauges)
       ~histograms ~spans ())

let arb_snapshot = QCheck.make ~print:to_string gen_snapshot

let one s = Obs.Merge.of_snapshots [ s ]

let qcheck_merge_commutative =
  QCheck.Test.make ~count:100 ~name:"merge commutative (bytes)"
    (QCheck.pair arb_snapshot arb_snapshot)
    (fun (a, b) ->
      fleet_string (Obs.Merge.union (one a) (one b))
      = fleet_string (Obs.Merge.union (one b) (one a)))

let qcheck_merge_associative =
  QCheck.Test.make ~count:100 ~name:"merge associative (bytes)"
    (QCheck.triple arb_snapshot arb_snapshot arb_snapshot)
    (fun (a, b, c) ->
      fleet_string
        (Obs.Merge.union (Obs.Merge.union (one a) (one b)) (one c))
      = fleet_string
          (Obs.Merge.union (one a) (Obs.Merge.union (one b) (one c))))

let qcheck_merge_idempotent =
  QCheck.Test.make ~count:100 ~name:"merge idempotent (dedup by hash)"
    arb_snapshot
    (fun a ->
      fleet_string (Obs.Merge.union (one a) (one a)) = fleet_string (one a))

(* ------------------------------------------------------------ registry *)

let with_tmp_dir f =
  let dir = Filename.temp_file "hetarch_reg" "" in
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

let test_registry_record_find_load () =
  with_tmp_dir (fun dir ->
      let s1 = snap ~run_id:"00000000000000aa" ~counters:[ ("c", 1) ] () in
      let s2 = snap ~run_id:"00000000000000ab" ~counters:[ ("c", 2) ] () in
      (match Obs.Registry.record ~dir s1 with
      | Some e ->
          Alcotest.(check string) "entry id" "00000000000000aa"
            e.Obs.Registry.e_run_id;
          Alcotest.(check string) "entry cmd" "collect threshold"
            e.Obs.Registry.e_cmd
      | None -> Alcotest.fail "record returned None with a directory");
      ignore (Obs.Registry.record ~dir s2);
      let entries = Obs.Registry.entries ~dir () in
      Alcotest.(check int) "two entries, append order" 2 (List.length entries);
      (* unambiguous prefix resolves, ambiguous raises, unknown is None *)
      (match Obs.Registry.find ~dir "00000000000000ab" with
      | Some e ->
          let reread = Obs.Registry.load ~dir e in
          Alcotest.(check string) "load round trip" (to_string s2)
            (to_string reread)
      | None -> Alcotest.fail "exact id not found");
      Alcotest.(check bool) "unknown prefix is None" true
        (Obs.Registry.find ~dir "ffff" = None);
      Alcotest.(check bool) "ambiguous prefix raises" true
        (match Obs.Registry.find ~dir "000000000000" with
        | exception Failure _ -> true
        | _ -> false))

let test_registry_torn_index_tail () =
  with_tmp_dir (fun dir ->
      let s1 = snap ~run_id:"00000000000000aa" () in
      ignore (Obs.Registry.record ~dir s1);
      (* a writer killed mid-append leaves a truncated final line *)
      let oc =
        open_out_gen [ Open_append ]
          0o644
          (Filename.concat dir "index.jsonl")
      in
      (* a complete line whose hash is not 16 hex digits *)
      output_string oc
        "{\"run_id\":\"00000000000000ac\",\"shard\":\"\",\"trace_id\":\"\",\
         \"cmd\":\"fig3\",\"file\":\"00000000000000ac.json\",\"hash\":\"abc\",\
         \"unix\":1.0}\n";
      output_string oc "{\"run_id\":\"00000000000000ab\",\"sha";
      close_out oc;
      Alcotest.(check int) "torn tail and bad hash skipped" 1
        (List.length (Obs.Registry.entries ~dir ())))

(* ------------------------------------------------------ trend watchdog *)

let test_trend_judge () =
  let history = [ [ ("m", 10.); ("n", 1.) ]; [ ("m", 12.) ]; [ ("m", 11.) ] ] in
  let verdicts =
    Obs.Trend.judge ~history [ ("m", 30.); ("n", 5.) ]
  in
  (match List.find (fun v -> v.Obs.Trend.v_metric = "m") verdicts with
  | v ->
      Alcotest.(check bool) "median of history" true (v.Obs.Trend.v_median = 11.);
      Alcotest.(check int) "sample count" 3 v.Obs.Trend.v_samples;
      Alcotest.(check bool) "excursion past median+MAD band flagged" true
        v.Obs.Trend.v_regression);
  (match List.find (fun v -> v.Obs.Trend.v_metric = "n") verdicts with
  | v ->
      Alcotest.(check bool) "thin history never flags" true
        ((not v.Obs.Trend.v_regression) && v.Obs.Trend.v_limit = infinity))

let test_trend_min_pct_floor () =
  (* identical history -> MAD 0; the min_pct floor keeps harmless jitter
     below median*(1+pct/100) from flagging *)
  let history = [ [ ("m", 100.) ]; [ ("m", 100.) ]; [ ("m", 100.) ] ] in
  let judge cur =
    (List.hd (Obs.Trend.judge ~min_pct:10. ~history [ ("m", cur) ]))
      .Obs.Trend.v_regression
  in
  Alcotest.(check bool) "within floor" false (judge 105.);
  Alcotest.(check bool) "past floor" true (judge 115.)

let test_trend_noise_floor () =
  let history = [ [ ("m", 100.) ]; [ ("m", 100.) ] ] in
  let v =
    List.hd
      (Obs.Trend.judge ~noise_floor_ns:1e6 ~history [ ("m", 500.) ])
  in
  Alcotest.(check bool) "sub-floor metrics never flag" false
    v.Obs.Trend.v_regression

let () =
  Alcotest.run "snapshot"
    [ ( "roundtrip",
        [ Alcotest.test_case "bit-equal reserialization" `Quick
            test_roundtrip_bit_equal;
          Alcotest.test_case "live capture" `Quick test_capture_roundtrip;
          Alcotest.test_case "write/load" `Quick test_write_load;
          Alcotest.test_case "pinned hashes" `Quick test_pinned_content_hash;
          Alcotest.test_case "other schemas rejected" `Quick
            test_other_schemas_rejected;
          Alcotest.test_case "truncated at every byte" `Quick
            test_truncated_every_byte ] );
      ( "merge",
        [ Alcotest.test_case "sums and attribution" `Quick
            test_merge_sums_and_attribution;
          Alcotest.test_case "bounds mismatch" `Quick
            test_merge_bounds_mismatch_rejected;
          Alcotest.test_case "fleet docs flatten" `Quick
            test_merge_of_json_flattens_fleet;
          QCheck_alcotest.to_alcotest qcheck_merge_commutative;
          QCheck_alcotest.to_alcotest qcheck_merge_associative;
          QCheck_alcotest.to_alcotest qcheck_merge_idempotent ] );
      ( "registry",
        [ Alcotest.test_case "record/find/load" `Quick
            test_registry_record_find_load;
          Alcotest.test_case "torn index tail" `Quick
            test_registry_torn_index_tail ] );
      ( "trend",
        [ Alcotest.test_case "median + MAD judgement" `Quick test_trend_judge;
          Alcotest.test_case "min-pct floor" `Quick test_trend_min_pct_floor;
          Alcotest.test_case "noise floor" `Quick test_trend_noise_floor ] ) ]
