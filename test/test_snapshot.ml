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

(* Bucket counts in the one layout, from (bucket index, count) pairs. *)
let nb = Array.length (Obs.Histogram.bounds ())
let counts placed = Array.init nb (fun i -> Option.value ~default:0 (List.assoc_opt i placed))

(* values [2.; 4.], in the buckets (1, 2.15] and (2.15, 4.64]: count 2,
   mean 3, M2 2 *)
let hist_a =
  { Obs.Snapshot.h_counts = counts [ (28, 1); (29, 1) ];
    h_overflow = 0;
    h_count = 2;
    h_mean = 3.;
    h_m2 = 2.;
    h_min = 2.;
    h_max = 4. }

(* values [6.], in the bucket (4.64, 10]: count 1, mean 6, M2 0 *)
let hist_b =
  { Obs.Snapshot.h_counts = counts [ (30, 1) ];
    h_overflow = 0;
    h_count = 1;
    h_mean = 6.;
    h_m2 = 0.;
    h_min = 6.;
    h_max = 6. }

let snap ?(run_id = "00000000000000aa") ?(shard = "") ?(parent = "") ?(counters = [])
    ?(gauges = []) ?(histograms = []) ?(spans = []) () =
  { Obs.Snapshot.run = { run_id; shard; parent };
    argv = [ "hetarch"; "collect"; "threshold"; "--seed"; "7" ];
    started_unix = 1723100000.;
    wall_seconds = 1.5;
    jobs = 2;
    counters;
    gauges;
    histograms;
    paths =
      List.map
        (fun (n, c, t, mw, pw, jw) -> ("root;" ^ n, c, t, mw, pw, jw))
        spans;
    process = proc0;
    campaign = None }

let fixed =
  snap ~parent:"00000000000000a0"
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
    (Obs.Snapshot.content_hash reread);
  (* The campaign section, with an undefined half-width and ETA (null). *)
  let task i done_ =
    { Obs.Snapshot.tp_id = Printf.sprintf "%016x" i; tp_kind = "qec.surface";
      tp_shots = 256 * i; tp_errors = i - 1; tp_resumed = 0;
      tp_rel_halfwidth = (if i = 1 then nan else 0.5); tp_remaining = 0; tp_done = done_ }
  in
  let with_campaign =
    { fixed with
      campaign =
        Some
          { c_done = 1; c_total = 2; c_shots = 768; c_new_shots = 512; c_rate = 0.;
            c_remaining = 0; c_eta_s = None; c_tasks = [ task 1 true; task 2 false ] } }
  in
  let bytes = to_string with_campaign in
  Alcotest.(check string) "campaign section re-serializes bit-equal" bytes
    (to_string (Obs.Snapshot.of_json (Obs.Json.parse bytes)));
  Alcotest.(check bool) "campaign section is hashed" true
    (Obs.Snapshot.content_hash with_campaign <> Obs.Snapshot.content_hash fixed)

let test_capture_roundtrip () =
  Obs.reset ();
  Obs.Counter.add (Obs.Counter.create "snapcap.events_total") 5;
  Obs.Gauge.set (Obs.Gauge.create "snapcap.gauge") 2.25;
  let h = Obs.Histogram.create "snapcap.hist" in
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
  let totals = Obs.Snapshot.span_totals s in
  Alcotest.(check bool) "span totals = paths grouped by last segment" true (totals = grouped);
  Alcotest.(check (list string)) "x's three paths" [ "a;x"; "b;x"; "x"; "x;x" ]
    (List.filter_map
       (fun (p, _, _, _, _, _) -> if last_segment p = "x" then Some p else None)
       s.paths);
  Alcotest.(check bool) "x counted four times" true
    (List.exists (fun (n, c, _, _, _, _) -> n = "x" && c = 4) totals)

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
  Alcotest.(check string) "pinned content hash" "e9ed42dc2e9d3c2b"
    (Obs.Snapshot.content_hash fixed);
  let empty = snap ~run_id:"00000000000000bb" () in
  Alcotest.(check string) "pinned empty-snapshot hash" "ee00e85a5c4bede0"
    (Obs.Snapshot.content_hash empty);
  (* A fleet view is its canonical sources' documents and nothing else. *)
  Alcotest.(check string) "fleet view is the sources array"
    ("[" ^ to_string fixed ^ "," ^ to_string empty ^ "]")
    (fleet_string (Obs.Merge.of_snapshots [ empty; fixed ]))

(* A snapshot document under another schema string. *)
let with_schema name = function
  | Obs.Json.Obj kvs ->
      Obs.Json.Obj
        (List.map (fun (k, v) -> if k = "schema" then (k, Obs.Json.String name) else (k, v)) kvs)
  | j -> j

(* One format: a document under any other schema string is rejected, not
   read with defaults. *)
let test_other_schemas_rejected () =
  List.iter
    (fun old ->
      let doc = with_schema old (Obs.Snapshot.to_json fixed) in
      Alcotest.(check bool) (old ^ " rejected") true
        (match Obs.Snapshot.of_json doc with
        | exception Failure _ -> true
        | _ -> false))
    [ "hetarch.snapshot/4"; "hetarch.snapshot/3"; "hetarch.snapshot/2"; "hetarch.snapshot/1";
      "hetarch.obs/5" ]

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
  let fleet = Obs.Merge.of_snapshots [ s2; s1 ] in
  let m = Obs.Merge.merged fleet in
  Alcotest.(check (list (pair string int))) "counters sum"
    [ ("x.total", 5); ("y.total", 5) ] m.counters;
  (* span counts, totals and allocation words re-fold under one sum rule *)
  Alcotest.(check bool) "span totals sum" true
    (Obs.Snapshot.span_totals m = [ ("s", 3, 350L, 100, 10, 10) ]);
  Alcotest.(check bool) "path aggregates sum" true
    (m.paths = [ ("root;s", 3, 350L, 100, 10, 10) ]);
  (* gauges sum like counters; the per-source readings stay in the sources *)
  Alcotest.(check (list (pair string (float 0.)))) "gauges sum" [ ("g", 4.) ] m.gauges;
  (* histogram buckets add; count/mean/M2 follow Chan's pairwise Welford:
     [2;4] + [6] -> count 3, mean 4, M2 8 *)
  let h = List.assoc "h" m.histograms in
  Alcotest.(check bool) "histogram bucket-merge" true
    (h.h_count = 3 && h.h_mean = 4. && h.h_m2 = 8. && h.h_min = 2. && h.h_max = 6.
    && h.h_counts = counts [ (28, 1); (29, 1); (30, 1) ]);
  Alcotest.(check bool) "window spans the sources" true
    (m.started_unix = 1723100000. && m.wall_seconds = 1.5);
  (* attribution: each source, in canonical (run id) order, is on disk *)
  Alcotest.(check (list string)) "two attributed runs, canonical order"
    [ "0000000000000001"; "0000000000000002" ]
    (List.map (fun (s : Obs.Snapshot.t) -> s.run.run_id) (Obs.Merge.sources fleet));
  Alcotest.(check string) "sources are the document"
    ("[" ^ to_string s1 ^ "," ^ to_string s2 ^ "]")
    (fleet_string fleet)

(* Malformed bucket state is rejected when a document is read — before a
   merge could index past the end of a short counts array — whether it
   comes alone or inside a fleet view. *)
let test_merge_bad_bucket_state () =
  let doc h = Obs.Json.parse (to_string (snap ~histograms:[ ("h", h) ] ())) in
  let refused j = match Obs.Merge.of_json j with exception Failure _ -> true | _ -> false in
  List.iter
    (fun (what, h) ->
      Alcotest.(check bool) what true (refused (doc h));
      Alcotest.(check bool) (what ^ ", in a fleet view") true
        (refused (Obs.Json.List [ Obs.Snapshot.to_json fixed; doc h ])))
    [ ("counts shorter than the layout", { hist_a with Obs.Snapshot.h_counts = [| 2 |] });
      ("counts longer than the layout", { hist_a with h_counts = Array.make (nb + 1) 0 });
      ("negative bucket count", { hist_a with h_counts = counts [ (0, -1); (29, 3) ] });
      ("negative overflow", { hist_a with h_overflow = -1 }) ];
  Alcotest.(check bool) "the layout's length is read" false (refused (doc hist_a))

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

(* qcheck: serialized-bytes merge laws on random snapshot triples. *)
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
  let hist =
    let* counts = array_size (return nb) (0 -- 50) in
    let* overflow = 0 -- 10 in
    let total = Array.fold_left ( + ) overflow counts in
    let* mean = float_bound_inclusive 50. in
    let* m2 = float_bound_inclusive 10. in
    return
      { Obs.Snapshot.h_counts = counts;
        h_overflow = overflow;
        h_count = total;
        h_mean = (if total = 0 then 0. else mean);
        h_m2 = (if total = 0 then 0. else m2);
        h_min = (if total = 0 then infinity else 0.5);
        h_max = (if total = 0 then neg_infinity else mean +. 1.) }
  in
  let histograms =
    let* ha = hist and* hb = hist in
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

let snapshots dir = Filename.concat dir "snapshots"

let test_registry_record_find_load () =
  with_tmp_dir (fun dir ->
      let s1 =
        { (snap ~run_id:"00000000000000aa" ~counters:[ ("c", 1) ] ()) with started_unix = 2e9 }
      in
      let s2 = snap ~run_id:"00000000000000ab" ~counters:[ ("c", 2) ] () in
      Alcotest.(check (option string)) "record writes <run_id>.json"
        (Some (Filename.concat (snapshots dir) "00000000000000aa.json"))
        (Obs.Registry.record ~dir s1);
      ignore (Obs.Registry.record ~dir s2);
      let ids () =
        let runs, skipped = Obs.Registry.runs ~dir () in
        Alcotest.(check int) "nothing skipped" 0 skipped;
        List.map (fun (s : Obs.Snapshot.t) -> s.run.run_id) runs
      in
      Alcotest.(check (list string)) "runs in start order"
        [ "00000000000000ab"; "00000000000000aa" ] (ids ());
      Alcotest.(check string) "cmd key" "collect threshold"
        (Obs.Registry.cmd_of_argv s1.argv);
      (* unambiguous prefix resolves, ambiguous raises, unknown is None *)
      (match Obs.Registry.find ~dir "00000000000000ab" with
      | Some path ->
          Alcotest.(check string) "load round trip" (to_string s2)
            (to_string (Obs.Snapshot.load path))
      | None -> Alcotest.fail "exact id not found");
      Alcotest.(check bool) "unknown prefix is None" true
        (Obs.Registry.find ~dir "ffff" = None);
      Alcotest.(check bool) "ambiguous prefix raises" true
        (match Obs.Registry.find ~dir "000000000000" with
        | exception Failure _ -> true
        | _ -> false);
      (* A run recorded twice under one id is one run, its last state. *)
      let s1' = { s1 with counters = [ ("c", 3) ] } in
      ignore (Obs.Registry.record ~dir s1');
      Alcotest.(check (list string)) "re-recorded id is one run"
        [ "00000000000000ab"; "00000000000000aa" ] (ids ());
      Alcotest.(check string) "the later record wins" (to_string s1')
        (to_string (Obs.Snapshot.load (Option.get (Obs.Registry.find ~dir "00000000000000aa"))));
      (* A hand-deleted snapshot is a run no longer listed. *)
      Sys.remove (Filename.concat (snapshots dir) "00000000000000ab.json");
      Alcotest.(check (list string)) "deleted run drops out" [ "00000000000000aa" ] (ids ());
      Alcotest.(check bool) "and is not found" true
        (Obs.Registry.find ~dir "00000000000000ab" = None))

(* A writer's temp file is not a run; a *.json that does not decode — torn,
   or a snapshot of another schema — is counted as skipped, and the good
   runs still list and resolve. *)
let test_registry_skips_bad_files () =
  with_tmp_dir (fun dir ->
      Alcotest.(check bool) "no snapshots directory: no runs" true
        (Obs.Registry.runs ~dir () = ([], 0));
      let good = snap ~run_id:"00000000000000aa" () in
      ignore (Obs.Registry.record ~dir good);
      let write name text =
        Out_channel.with_open_bin (Filename.concat (snapshots dir) name) (fun oc ->
            Out_channel.output_string oc text)
      in
      let bytes = to_string (snap ~run_id:"00000000000000cc" ()) in
      write "00000000000000bb.json.tmp.123.0.0" bytes;
      write "00000000000000cc.json" (String.sub bytes 0 (String.length bytes / 2));
      write "00000000000000dd.json"
        (Obs.Json.to_string
           (with_schema "hetarch.snapshot/3"
              (Obs.Snapshot.to_json (snap ~run_id:"00000000000000dd" ()))));
      let runs, skipped = Obs.Registry.runs ~dir () in
      Alcotest.(check (list string)) "the good run listed" [ "00000000000000aa" ]
        (List.map (fun (s : Obs.Snapshot.t) -> s.run.run_id) runs);
      Alcotest.(check int) "torn and /3 files skipped, temp file ignored" 2 skipped;
      Alcotest.(check bool) "good prefix resolves" true
        (Obs.Registry.find ~dir "00000000000000a" <> None);
      Alcotest.(check bool) "a temp file has no run id" true
        (Obs.Registry.find ~dir "00000000000000b" = None))

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
          Alcotest.test_case "bad bucket state" `Quick test_merge_bad_bucket_state;
          Alcotest.test_case "fleet docs flatten" `Quick
            test_merge_of_json_flattens_fleet;
          QCheck_alcotest.to_alcotest qcheck_merge_commutative;
          QCheck_alcotest.to_alcotest qcheck_merge_associative;
          QCheck_alcotest.to_alcotest qcheck_merge_idempotent ] );
      ( "registry",
        [ Alcotest.test_case "record/find/load" `Quick
            test_registry_record_find_load;
          Alcotest.test_case "skips bad files" `Quick test_registry_skips_bad_files ] );
      ( "trend",
        [ Alcotest.test_case "median + MAD judgement" `Quick test_trend_judge;
          Alcotest.test_case "min-pct floor" `Quick test_trend_min_pct_floor;
          Alcotest.test_case "noise floor" `Quick test_trend_noise_floor ] ) ]
