(* Snapshot serialization — bit-equal round trips, pinned hashes, strict
   decoding of torn, malformed and other-schema documents, the run object a
   real process writes — and the one-point regression judge. *)

let to_string snap = Obs.Json.to_string (Obs.Snapshot.to_json snap)

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

let snap ?(run_id = "00000000000000aa") ?(shard = "") ?(counters = []) ?(gauges = [])
    ?(histograms = []) ?(spans = []) () =
  { Obs.Snapshot.run = { run_id; shard };
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
  snap ~shard:"shard0/3"
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
  Alcotest.(check string) "pinned content hash" "032e4cc6102c2a80"
    (Obs.Snapshot.content_hash fixed);
  let empty = snap ~run_id:"00000000000000bb" () in
  Alcotest.(check string) "pinned empty-snapshot hash" "9512b52e7ac3d38d"
    (Obs.Snapshot.content_hash empty)

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
    [ "hetarch.snapshot/5"; "hetarch.snapshot/4"; "hetarch.snapshot/3"; "hetarch.snapshot/2";
      "hetarch.snapshot/1"; "hetarch.obs/5" ]

(* A torn snapshot — cut at any byte — is a Failure and nothing else; only
   the complete document parses. *)
let test_truncated_every_byte () =
  Obs.reset ();
  Obs.Counter.add (Obs.Counter.create "torn.events_total") 3;
  Obs.Histogram.observe (Obs.Histogram.create "torn.seconds") 1e-3;
  Obs.Trace.with_span "torn.span" (fun () -> ());
  let captured = Obs.Snapshot.capture () in
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
  check "snapshot" (to_string captured) (fun j -> ignore (Obs.Snapshot.of_json j))

(* Malformed bucket state is rejected when a document is read, before a
   reader could index past the end of a short counts array; so is any JSON
   value that is not a snapshot object. *)
let test_bad_bucket_state () =
  let doc h = Obs.Json.parse (to_string (snap ~histograms:[ ("h", h) ] ())) in
  let refused j = match Obs.Snapshot.of_json j with exception Failure _ -> true | _ -> false in
  List.iter
    (fun (what, h) -> Alcotest.(check bool) what true (refused (doc h)))
    [ ("counts shorter than the layout", { hist_a with Obs.Snapshot.h_counts = [| 2 |] });
      ("counts longer than the layout", { hist_a with h_counts = Array.make (nb + 1) 0 });
      ("negative bucket count", { hist_a with h_counts = counts [ (0, -1); (29, 3) ] });
      ("negative overflow", { hist_a with h_overflow = -1 }) ];
  Alcotest.(check bool) "the layout's length is read" false (refused (doc hist_a));
  List.iter
    (fun (what, j) -> Alcotest.(check bool) what true (refused j))
    [ ("an array of snapshots", Obs.Json.List [ Obs.Snapshot.to_json fixed ]);
      ("a string", Obs.Json.String "hetarch.snapshot/6");
      ("null", Obs.Json.Null) ]

(* ------------------------------------------------------- real processes *)

(* The CLI binary is a declared dependency of this test (see test/dune)
   and lives next to the test executable in the build tree. *)
let hetarch_bin =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "main.exe")

(* The --metrics snapshot of one shard of a real campaign, run under a
   pinned run id, as raw bytes. *)
let campaign_snapshot =
  lazy
    (let path = Filename.temp_file "hetarch_snap" ".json" in
     Fun.protect
       ~finally:(fun () -> Sys.remove path)
       (fun () ->
         let cmd =
           "HETARCH_RUN_ID=00000000000000c7 "
           ^ Filename.quote_command hetarch_bin ~stdout:"/dev/null"
               [ "collect"; "threshold"; "--seed"; "7"; "--max-shots"; "512"; "--batch";
                 "256"; "--shards"; "3"; "--shard"; "2"; "--metrics"; path ]
         in
         Alcotest.(check int) "collect exits 0" 0 (Sys.command cmd);
         In_channel.with_open_bin path In_channel.input_all))

(* A real campaign's snapshot re-encodes to the same bytes and carries the
   campaign; dropping any section the writer always emits is rejected. *)
let test_sections_required () =
  let bytes = String.trim (Lazy.force campaign_snapshot) in
  let s = Obs.Snapshot.of_json (Obs.Json.parse bytes) in
  Alcotest.(check string) "re-encodes byte-equal" bytes (to_string s);
  Alcotest.(check bool) "carries the campaign" true (s.campaign <> None);
  match Obs.Json.parse bytes with
  | Obs.Json.Obj kvs ->
      List.iter
        (fun key ->
          Alcotest.(check bool) ("without " ^ key ^ " rejected") true
            (match Obs.Snapshot.of_json (Obs.Json.Obj (List.remove_assoc key kvs)) with
            | exception Failure _ -> true
            | _ -> false))
        [ "schema"; "run"; "counters"; "gauges"; "histograms"; "paths"; "process" ]
  | _ -> Alcotest.fail "snapshot is not an object"

(* The run object names the run once: HETARCH_RUN_ID pins its id, and
   `collect --shard` its shard label. *)
let test_run_object () =
  match Obs.Json.member "run" (Obs.Json.parse (Lazy.force campaign_snapshot)) with
  | Some (Obs.Json.Obj kvs) ->
      Alcotest.(check (list string)) "run object keys"
        [ "id"; "shard"; "argv"; "started_unix"; "wall_seconds"; "jobs" ]
        (List.map fst kvs);
      Alcotest.(check bool) "HETARCH_RUN_ID pins the id" true
        (List.assoc "id" kvs = Obs.Json.String "00000000000000c7");
      Alcotest.(check bool) "shard label stamped" true
        (List.assoc "shard" kvs = Obs.Json.String "shard2/3")
  | _ -> Alcotest.fail "snapshot has no run object"

(* ----------------------------------------------------------------- trend *)

let test_trend_min_pct_floor () =
  (* A rise within the threshold is jitter; one past it regresses. *)
  let judge cur =
    (List.hd (Obs.Trend.judge ~threshold_pct:10. ~baseline:[ ("m", 100.) ] [ ("m", cur) ]))
      .Obs.Trend.v_regression
  in
  Alcotest.(check bool) "within floor" false (judge 105.);
  Alcotest.(check bool) "past floor" true (judge 115.)

let test_trend_noise_floor () =
  let v =
    List.hd (Obs.Trend.judge ~noise_floor_ns:1e6 ~baseline:[ ("m", 100.) ] [ ("m", 500.) ])
  in
  Alcotest.(check bool) "sub-floor metrics never flag" false v.Obs.Trend.v_regression

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
            test_truncated_every_byte;
          Alcotest.test_case "bad bucket state" `Quick test_bad_bucket_state;
          Alcotest.test_case "sections required" `Quick test_sections_required;
          Alcotest.test_case "run object" `Quick test_run_object ] );
      ( "trend",
        [ Alcotest.test_case "min-pct floor" `Quick test_trend_min_pct_floor;
          Alcotest.test_case "noise floor" `Quick test_trend_noise_floor ] ) ]
