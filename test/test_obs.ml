(* Tests for the observability layer: metric semantics, span nesting and
   timing, JSON/JSONL round-trips, and the Dse.Cache gauge regression. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* -------------------------------------------------------------- counters *)

let test_counter () =
  Obs.reset ();
  let c = Obs.Counter.create "test.counter_total" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "incr + add" 42 (Obs.Counter.value c);
  let c' = Obs.Counter.create "test.counter_total" in
  Obs.Counter.incr c';
  Alcotest.(check int) "interned by name" 43 (Obs.Counter.value c);
  Alcotest.(check string) "name" "test.counter_total" (Obs.Counter.name c)

let test_gauge () =
  Obs.reset ();
  let g = Obs.Gauge.create "test.gauge" in
  Obs.Gauge.set g 2.5;
  Obs.Gauge.add g 0.5;
  Alcotest.(check bool) "set/add" true (feq (Obs.Gauge.value g) 3.);
  Obs.Gauge.set_max g 1.;
  Alcotest.(check bool) "set_max keeps larger" true (feq (Obs.Gauge.value g) 3.);
  Obs.Gauge.set_max g 7.;
  Alcotest.(check bool) "set_max takes larger" true (feq (Obs.Gauge.value g) 7.)

(* ------------------------------------------------------------ histograms *)

(* A histogram is read through a capture, the one read path. *)
let captured name =
  List.assoc name (Obs.Snapshot.capture ()).Obs.Snapshot.histograms

let quantile name q = Obs.Snapshot.quantile (captured name) q

(* The one bucket layout: 34 upper bounds from 1 ns to 100 s. *)
let bounds = Obs.Histogram.bounds ()
let nb = Array.length bounds

let test_histogram () =
  Obs.reset ();
  Alcotest.(check int) "34 buckets" 34 nb;
  Alcotest.(check bool) "1 ns to 100 s" true
    (feq ~eps:1e-20 bounds.(0) 1e-9 && feq ~eps:1e-12 bounds.(nb - 1) 100.);
  let h = Obs.Histogram.create "test.hist" in
  (* Each bound is the inclusive top of its bucket; below the first bound
     is the first bucket; past the last is overflow. *)
  let xs = [| 0.; bounds.(3); bounds.(3) *. 1.001; bounds.(27); 500. |] in
  Array.iter (Obs.Histogram.observe h) xs;
  let c = captured "test.hist" in
  Alcotest.(check int) "count" 5 c.h_count;
  Alcotest.(check (list (pair int int)))
    "bucket placement (le semantics, clamped below)"
    [ (0, 1); (3, 1); (4, 1); (27, 1) ]
    (List.filter (fun (_, n) -> n > 0) (List.mapi (fun i n -> (i, n)) (Array.to_list c.h_counts)));
  Alcotest.(check int) "overflow" 1 c.h_overflow;
  Alcotest.(check bool) "mean matches Welford" true
    (feq ~eps:1e-9 c.h_mean (Array.fold_left ( +. ) 0. xs /. 5.));
  Alcotest.(check bool) "min/max" true (feq c.h_min 0. && feq c.h_max 500.);
  (* variance (M2 / (n - 1)) against the two-pass Stats implementation *)
  Alcotest.(check bool) "variance matches Stats.variance" true
    (feq ~eps:1e-6 (c.h_m2 /. 4.) (Stats.variance xs))

let test_histogram_quantile () =
  Obs.reset ();
  let h = Obs.Histogram.create "test.quant" in
  Alcotest.(check bool) "empty -> nan" true (Float.is_nan (quantile "test.quant" 0.5));
  (* 100 samples uniform over (0, 30]: the 50th, 15.0, lies in the bucket
     (10, 21.5], which holds the 34th to the 71st. *)
  for i = 1 to 100 do
    Obs.Histogram.observe h (float_of_int i *. 0.3)
  done;
  let q = quantile "test.quant" in
  (* Interpolated median must land in the bucket holding its rank, near 15. *)
  let p50 = q 0.5 in
  Alcotest.(check bool) "median in its bucket" true (p50 > bounds.(30) && p50 <= bounds.(31));
  Alcotest.(check bool) "median near 15" true (Float.abs (p50 -. 15.) < 2.);
  (* Extremes clamp to the observed range, not the bucket edges. *)
  Alcotest.(check bool) "q=0 is min" true (feq (q 0.) 0.3);
  Alcotest.(check bool) "q=1 is max" true (feq (q 1.) 30.);
  Alcotest.(check bool) "monotone" true (q 0.9 >= q 0.5);
  Alcotest.(check bool) "rejects q out of range" true
    (try
       ignore (q 1.5);
       false
     with Invalid_argument _ -> true);
  (* Overflow-bucket quantiles interpolate toward the observed max. *)
  let o = Obs.Histogram.create "test.quant_overflow" in
  List.iter (Obs.Histogram.observe o) [ 500.; 600.; 700.; 800. ];
  let q = quantile "test.quant_overflow" 0.5 in
  Alcotest.(check bool) "overflow quantile within observed range" true
    (q > bounds.(nb - 1) && q >= 500. && q <= 800.)

let test_histogram_quantile_exact_when_degenerate () =
  Obs.reset ();
  (* One sample: every quantile is that exact value, not a bucket-edge
     interpolation. *)
  let h = Obs.Histogram.create "test.quant_single" in
  Obs.Histogram.observe h 12.5;
  List.iter
    (fun q ->
      Alcotest.(check bool)
        (Printf.sprintf "single sample exact at q=%g" q)
        true
        (feq (quantile "test.quant_single" q) 12.5))
    [ 0.; 0.25; 0.5; 0.9; 1. ];
  (* Many identical samples (min = max) collapse the same way. *)
  let d = Obs.Histogram.create "test.quant_flat" in
  for _ = 1 to 7 do
    Obs.Histogram.observe d 15.
  done;
  Alcotest.(check bool) "min = max exact" true (feq (quantile "test.quant_flat" 0.5) 15.)

(* Every histogram has the one layout, so a document whose counts do not
   match it in length is refused, not read. *)
let test_histogram_rejects_bad_counts () =
  Obs.reset ();
  Obs.Histogram.observe (Obs.Histogram.create "test.bad_counts") 1e-3;
  let s = Obs.Snapshot.capture () in
  let with_counts n =
    { s with
      histograms =
        List.map
          (fun (k, (h : Obs.Snapshot.hist)) -> (k, { h with h_counts = Array.make n 0 }))
          s.histograms }
  in
  let decodes n =
    match Obs.Snapshot.of_json (Obs.Snapshot.to_json (with_counts n)) with
    | _ -> true
    | exception Failure _ -> false
  in
  Alcotest.(check bool) "layout length accepted" true (decodes nb);
  List.iter
    (fun n ->
      Alcotest.(check bool) (Printf.sprintf "%d counts refused" n) false (decodes n))
    [ 0; 2; nb - 1; nb + 1 ]

(* ----------------------------------------------------------------- spans *)

let test_span_nesting_and_timing () =
  Obs.reset ();
  let sleep () = ignore (Sys.opaque_identity (Array.init 1000 (fun i -> i * i))) in
  let result =
    Obs.Trace.with_span "outer" (fun () ->
        Obs.Trace.with_span ~attrs:[ ("k", "v") ] "inner" (fun () ->
            sleep ();
            17))
  in
  Alcotest.(check int) "value passes through" 17 result;
  match Obs.Trace.spans () with
  | [ inner; outer ] ->
      (* children complete (and are recorded) before their parent *)
      Alcotest.(check string) "inner first" "inner" inner.Obs.Trace.name;
      Alcotest.(check string) "outer second" "outer" outer.Obs.Trace.name;
      Alcotest.(check int) "outer depth" 0 outer.Obs.Trace.depth;
      Alcotest.(check int) "inner depth" 1 inner.Obs.Trace.depth;
      Alcotest.(check (list (pair string string)))
        "attrs kept" [ ("k", "v") ] inner.Obs.Trace.attrs;
      Alcotest.(check bool) "durations nonnegative" true
        (inner.Obs.Trace.dur_ns >= 0L && outer.Obs.Trace.dur_ns >= 0L);
      Alcotest.(check bool) "inner starts after outer" true
        (inner.Obs.Trace.start_ns >= outer.Obs.Trace.start_ns);
      Alcotest.(check bool) "outer contains inner" true
        (outer.Obs.Trace.dur_ns >= inner.Obs.Trace.dur_ns)
  | spans ->
      Alcotest.failf "expected exactly 2 spans, got %d" (List.length spans)

let test_span_exception_still_recorded () =
  Obs.reset ();
  (try Obs.Trace.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check int) "span recorded on exception" 1 (Obs.Trace.recorded ());
  (* depth counter must unwind so later spans are roots again *)
  Obs.Trace.with_span "after" (fun () -> ());
  match Obs.Trace.spans () with
  | [ _; after ] -> Alcotest.(check int) "depth unwound" 0 after.Obs.Trace.depth
  | _ -> Alcotest.fail "expected 2 spans"

let test_span_ring_eviction () =
  Obs.reset ();
  Obs.Trace.set_capacity 4;
  for i = 1 to 10 do
    Obs.Trace.with_span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Alcotest.(check int) "all recorded" 10 (Obs.Trace.recorded ());
  let retained = List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.spans ()) in
  Alcotest.(check (list string)) "ring keeps newest" [ "s7"; "s8"; "s9"; "s10" ] retained;
  let totals = Obs.Snapshot.span_totals (Obs.Snapshot.capture ()) in
  Alcotest.(check int) "span totals survive eviction" 10 (List.length totals);
  Obs.Trace.set_capacity 65536

(* The ring is allocated on demand: [set_capacity] only sets the bound, so
   even the default 65536 slots cost nothing until spans arrive. *)
let test_span_ring_on_demand () =
  Obs.reset ();
  let major () = (Gc.quick_stat ()).Gc.major_words in
  let before = major () in
  Obs.Trace.set_capacity 65536;
  let words = int_of_float (major () -. before) in
  Alcotest.(check bool)
    (Printf.sprintf "set_capacity 65536 allocates %d < 1024 major words" words)
    true (words < 1024)

(* Record order holds through every doubling of the ring (512, 1024, 2048
   slots), through growth that stops short of a doubling at a bound that is
   not a power of two (600), and through the wrap at a bound under the first
   size (48). *)
let test_span_ring_growth_order () =
  List.iter
    (fun cap ->
      Obs.reset ();
      Obs.Trace.set_capacity cap;
      let newest_first = ref [] in
      for i = 1 to 2100 do
        let name = Printf.sprintf "s%d" i in
        Obs.Trace.with_span name (fun () -> ());
        newest_first := name :: !newest_first;
        let want = List.rev (List.filteri (fun k _ -> k < cap) !newest_first) in
        Alcotest.(check (list string))
          (Printf.sprintf "capacity %d after %d spans" cap i)
          want
          (List.map (fun s -> s.Obs.Trace.name) (Obs.Trace.spans ()))
      done)
    [ 65536; 600; 48 ];
  Obs.Trace.set_capacity 65536

(* The ring grows while spans are open, yet no span's minor words hold it:
   a parent whose children take the ring from empty through 512 to 1024
   slots allocates exactly what the same parent does on a ring already at
   its bound. *)
let test_span_ring_growth_not_in_minor_w () =
  let parent () =
    Obs.Trace.with_span "parent" (fun () ->
        for _ = 1 to 600 do
          Obs.Trace.with_span "child" (fun () -> ())
        done);
    let last = List.nth (Obs.Trace.spans ()) (List.length (Obs.Trace.spans ()) - 1) in
    Alcotest.(check string) "parent is the newest span" "parent" last.Obs.Trace.name;
    last.Obs.Trace.minor_w
  in
  Obs.reset ();
  ignore (parent ());
  Obs.Trace.set_capacity 65536;
  let growing = parent () in
  Obs.Trace.set_capacity 1024;
  ignore (parent ());
  let at_bound = parent () in
  Alcotest.(check int) "parent minor_w: growing ring = ring at its bound" at_bound growing;
  Obs.Trace.set_capacity 65536

let test_reset_clears_spans () =
  Obs.reset ();
  for _ = 1 to 20 do
    Obs.Trace.with_span "s" (fun () -> ())
  done;
  Obs.reset ();
  Alcotest.(check int) "no spans retained" 0 (List.length (Obs.Trace.spans ()));
  Alcotest.(check int) "none recorded" 0 (Obs.Trace.recorded ())

(* ------------------------------------------------------------ round-trip *)

let test_json_roundtrip () =
  let open Obs.Json in
  let doc =
    Obj
      [ ("s", String "he\"llo\n");
        ("i", Int (-42));
        ("f", Float 3.25);
        ("b", Bool true);
        ("n", Null);
        ("l", List [ Int 1; Float 0.1; String "x" ]);
        ("o", Obj [ ("nested", Bool false) ]) ]
  in
  Alcotest.(check bool) "parse inverts to_string" true
    (parse (to_string doc) = doc);
  Alcotest.(check bool) "rejects garbage" true
    (try
       ignore (parse "{\"a\": }");
       false
     with Failure _ -> true);
  Alcotest.(check bool) "rejects trailing" true
    (try
       ignore (parse "1 2");
       false
     with Failure _ -> true)

let test_json_unicode_escapes () =
  let open Obs.Json in
  (* BMP escape decodes to UTF-8. *)
  Alcotest.(check bool) "\\u00e9 -> UTF-8" true
    (parse "\"\\u00e9\"" = String "\xc3\xa9");
  Alcotest.(check bool) "\\u2603 -> 3-byte UTF-8" true
    (parse "\"\\u2603\"" = String "\xe2\x98\x83");
  (* Surrogate pair combines to one 4-byte code point, not CESU-8. *)
  Alcotest.(check bool) "surrogate pair -> 4-byte UTF-8" true
    (parse "\"\\ud83d\\ude00\"" = String "\xf0\x9f\x98\x80");
  (* Strict hex: int_of_string-isms like underscores must not sneak in. *)
  Alcotest.(check bool) "underscore in hex rejected" true
    (try
       ignore (parse "\"\\u1_23\"");
       false
     with Failure _ -> true);
  Alcotest.(check bool) "truncated escape rejected" true
    (try
       ignore (parse "\"\\u12\"");
       false
     with Failure _ -> true);
  (* A lone high surrogate still parses (kept as its own code point). *)
  Alcotest.(check bool) "lone surrogate tolerated" true
    (match parse "\"\\ud83dx\"" with String s -> String.length s = 4 | _ -> false)

(* Fuzz: to_string/parse must round-trip any byte string we can emit,
   including control characters, quotes, backslashes, and high bytes. *)
let test_json_string_fuzz_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json string round-trip"
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s ->
      let open Obs.Json in
      parse (to_string (String s)) = String s
      && parse (to_string (Obj [ (s, Int 1) ])) = Obj [ (s, Int 1) ])

(* String rendering against the escape that always built a copy: the fast
   path that returns a string needing no escape as it is must render the
   same bytes.  Strings mix quotes, backslashes, control bytes, DEL,
   printable ASCII and bytes >= 0x80; one case in four has no byte that
   needs escaping. *)
let test_json_escape_matches_copying =
  let copying_escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let open QCheck.Gen in
  let any =
    frequency
      [ (1, oneofl [ '"'; '\\' ]);
        (1, map Char.chr (0 -- 0x1f));
        (4, printable);
        (1, return '\x7f');
        (2, map Char.chr (0x80 -- 0xff)) ]
  in
  let plain = frequency [ (4, printable); (1, map Char.chr (0x7f -- 0xff)) ] in
  let plain = map (fun c -> if c = '"' || c = '\\' then 'x' else c) plain in
  let gen = frequency [ (3, string_size ~gen:any (0 -- 40)); (1, string_size ~gen:plain (0 -- 40)) ] in
  QCheck.Test.make ~count:2000 ~name:"json escape = copying escape"
    (QCheck.make ~print:String.escaped gen)
    (fun s ->
      let open Obs.Json in
      let want = "\"" ^ copying_escape s ^ "\"" in
      to_string (String s) = want
      && to_string (Obj [ (s, Int 1) ]) = "{" ^ want ^ ":1}")

(* The document --metrics writes: a captured snapshot, re-read from its
   serialization. *)
let metrics_doc () =
  Obs.Json.parse
    (Obs.Json.to_string (Obs.Snapshot.to_json (Obs.Snapshot.capture ())))

let test_report_process_section () =
  Obs.reset ();
  ignore (Sys.opaque_identity (Array.init 10_000 (fun i -> float_of_int i)));
  let doc = metrics_doc () in
  Alcotest.(check bool) "snapshot schema" true
    (Obs.Json.member "schema" doc = Some (Obs.Json.String Obs.Snapshot.schema));
  (* every snapshot carries the run stamp for fleet attribution *)
  let run = Option.get (Obs.Json.member "run" doc) in
  Alcotest.(check bool) "run id is 16 hex digits" true
    (match Obs.Json.member "id" run with
    | Some (Obs.Json.String id) ->
        String.length id = 16
        && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) id
    | _ -> false);
  Alcotest.(check bool) "wall clock nonnegative" true
    (Obs.Json.to_float (Option.get (Obs.Json.member "wall_seconds" run)) >= 0.);
  let proc = Option.get (Obs.Json.member "process" doc) in
  let f name = Obs.Json.to_float (Option.get (Obs.Json.member name proc)) in
  Alcotest.(check bool) "minor words counted" true (f "minor_words" > 0.);
  Alcotest.(check bool) "heap words positive" true (f "heap_words" > 0.);
  Alcotest.(check bool) "top heap >= heap" true
    (f "top_heap_words" >= f "heap_words" || f "top_heap_words" = 0.);
  Alcotest.(check bool) "collections nonnegative" true
    (f "minor_collections" >= 0. && f "major_collections" >= 0.)

(* Quantiles are derived by readers from the snapshot's buckets: a
   re-read document answers exactly as the capture it was written from. *)
let test_report_quantiles () =
  Obs.reset ();
  let h = Obs.Histogram.create "rq.hist" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 2.; 3.; 4.; 20. ];
  let snap = Obs.Snapshot.of_json (metrics_doc ()) in
  let hist = List.assoc "rq.hist" snap.Obs.Snapshot.histograms in
  List.iter
    (fun q ->
      let x = Obs.Snapshot.quantile hist q in
      Alcotest.(check bool) (Printf.sprintf "q%g within range" q) true
        (x >= 0.5 && x <= 20.);
      Alcotest.(check bool) (Printf.sprintf "q%g matches the capture" q) true
        (x = quantile "rq.hist" q))
    [ 0.5; 0.9; 0.99 ]

let test_report_roundtrip () =
  Obs.reset ();
  let c = Obs.Counter.create "rt.events_total" in
  Obs.Counter.add c 7;
  let g = Obs.Gauge.create "rt.gauge" in
  Obs.Gauge.set g 1.5;
  let h = Obs.Histogram.create "rt.hist" in
  Obs.Histogram.observe h 0.5;
  Obs.Trace.with_span "rt.span" (fun () -> ());
  let doc = metrics_doc () in
  let counters = Option.get (Obs.Json.member "counters" doc) in
  Alcotest.(check bool) "counter value" true
    (Obs.Json.member "rt.events_total" counters = Some (Obs.Json.Int 7));
  let gauges = Option.get (Obs.Json.member "gauges" doc) in
  Alcotest.(check bool) "gauge value" true
    (feq 1.5 (Obs.Json.to_float (Option.get (Obs.Json.member "rt.gauge" gauges))));
  let hists = Option.get (Obs.Json.member "histograms" doc) in
  let hist = Option.get (Obs.Json.member "rt.hist" hists) in
  Alcotest.(check bool) "hist count" true
    (Obs.Json.member "count" hist = Some (Obs.Json.Int 1));
  let paths = Option.get (Obs.Json.member "paths" doc) in
  let span = Option.get (Obs.Json.member "rt.span" paths) in
  Alcotest.(check bool) "span count" true
    (Obs.Json.member "count" span = Some (Obs.Json.Int 1))

let test_trace_export_jsonl () =
  Obs.reset ();
  Obs.Trace.with_span "a" (fun () -> Obs.Trace.with_span "b" (fun () -> ()));
  let path = Filename.temp_file "hetarch_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.export ~path;
      let all_lines =
        In_channel.with_open_text path In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
      in
      (* The first record is a ph:"M" metadata event carrying run identity;
         span aggregation must only ever count ph:"X" events. *)
      (match all_lines with
      | meta :: _ ->
          let m = Obs.Json.parse meta in
          Alcotest.(check bool) "run metadata event first" true
            (Obs.Json.member "ph" m = Some (Obs.Json.String "M")
            && Obs.Json.member "name" m = Some (Obs.Json.String "hetarch.run")
            && Option.bind (Obs.Json.member "args" m) (Obs.Json.member "id")
               <> None)
      | [] -> Alcotest.fail "empty trace export");
      let lines =
        List.filter
          (fun l ->
            Obs.Json.member "ph" (Obs.Json.parse l)
            = Some (Obs.Json.String "X"))
          all_lines
      in
      Alcotest.(check int) "one line per span" 2 (List.length lines);
      List.iter
        (fun line ->
          let obj = Obs.Json.parse line in
          Alcotest.(check bool) "has chrome-trace fields" true
            (Obs.Json.member "name" obj <> None
            && Obs.Json.member "ph" obj = Some (Obs.Json.String "X")
            && Obs.Json.member "ts" obj <> None
            && Obs.Json.member "dur" obj <> None
            && Obs.Json.member "args" obj <> None))
        lines;
      let names =
        List.map
          (fun l -> Option.get (Obs.Json.member "name" (Obs.Json.parse l)))
          lines
      in
      Alcotest.(check bool) "completion order" true
        (names = [ Obs.Json.String "b"; Obs.Json.String "a" ]);
      (* Chrome-trace mapping: tid is the recording domain (one Perfetto
         track per domain), pid is 0, and depth/path travel in args. *)
      let inner = Obs.Json.parse (List.hd lines) in
      Alcotest.(check bool) "pid 0" true
        (Obs.Json.member "pid" inner = Some (Obs.Json.Int 0));
      Alcotest.(check bool) "tid is the recording domain" true
        (Obs.Json.member "tid" inner
        = Some (Obs.Json.Int (Domain.self () :> int)));
      let args = Option.get (Obs.Json.member "args" inner) in
      Alcotest.(check bool) "depth in args" true
        (Obs.Json.member "depth" args = Some (Obs.Json.Int 1));
      Alcotest.(check bool) "path in args" true
        (Obs.Json.member "path" args = Some (Obs.Json.String "a;b")))

(* -------------------------------------------------- cache gauge regression *)

let test_cache_gauges_match_accessors () =
  Obs.reset ();
  let cache = Cache.create () in
  let touch key dim = ignore (Cache.find_or_compute cache ~key ~dim (fun () -> 0)) in
  (* mixed workload: repeats at several dims, some singletons *)
  touch "reg" 4;
  touch "reg" 4;
  touch "reg" 4;
  touch "usc" 32;
  touch "usc" 32;
  touch "par" 8;
  let gauge name = Obs.Gauge.value (Obs.Gauge.create name) in
  Alcotest.(check bool) "hits gauge" true
    (feq (gauge "dse.cache_hits") (float_of_int (Cache.hits cache)));
  Alcotest.(check bool) "misses gauge" true
    (feq (gauge "dse.cache_misses") (float_of_int (Cache.misses cache)));
  Alcotest.(check bool) "cost_paid gauge" true
    (feq (gauge "dse.cache_cost_paid") (Cache.cost_paid cache));
  Alcotest.(check bool) "cost_avoided gauge" true
    (feq (gauge "dse.cache_cost_avoided") (Cache.cost_avoided cache))

let test_cache_reset_and_stats () =
  Obs.reset ();
  let cache = Cache.create () in
  let calls = ref 0 in
  let touch () =
    ignore
      (Cache.find_or_compute cache ~key:"k" ~dim:4 (fun () ->
           incr calls;
           !calls))
  in
  touch ();
  touch ();
  Alcotest.(check int) "one compute before reset" 1 !calls;
  let s = Cache.stats cache in
  Alcotest.(check bool) "stats mentions hit/miss" true
    (feq (Cache.cost_paid cache) 64.
    && String.length s > 0
    && String.sub s 0 6 = "cache:");
  Cache.reset cache;
  Alcotest.(check int) "counters cleared" 0 (Cache.hits cache + Cache.misses cache);
  Alcotest.(check bool) "costs cleared" true
    (feq (Cache.cost_paid cache) 0. && feq (Cache.cost_avoided cache) 0.);
  touch ();
  Alcotest.(check int) "entries dropped, recomputes" 2 !calls

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
          Alcotest.test_case "histogram degenerate quantile" `Quick
            test_histogram_quantile_exact_when_degenerate;
          Alcotest.test_case "histogram bad counts" `Quick
            test_histogram_rejects_bad_counts ] );
      ( "trace",
        [ Alcotest.test_case "nesting and timing" `Quick test_span_nesting_and_timing;
          Alcotest.test_case "exception safety" `Quick test_span_exception_still_recorded;
          Alcotest.test_case "ring eviction" `Quick test_span_ring_eviction;
          Alcotest.test_case "ring on demand" `Quick test_span_ring_on_demand;
          Alcotest.test_case "ring growth order" `Quick test_span_ring_growth_order;
          Alcotest.test_case "ring growth not in minor_w" `Quick
            test_span_ring_growth_not_in_minor_w;
          Alcotest.test_case "reset clears spans" `Quick test_reset_clears_spans ] );
      ( "roundtrip",
        [ Alcotest.test_case "json" `Quick test_json_roundtrip;
          Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escapes;
          QCheck_alcotest.to_alcotest test_json_string_fuzz_roundtrip;
          QCheck_alcotest.to_alcotest test_json_escape_matches_copying;
          Alcotest.test_case "report" `Quick test_report_roundtrip;
          Alcotest.test_case "report process section" `Quick
            test_report_process_section;
          Alcotest.test_case "report quantiles" `Quick test_report_quantiles;
          Alcotest.test_case "trace jsonl" `Quick test_trace_export_jsonl ] );
      ( "cache",
        [ Alcotest.test_case "gauges match accessors" `Quick
            test_cache_gauges_match_accessors;
          Alcotest.test_case "reset and stats" `Quick test_cache_reset_and_stats ] ) ]
