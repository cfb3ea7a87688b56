(* Benchmark harness: one Bechamel test per paper table/figure kernel, plus a
   headline-reproduction pass that prints the comparative numbers the paper
   reports.  `dune exec bench/main.exe` runs both; `-- --quick` runs a
   fast smoke pass (short quota, no headline).  Either way the measured
   ns/run per kernel land in BENCH_hetarch.json together with the seed and
   an observability snapshot, so the perf trajectory is machine-readable. *)

open Bechamel
open Toolkit

(* Every kernel draws its RNG stream from this one knob so a bench run is
   reproducible end to end and the seed can be recorded in the JSON. *)
let seed = 2023

let quick = Array.exists (String.equal "--quick") Sys.argv

(* ------------------------------------------------------- kernels ------- *)

let kernel_table1 () =
  List.iter Device.validate Device.catalog;
  Device.table_rows ()

let kernel_table2 () =
  List.map (fun c -> Design_rules.check c.Cell.graph) (Cell.all ())

let kernel_fig3 () =
  let cfg = Distill_module.heterogeneous ~rate_hz:1e6 () in
  Distill_module.run cfg (Rng.create seed) ~horizon:100e-6

let kernel_fig4 () =
  let cfg = Distill_module.heterogeneous ~ts:2.5e-3 ~rate_hz:1e6 () in
  Distill_module.run cfg (Rng.create seed) ~horizon:500e-6

(* Sub-threshold operating point (p2 = 1e-3): the regime fig. 6 curves are
   actually estimated in, where logical errors are rare and per-shot decode
   work is light.  The default p2 = 1e-2 sits at the code threshold — ~9.5
   error events per d=7 shot — which benchmarks the decoder on saturated
   syndromes rather than the estimation pipeline. *)
let fig6_exp =
  lazy
    (Surface_circuit.build
       { (Surface_circuit.default ~distance:7) with t_data = 5e-4; p2 = 1e-3 })

let kernel_fig6 () =
  Surface_circuit.logical_error_rate (Lazy.force fig6_exp) (Rng.create seed) ~shots:10

let fig7_exp = lazy (Surface_circuit.build (Surface_circuit.default ~distance:5))

let kernel_fig7 () =
  Surface_circuit.logical_error_rate (Lazy.force fig7_exp) (Rng.create seed) ~shots:10

(* Scalar-vs-batch sampler pair: identical work (sample [pair_shots] shots
   of the d=7 surface circuit, count observable flips), one via the per-shot
   reference sampler and one via the bit-parallel batch sampler.  The pair is
   recorded in BENCH_hetarch.json so the batching speedup is tracked. *)
let pair_shots = 126

let kernel_sample_scalar () =
  let c = (Lazy.force fig6_exp).Surface_circuit.circuit in
  let rng = Rng.create seed in
  let flips = ref 0 in
  for _ = 1 to pair_shots do
    let shot = Frame.sample_shot c rng in
    if Bitvec.get shot.Frame.observables 0 then incr flips
  done;
  !flips

let kernel_sample_batch () =
  let c = (Lazy.force fig6_exp).Surface_circuit.circuit in
  (Frame_batch.flip_counts (Frame_batch.sample c (Rng.create seed) ~nshots:pair_shots)).(0)

(* Fused sample->decode pair: identical work (estimate the d=7 logical error
   count over [pair_shots] shots), once via the batch circuit sampler with a
   per-shot transpose + scalar union-find decode — the pre-fusion pipeline —
   and once via the fused path: DEM-direct sampling straight into detector
   bit-planes, batch-decoded on the reusable arena.  check_bench enforces
   the pair's min_speedup floor, so the fusion payoff is a hard CI gate. *)
let kernel_sample_decode_scalar () =
  let exp = Lazy.force fig6_exp in
  let b =
    Frame_batch.sample exp.Surface_circuit.circuit (Rng.create seed)
      ~nshots:pair_shots
  in
  let errors = ref 0 in
  for s = 0 to pair_shots - 1 do
    let detectors, observables = Frame_batch.shot b s in
    if Decoder_uf.decode exp.Surface_circuit.graph detectors
       <> Bitvec.get observables 0
    then incr errors
  done;
  !errors

let kernel_sample_decode_batch () =
  let exp = Lazy.force fig6_exp in
  let b =
    Dem_sampler.sample exp.Surface_circuit.sampler (Rng.create seed)
      ~nshots:pair_shots
  in
  Decoder_uf.decode_batch_count exp.Surface_circuit.graph
    ~detectors:b.Frame_batch.detectors
    ~observable:b.Frame_batch.observables.(0) ~nshots:pair_shots

(* Steady-state batch decode: detectors sampled once, output row reused, so
   the kernel is the pure arena decode loop.  Its zero-alloc contract
   (max_minor_words_per_run = 0) is the hard CI gate proving the decode hot
   path stays allocation-free. *)
let steady_decode =
  lazy
    (let exp = Lazy.force fig6_exp in
     let b =
       Dem_sampler.sample exp.Surface_circuit.sampler (Rng.create seed)
         ~nshots:pair_shots
     in
     (exp.Surface_circuit.graph, b.Frame_batch.detectors,
      Bitvec.create pair_shots))

let kernel_decode_steady () =
  let g, detectors, out = Lazy.force steady_decode in
  Decoder_uf.decode_batch_into g ~detectors ~nshots:pair_shots ~out

(* Cold-vs-warm characterization pair: identical workload — the charsweep
   alpha sweep's storage-cell operations — once paying density-matrix
   simulation per run (cold: fresh memory cache, no store) and once served
   entirely from a pre-populated persistent store (warm: fresh memory cache
   per run, so every characterization is a disk hit).  The recorded ratio is
   the cross-process warm-start speedup the store buys; check_bench enforces
   a floor on it. *)
let char_points =
  lazy
    (List.concat_map
       (fun alpha ->
         let base = Device.multimode_resonator_3d in
         let storage =
           Device.with_coherence base ~t1:(alpha *. base.Device.t1)
             ~t2:(alpha *. base.Device.t2)
         in
         (* Only the density-matrix-heavy operations: the cheap analytic
            ones (load, retention) would pad the warm side's constant
            per-op store overhead without adding meaningful cold work,
            understating the warm-start payoff. *)
         [ (Cell.seqop ~storage (), Characterize.Seq_cnots { count = 5 });
           (Cell.usc ~storage (),
            Characterize.Stabilizer { weight = 4; serialized = true }) ])
       [ 1.; 2.; 3.; 4.; 5. ])

let memo_with ?disk cache =
  { Characterize.memoize =
      (fun ~kind ~fields ~dim f ->
        Cache.find_or_compute ?disk cache ~key:(Store.key ~kind ~fields) ~dim f) }

let char_run memo =
  List.iter
    (fun (cell, op) -> ignore (Characterize.characterize_op ~memo cell op))
    (Lazy.force char_points)

let char_store_dir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hetarch_bench_store.%d" (Unix.getpid ()))

(* Opening the store populates it once (a single cold pass with write-back),
   so the warm kernel measures the pure disk-hit path. *)
let char_store =
  lazy
    (let s = Store.open_dir char_store_dir in
     char_run (memo_with ~disk:(s, Char_store.codec) (Cache.create ()));
     s)

let kernel_char_cold () = char_run (memo_with (Cache.create ()))

let kernel_char_warm () =
  char_run
    (memo_with ~disk:(Lazy.force char_store, Char_store.codec) (Cache.create ()))

let kernel_fig9 () =
  Uec.fig9_point ~code:Codes.steane ~ts:10e-3 ~shots:100 (Rng.create seed)

let kernel_table3 () =
  Uec.table3_row ~code:Codes.steane ~ts:50e-3 ~shots:100 (Rng.create seed)

let kernel_fig12 () =
  Teleport.fig12_point ~code_a:(Codes.surface 3) ~code_b:(Codes.surface 4) ~ts:10e-3
    ~shots:50 (Rng.create seed)

let kernel_table4 () =
  let b =
    Teleport.homogeneous ~code_a:Codes.steane ~code_b:(Codes.surface 3) ~shots:50
      (Rng.create seed)
  in
  b.Teleport.total

let kernel_repeater () =
  Repeater.run (Repeater.default ~n_links:4 ~link_rate_hz:1e6 ()) (Rng.create seed)
    ~horizon:200e-6

(* Ledger-append throughput: one batch record through the JSONL writer
   (format + write + flush), the per-batch bookkeeping cost a collect
   campaign pays on top of sampling. *)
let ledger_path = Filename.concat (Filename.get_temp_dir_name ()) "hetarch_bench_ledger.jsonl"

let ledger_writer = lazy (Collect.Ledger.open_writer ledger_path)

let kernel_ledger_append () =
  Collect.Ledger.append (Lazy.force ledger_writer)
    { Collect.Ledger.task_id = "0123456789abcdef"; shots = 1024; errors = 17;
      seconds = 0.25; jobs = 1; seed }

(* Observability overhead kernels: one traced span (timing + path/totals
   bookkeeping) and one forced telemetry record (counter deltas, GC
   snapshot, JSON format + flush) against a /dev/null sink.  These bound the
   cost of always-on instrumentation; check_bench requires both so the
   overhead trend stays machine-readable. *)
let kernel_span_record () = Obs.Trace.with_span "bench.span" (fun () -> ())

let telemetry_sink = lazy (Obs.Telemetry.enable ~path:"/dev/null" ~interval_s:1e9)

let kernel_telemetry_snapshot () =
  Lazy.force telemetry_sink;
  Obs.Telemetry.tick ~force:true ()

(* Fleet-observability kernels: one full snapshot capture + atomic write —
   the fixed cost every registry-recording run pays at exit — and one 3-way
   fleet merge + serialization, the per-merge cost of `hetarch obs merge`.
   check_bench requires both so the snapshot-path overhead trend stays
   machine-readable. *)
let snapshot_path =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hetarch_bench_snapshot.%d.json" (Unix.getpid ()))

let kernel_snapshot_write () =
  Obs.Snapshot.write ~path:snapshot_path (Obs.Snapshot.capture ())

let merge_sources =
  lazy
    (let base = Obs.Snapshot.capture () in
     List.map
       (fun i -> { base with Obs.Snapshot.run_id = Printf.sprintf "%016x" i })
       [ 1; 2; 3 ])

let kernel_obs_merge () =
  Obs.Json.to_string
    (Obs.Merge.to_json (Obs.Merge.of_snapshots (Lazy.force merge_sources)))

(* One `obs monitor --once` refresh over a synthetic 4-stream fleet (32
   records per stream, realistic record shape): directory scan, torn-tail
   JSONL fold to each last record, row derivation, JSON render.  This is
   the polling cost the live monitor pays every --interval, so check_bench
   requires it to keep the refresh trend machine-readable. *)
let monitor_fixture =
  lazy
    (let dir =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "hetarch_bench_monitor.%d" (Unix.getpid ()))
     in
     let td = Filename.concat dir "telemetry" in
     List.iter (fun p -> try Sys.mkdir p 0o755 with Sys_error _ -> ()) [ dir; td ];
     for s = 0 to 3 do
       let run_id = Printf.sprintf "%016x" (0xbe40 + s) in
       let oc = open_out (Filename.concat td (run_id ^ ".jsonl")) in
       for seq = 0 to 31 do
         let record =
           Obs.Json.Obj
             [ ("schema", Obs.Json.String "hetarch.telemetry/4");
               ( "run",
                 Obs.Json.Obj
                   [ ("id", Obs.Json.String run_id);
                     ("shard", Obs.Json.String (Printf.sprintf "shard%d/4" s));
                     ("trace_id", Obs.Json.String "00000000000be400");
                     ("span_id", Obs.Json.String run_id);
                     ("parent_span_id", Obs.Json.String "00000000000be4ff") ] );
               ("seq", Obs.Json.Int seq);
               ("elapsed_s", Obs.Json.Float (0.5 *. float_of_int seq));
               ("dt_s", Obs.Json.Float 0.5);
               ("interval_s", Obs.Json.Float 0.5);
               ( "campaign",
                 Obs.Json.Obj
                   [ ("shots", Obs.Json.Int (1024 * (seq + 1)));
                     ("shots_per_s", Obs.Json.Float 2048.);
                     ("eta_s", Obs.Json.Float 12.5);
                     ("tasks_done", Obs.Json.Int (seq / 8));
                     ("tasks", Obs.Json.Int 6);
                     ( "task_progress",
                       Obs.Json.List
                         (List.init 6 (fun t ->
                              Obs.Json.Obj
                                [ ("done", Obs.Json.Bool (t < seq / 8));
                                  ( "rel_halfwidth",
                                    Obs.Json.Float (0.05 /. float_of_int (t + 1))
                                  ) ])) ) ] );
               ("gc", Obs.Json.Obj [ ("minor_words_delta", Obs.Json.Int 80_000) ]);
               ( "parallel",
                 Obs.Json.Obj
                   [ ("queue_depth", Obs.Json.Int 3);
                     ("busy_domains", Obs.Json.Int 2) ] ) ]
         in
         output_string oc (Obs.Json.to_string record);
         output_char oc '\n'
       done;
       close_out oc
     done;
     dir)

let kernel_obs_monitor_once () =
  Obs.Monitor.scan ~dir:(Lazy.force monitor_fixture) ()
  |> List.map (fun r -> Obs.Json.to_string (Obs.Monitor.row_json r))

let kernel_burden () =
  List.map Burden.reduction
    [ Burden.distillation_module (); Burden.uec_module (); Burden.ct_module () ]

(* `hetarch serve` steady-state request path: parse one request line,
   normalize and content-hash it, and answer from the warm in-memory
   response tier — the per-request cost of a warm daemon, excluding socket
   I/O.  check_bench requires this kernel WITH its minor-words floor: the
   warm path is the daemon's hot loop, and letting its allocation creep
   turns a busy server into GC pressure. *)
let serve_request_line = {|{"kind":"threshold","distance":3,"shots":1024,"seed":1}|}

let serve_fixture =
  lazy
    (match Serve.parse_request serve_request_line with
    | Ok (Serve.Query q) ->
        Serve.cache_response q (Serve.compute_answer q);
        q
    | _ -> assert false)

let kernel_serve_request_warm () =
  ignore (Lazy.force serve_fixture);
  match Serve.parse_request serve_request_line with
  | Ok (Serve.Query q) -> (
      match Serve.warm_answer q with
      | Some body -> body
      | None -> assert false)
  | _ -> assert false

let tests =
  Test.make_grouped ~name:"hetarch" ~fmt:"%s %s"
    [ Test.make ~name:"table1-devices" (Staged.stage kernel_table1);
      Test.make ~name:"table2-cells-drc" (Staged.stage kernel_table2);
      Test.make ~name:"fig3-distill-trace" (Staged.stage kernel_fig3);
      Test.make ~name:"fig4-distill-rate-point" (Staged.stage kernel_fig4);
      Test.make ~name:"fig6-surface-d7" (Staged.stage kernel_fig6);
      Test.make ~name:"fig6-sample-d7-scalar" (Staged.stage kernel_sample_scalar);
      Test.make ~name:"fig6-sample-d7-batch" (Staged.stage kernel_sample_batch);
      Test.make ~name:"fig6-sample-decode-d7-scalar"
        (Staged.stage kernel_sample_decode_scalar);
      Test.make ~name:"fig6-sample-decode-d7-batch"
        (Staged.stage kernel_sample_decode_batch);
      Test.make ~name:"fig6-decode-d7-batch-steady"
        (Staged.stage kernel_decode_steady);
      Test.make ~name:"fig7-surface-d5" (Staged.stage kernel_fig7);
      Test.make ~name:"char-sweep-cold" (Staged.stage kernel_char_cold);
      Test.make ~name:"char-sweep-warm" (Staged.stage kernel_char_warm);
      Test.make ~name:"fig9-uec-point" (Staged.stage kernel_fig9);
      Test.make ~name:"table3-uec-row" (Staged.stage kernel_table3);
      Test.make ~name:"fig12-ct-point" (Staged.stage kernel_fig12);
      Test.make ~name:"table4-ct-pair" (Staged.stage kernel_table4);
      Test.make ~name:"ext-repeater-chain" (Staged.stage kernel_repeater);
      Test.make ~name:"collect-ledger-append" (Staged.stage kernel_ledger_append);
      Test.make ~name:"span-record" (Staged.stage kernel_span_record);
      Test.make ~name:"telemetry-snapshot" (Staged.stage kernel_telemetry_snapshot);
      Test.make ~name:"obs-snapshot-write" (Staged.stage kernel_snapshot_write);
      Test.make ~name:"obs-merge" (Staged.stage kernel_obs_merge);
      Test.make ~name:"obs-monitor-once" (Staged.stage kernel_obs_monitor_once);
      Test.make ~name:"serve-request-warm" (Staged.stage kernel_serve_request_warm);
      Test.make ~name:"dse-burden" (Staged.stage kernel_burden) ]

(* Kernels whose pair carries a min_speedup floor are a *hard* CI gate, and
   a single OLS estimate from the 0.25 s quick-mode quota is too fragile for
   that: one scheduler preemption or major-GC slice landing on a sub-ms
   kernel inflates its estimate 2x and trips the floor on noise alone.
   System noise is strictly additive, so the minimum over independent
   repetitions is the robust per-run estimate — re-measure the gated kernels
   directly and let the minimum override the OLS number in the JSON. *)
let gated_kernels =
  [ ("hetarch fig6-sample-decode-d7-scalar", kernel_sample_decode_scalar);
    ("hetarch fig6-sample-decode-d7-batch", kernel_sample_decode_batch) ]

(* ------------------------------------------- allocation accounting ----- *)

(* Minor-heap words allocated by one run of [f].  The [Gc.minor_words]
   result is a boxed float allocated just after the counter is read — inside
   the measured window — so an empty window calibrates that constant out.
   Minor words are a pure function of the allocation sequence (collections
   never reset the cumulative counter), so for deterministic kernels the
   per-run number is exact; the minimum over trials guards against a rare
   lazy-force or domain event landing in one window. *)
let alloc_words f =
  let c0 = Gc.minor_words () in
  let c1 = Gc.minor_words () in
  let overhead = c1 -. c0 in
  let a = Gc.minor_words () in
  f ();
  let b = Gc.minor_words () in
  int_of_float (b -. a -. overhead)

let robust_words f =
  f ();
  (* warm lazies, arena pools, stores *)
  let best = ref max_int in
  for _ = 1 to 3 do
    let w = alloc_words f in
    if w < !best then best := w
  done;
  max 0 !best

(* Unit-thunk view of every kernel, for the allocation pass.  Keys are the
   Bechamel display names ("hetarch <kernel>"), matching the estimates. *)
let kernel_thunks : (string * (unit -> unit)) list =
  [ ("hetarch table1-devices", fun () -> ignore (kernel_table1 ()));
    ("hetarch table2-cells-drc", fun () -> ignore (kernel_table2 ()));
    ("hetarch fig3-distill-trace", fun () -> ignore (kernel_fig3 ()));
    ("hetarch fig4-distill-rate-point", fun () -> ignore (kernel_fig4 ()));
    ("hetarch fig6-surface-d7", fun () -> ignore (kernel_fig6 ()));
    ("hetarch fig6-sample-d7-scalar", fun () -> ignore (kernel_sample_scalar ()));
    ("hetarch fig6-sample-d7-batch", fun () -> ignore (kernel_sample_batch ()));
    ( "hetarch fig6-sample-decode-d7-scalar",
      fun () -> ignore (kernel_sample_decode_scalar ()) );
    ( "hetarch fig6-sample-decode-d7-batch",
      fun () -> ignore (kernel_sample_decode_batch ()) );
    ("hetarch fig6-decode-d7-batch-steady", kernel_decode_steady);
    ("hetarch fig7-surface-d5", fun () -> ignore (kernel_fig7 ()));
    ("hetarch char-sweep-cold", kernel_char_cold);
    ("hetarch char-sweep-warm", kernel_char_warm);
    ("hetarch fig9-uec-point", fun () -> ignore (kernel_fig9 ()));
    ("hetarch table3-uec-row", fun () -> ignore (kernel_table3 ()));
    ("hetarch fig12-ct-point", fun () -> ignore (kernel_fig12 ()));
    ("hetarch table4-ct-pair", fun () -> ignore (kernel_table4 ()));
    ("hetarch ext-repeater-chain", fun () -> ignore (kernel_repeater ()));
    ("hetarch collect-ledger-append", kernel_ledger_append);
    ("hetarch span-record", kernel_span_record);
    ("hetarch telemetry-snapshot", kernel_telemetry_snapshot);
    ("hetarch obs-snapshot-write", kernel_snapshot_write);
    ("hetarch obs-merge", fun () -> ignore (kernel_obs_merge ()));
    ("hetarch obs-monitor-once", fun () -> ignore (kernel_obs_monitor_once ()));
    ( "hetarch serve-request-warm",
      fun () -> ignore (kernel_serve_request_warm ()) );
    ("hetarch dse-burden", fun () -> ignore (kernel_burden ())) ]

(* Per-kernel allocation floors — the zero-alloc CI gate.  check_bench
   fails the build when a floor-gated kernel's measured minor_words_per_run
   exceeds its bound.  The steady-state decode loop must allocate nothing;
   the fused sample+decode pipeline is budgeted at 64 words per shot. *)
let alloc_floors =
  [ ("hetarch fig6-decode-d7-batch-steady", 0);
    ("hetarch fig6-sample-decode-d7-batch", 64 * pair_shots);
    (* parse + normalize + hash + memory-tier lookup for one request line;
       the JSON tree and normalized field list dominate *)
    ("hetarch serve-request-warm", 2048) ]

let robust_ns f =
  ignore (Sys.opaque_identity (f ()));
  Gc.major ();
  (* Size each sample to ~10 ms so timer granularity is negligible. *)
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  let once = Unix.gettimeofday () -. t0 in
  let reps = max 1 (min 10_000 (int_of_float (0.01 /. Float.max 1e-6 once))) in
  let best = ref infinity in
  for _ = 1 to 7 do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    let per = (Unix.gettimeofday () -. t0) /. float_of_int reps in
    if per < !best then best := per
  done;
  !best *. 1e9

let run_benchmarks () =
  print_endline "=== Bechamel micro-benchmarks (one kernel per table/figure) ===";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    (* Quick mode still needs enough samples per kernel for the ns_per_run
       estimate to be stable run-to-run: at 0.02 s the ms-scale kernels get
       single-digit runs and jitter past the CI perf-gate threshold on noise
       alone; 0.25 s keeps the whole pass a few seconds while giving every
       sub-ms kernel hundreds of runs. *)
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.25 else 0.5))
      ~kde:(Some 1000) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  let estimates = ref [] in
  Hashtbl.iter
    (fun measure tbl ->
      if measure = Measure.label Instance.monotonic_clock then
        Hashtbl.iter
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) ->
                estimates := (name, est) :: !estimates;
                Printf.printf "%-32s %12.3f us/run\n" name (est /. 1e3)
            | _ -> Printf.printf "%-32s (no estimate)\n" name)
          tbl)
    results;
  let estimates =
    List.map
      (fun (name, ns) ->
        match List.assoc_opt name gated_kernels with
        | None -> (name, ns)
        | Some f ->
            let ns = robust_ns f in
            Printf.printf "%-32s %12.3f us/run (floor-gated, min of 7)\n" name
              (ns /. 1e3);
            (name, ns))
      !estimates
  in
  List.sort compare estimates

(* Scalar/batch kernel pairs: each entry names two kernels doing identical
   work with the two pipelines, so the recorded speedup is apples-to-apples.
   check_bench validates that both sides exist and, when a pair carries a
   min_speedup floor, that the measured scalar/batch ratio clears it. *)
let kernel_pairs =
  [ ("fig6-sample-d7", "hetarch fig6-sample-d7-scalar",
     "hetarch fig6-sample-d7-batch", None);
    ("fig6-sample-decode-d7", "hetarch fig6-sample-decode-d7-scalar",
     "hetarch fig6-sample-decode-d7-batch", Some 5.0) ]

(* Cold/warm kernel pairs: both sides run the identical characterization
   workload, the warm side against a pre-populated persistent store.
   check_bench validates that both sides exist and that the cold/warm ratio
   clears [min_speedup]. *)
let warm_pairs =
  [ ("char-sweep-warm-start", "hetarch char-sweep-cold", "hetarch char-sweep-warm", 5.0) ]

(* One JSON document per bench run: kernel name -> ns/run and minor
   words/run, the seed every kernel drew its RNG from, the job count the run
   executed with, the scalar-vs-batch pairs, and the observability snapshot
   accumulated while measuring (DES events, shots, cache traffic, ...). *)
let write_bench_json kernels ~words =
  let doc =
    Obs.Json.Obj
      [ ("schema", Obs.Json.String "hetarch.bench/3");
        ("seed", Obs.Json.Int seed);
        ("quick", Obs.Json.Bool quick);
        ("jobs", Obs.Json.Int (Parallel.jobs ()));
        ( "kernels",
          Obs.Json.List
            (List.map
               (fun (name, ns) ->
                 Obs.Json.Obj
                   ([ ("name", Obs.Json.String name);
                      ("ns_per_run", Obs.Json.Float ns) ]
                   @ (match List.assoc_opt name words with
                     | Some w ->
                         [ ("minor_words_per_run", Obs.Json.Int w) ]
                     | None -> [])
                   @ (match List.assoc_opt name alloc_floors with
                     | Some floor ->
                         [ ("max_minor_words_per_run", Obs.Json.Int floor) ]
                     | None -> [])
                   @ [ ("seed", Obs.Json.Int seed) ]))
               kernels) );
        ( "pairs",
          Obs.Json.List
            (List.map
               (fun (name, scalar, batch, min_speedup) ->
                 Obs.Json.Obj
                   ([ ("name", Obs.Json.String name);
                      ("scalar", Obs.Json.String scalar);
                      ("batch", Obs.Json.String batch) ]
                   @
                   match min_speedup with
                   | Some floor -> [ ("min_speedup", Obs.Json.Float floor) ]
                   | None -> []))
               kernel_pairs) );
        ( "warm_pairs",
          Obs.Json.List
            (List.map
               (fun (name, cold, warm, min_speedup) ->
                 Obs.Json.Obj
                   [ ("name", Obs.Json.String name);
                     ("cold", Obs.Json.String cold);
                     ("warm", Obs.Json.String warm);
                     ("min_speedup", Obs.Json.Float min_speedup) ])
               warm_pairs) );
        ("metrics", Obs.Snapshot.to_json (Obs.Snapshot.capture ())) ]
  in
  let oc = open_out "BENCH_hetarch.json" in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------ headline reproduction ------ *)

let shots =
  match Sys.getenv_opt "HETARCH_SHOTS" with
  | Some s -> (try max 100 (int_of_string s) with _ -> 1000)
  | None -> 1000

let headline () =
  Printf.printf "\n=== Headline reproduction (shots=%d; HETARCH_SHOTS to scale) ===\n" shots;
  (* Fig 3/4: distillation *)
  let het =
    Distill_module.run (Distill_module.heterogeneous ~rate_hz:3e5 ()) (Rng.create seed)
      ~horizon:5e-3
  in
  let hom =
    Distill_module.run (Distill_module.homogeneous ~rate_hz:3e5 ()) (Rng.create seed)
      ~horizon:5e-3
  in
  let rh = Distill_module.delivered_rate_per_ms het in
  let rm = Distill_module.delivered_rate_per_ms hom in
  Printf.printf
    "distillation @300kHz: het %.1f EP/ms vs hom %.1f EP/ms -> %.1fx (paper: >= 2x, 2.6x error reduction)\n"
    rh rm (rh /. max rm 0.01);
  (* Fig 6: d=13 heterogeneous surface code *)
  let d13 t_data t_anc =
    let exp = Surface_circuit.build { (Surface_circuit.default ~distance:13) with t_data; t_anc } in
    let r = Surface_circuit.logical_error_rate exp (Rng.create seed) ~shots:(max 200 (shots / 2)) in
    Surface_circuit.per_cycle_rate ~shot_rate:r ~rounds:13
  in
  let hom13 = d13 1e-4 1e-4 in
  let het13 = d13 5e-4 1e-4 in
  let anc13 = d13 1e-4 5e-4 in
  Printf.printf
    "surface d=13: hom %.4f/cycle; Tcd x5 -> %.4f (%.1fx better); Tca x5 -> %.4f (paper: ~2.5x from data coherence)\n"
    hom13 het13 (hom13 /. het13) anc13;
  (* Table 3: UEC *)
  List.iter
    (fun code ->
      let h, m, red = Uec.table3_row ~code ~ts:50e-3 ~shots (Rng.create seed) in
      Printf.printf "UEC %-6s het %.4f hom %.4f -> %.1fx (paper: RM 4.7x, 17QCC 3.5x, ST 10.7x; SC favors hom)\n"
        code.Code.name h m red)
    Codes.paper_codes;
  (* Table 4: CT *)
  let ct =
    Teleport.table4
      ~codes:[ Codes.reed_muller_15; Codes.steane; Codes.surface 3 ]
      ~ts:50e-3 ~shots:(max 200 (shots / 2)) (Rng.create seed)
  in
  let ratios = List.map (fun (_, _, h, m) -> m /. h) ct in
  Printf.printf "CT pairs: mean reduction %.2fx, max %.2fx (paper: mean 2.33x, max 2.96x)\n"
    (List.fold_left ( +. ) 0. ratios /. float_of_int (List.length ratios))
    (List.fold_left max 0. ratios);
  (* DSE burden *)
  Printf.printf "DSE burden reduction: distillation %.1e, UEC %.1e (paper: >= 1e4)\n"
    (Burden.reduction (Burden.distillation_module ()))
    (Burden.reduction (Burden.uec_module ()))

let () =
  let kernels = run_benchmarks () in
  (* Allocation pass: exact minor words per run for every kernel (min over
     trials), printed for the floor-gated ones so a gate trip is visible in
     the bench log, not just in check_bench. *)
  let words =
    List.map (fun (name, f) -> (name, robust_words f)) kernel_thunks
  in
  List.iter
    (fun (name, floor) ->
      match List.assoc_opt name words with
      | Some w ->
          Printf.printf "%-32s %12d minor words/run (floor %d)\n" name w floor
      | None -> ())
    alloc_floors;
  List.iter
    (fun (name, scalar, batch, _) ->
      match (List.assoc_opt scalar kernels, List.assoc_opt batch kernels) with
      | Some s, Some b when b > 0. ->
          Printf.printf "%-32s batch pipeline %.1fx faster than scalar\n" name (s /. b)
      | _ -> ())
    kernel_pairs;
  List.iter
    (fun (name, cold, warm, _) ->
      match (List.assoc_opt cold kernels, List.assoc_opt warm kernels) with
      | Some c, Some w when w > 0. ->
          Printf.printf "%-32s warm start %.1fx faster than cold\n" name (c /. w)
      | _ -> ())
    warm_pairs;
  (* The warm kernel's store lives under the system temp dir; drop it. *)
  if Lazy.is_val char_store then begin
    let rec rm path =
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
    in
    (try rm char_store_dir with Sys_error _ | Unix.Unix_error _ -> ())
  end;
  if not quick then headline ();
  if Lazy.is_val ledger_writer then begin
    Collect.Ledger.close (Lazy.force ledger_writer);
    try Sys.remove ledger_path with Sys_error _ -> ()
  end;
  if Lazy.is_val telemetry_sink then Obs.Telemetry.disable ();
  (try Sys.remove snapshot_path with Sys_error _ -> ());
  write_bench_json kernels ~words;
  Printf.printf "\nwrote BENCH_hetarch.json (%d kernels, seed %d, jobs %d)\n"
    (List.length kernels) seed (Parallel.jobs ())
