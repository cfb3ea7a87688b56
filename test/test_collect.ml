(* Tests for the sample-collection campaign layer: content-hash task
   identity, crash-safe ledger replay, adaptive stopping, and — the property
   the whole design exists for — byte-identical merged statistics whether a
   campaign runs uninterrupted or is killed and resumed. *)

let with_tmp f =
  let path = Filename.temp_file "hetarch_collect" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* A synthetic Bernoulli(p) task: deterministic in the batch RNG, chunked
   through Parallel so the campaign is exercised exactly like a real
   Monte-Carlo estimator (jobs-stable included). *)
let bernoulli_task ?(kind = "test.bernoulli") ~p () =
  Collect.Task.create ~kind
    ~fields:[ ("p", Printf.sprintf "%.17g" p); ("model", "bernoulli") ]
    ~sample:(fun rng shots ->
      Parallel.monte_carlo_count ~rng ~shots (fun chunk_rng n ->
          let errs = ref 0 in
          for _ = 1 to n do
            if Rng.bernoulli chunk_rng p then incr errs
          done;
          !errs))

(* ------------------------------------------------------------- identity *)

let test_task_id_field_order () =
  let mk fields =
    Collect.Task.create ~kind:"k" ~fields ~sample:(fun _ _ -> 0)
  in
  let a = mk [ ("x", "1"); ("y", "2"); ("z", "3") ] in
  let b = mk [ ("z", "3"); ("x", "1"); ("y", "2") ] in
  Alcotest.(check string) "field order irrelevant" (Collect.Task.id a)
    (Collect.Task.id b);
  let c = mk [ ("x", "1"); ("y", "2"); ("z", "4") ] in
  Alcotest.(check bool) "value change changes id" true
    (Collect.Task.id a <> Collect.Task.id c);
  let d =
    Collect.Task.create ~kind:"k2"
      ~fields:[ ("x", "1"); ("y", "2"); ("z", "3") ]
      ~sample:(fun _ _ -> 0)
  in
  Alcotest.(check bool) "kind change changes id" true
    (Collect.Task.id a <> Collect.Task.id d);
  (* Length-prefixed canonicalization: gluing key/value boundaries
     differently must not collide. *)
  let e = mk [ ("xy", "12") ] and f = mk [ ("x", "y12") ] in
  Alcotest.(check bool) "boundary-gluing does not collide" true
    (Collect.Task.id e <> Collect.Task.id f);
  Alcotest.(check int) "id is 16 hex digits" 16 (String.length (Collect.Task.id a));
  String.iter
    (fun ch ->
      Alcotest.(check bool) "hex digit" true
        ((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')))
    (Collect.Task.id a)

let test_task_id_stable_value () =
  (* Pin a concrete hash: any change to the canonicalization or hash
     function is a ledger-compatibility break and must be deliberate. *)
  let t =
    Collect.Task.create ~kind:"qec.threshold"
      ~fields:[ ("code", "steane"); ("p", "0.01") ]
      ~sample:(fun _ _ -> 0)
  in
  Alcotest.(check string) "hash pinned across releases" "624f160fc897f6e3"
    (Collect.Task.id t);
  Alcotest.(check string) "id is the canonical-string hash"
    (Collect.hash_hex (Collect.Task.canonical t))
    (Collect.Task.id t)

(* --------------------------------------------------------------- ledger *)

let test_ledger_roundtrip () =
  with_tmp (fun path ->
      let r1 =
        { Collect.Ledger.task_id = "aaaa"; shots = 100; errors = 3;
          seconds = 0.5; jobs = 2; seed = 7 }
      in
      let r2 = { r1 with Collect.Ledger.task_id = "bbbb"; shots = 50; errors = 0 } in
      let r3 = { r1 with Collect.Ledger.shots = 10; errors = 1; seconds = 0.1 } in
      let w = Collect.Ledger.open_writer path in
      List.iter (Collect.Ledger.append w) [ r1; r2; r3 ];
      Collect.Ledger.close w;
      (* Record-level JSON round-trip. *)
      Alcotest.(check bool) "record json round-trip" true
        (Collect.Ledger.record_of_json (Collect.Ledger.record_to_json r1) = Some r1);
      (* Replay merges per task. *)
      let totals = Collect.Ledger.replay path in
      let a = Hashtbl.find totals "aaaa" in
      Alcotest.(check int) "merged shots" 110 a.Collect.Ledger.t_shots;
      Alcotest.(check int) "merged errors" 4 a.Collect.Ledger.t_errors;
      Alcotest.(check int) "merged records" 2 a.Collect.Ledger.t_records;
      let b = Hashtbl.find totals "bbbb" in
      Alcotest.(check int) "other task isolated" 50 b.Collect.Ledger.t_shots;
      (* Appending to an existing file accumulates instead of truncating. *)
      let w = Collect.Ledger.open_writer path in
      Collect.Ledger.append w { r2 with Collect.Ledger.shots = 25 };
      Collect.Ledger.close w;
      let totals = Collect.Ledger.replay path in
      Alcotest.(check int) "append mode accumulates" 75
        (Hashtbl.find totals "bbbb").Collect.Ledger.t_shots)

let test_ledger_truncated_tail () =
  with_tmp (fun path ->
      let r =
        { Collect.Ledger.task_id = "aaaa"; shots = 100; errors = 3;
          seconds = 0.5; jobs = 1; seed = 7 }
      in
      let w = Collect.Ledger.open_writer path in
      Collect.Ledger.append w r;
      Collect.Ledger.append w r;
      Collect.Ledger.close w;
      (* Simulate a kill mid-append: cut the last record at every byte.  Only
         the whole record (with or without its newline) replays. *)
      let contents = In_channel.with_open_text path In_channel.input_all in
      let n = String.length contents in
      let first_end = String.index contents '\n' + 1 in
      for cut = first_end to n do
        let oc = open_out path in
        output_string oc (String.sub contents 0 cut);
        close_out oc;
        let want = if cut >= n - 1 then 200 else 100 in
        Alcotest.(check int)
          (Printf.sprintf "cut at %d/%d" cut n)
          want
          (Hashtbl.find (Collect.Ledger.replay path) "aaaa").Collect.Ledger.t_shots
      done;
      (* A missing file is an empty ledger, not an error. *)
      Alcotest.(check int) "missing file empty" 0
        (Hashtbl.length (Collect.Ledger.replay (path ^ ".does_not_exist"))))

let test_ledger_rejects_inconsistent () =
  let open Obs.Json in
  let base =
    [ ("task_id", String "aaaa"); ("shots", Int 10); ("errors", Int 2);
      ("seconds", Float 0.1); ("jobs", Int 1); ("seed", Int 3) ]
  in
  let without k = Obj (List.remove_assoc k base) in
  let with_ k v = Obj ((k, v) :: List.remove_assoc k base) in
  Alcotest.(check bool) "valid accepted" true
    (Collect.Ledger.record_of_json (Obj base) <> None);
  List.iter
    (fun (label, doc) ->
      Alcotest.(check bool) label true (Collect.Ledger.record_of_json doc = None))
    [ ("missing task_id", without "task_id");
      ("missing shots", without "shots");
      ("errors > shots", with_ "errors" (Int 11));
      ("negative shots", with_ "shots" (Int (-1)));
      ("negative errors", with_ "errors" (Int (-1)));
      ("non-integer shots", with_ "shots" (String "10")) ]

(* ------------------------------------------------------------- stopping *)

let stop ~max_shots = { Collect.default_stop with Collect.max_shots }

let test_stop_max_shots () =
  let t = bernoulli_task ~p:0.5 () in
  let o =
    Collect.run ~stop:{ (stop ~max_shots:1000) with Collect.batch = 256 }
      ~seed:1 [ t ]
  in
  let s = List.hd o.Collect.stats in
  Alcotest.(check int) "exactly max_shots sampled" 1000 s.Collect.shots;
  Alcotest.(check bool) "reason" true (s.Collect.reason = Collect.Max_shots)

let test_stop_max_errors () =
  let t = bernoulli_task ~p:1.0 () in
  (* Every shot errs: the first batch already exceeds max_errors. *)
  let o =
    Collect.run
      ~stop:{ (stop ~max_shots:100_000) with Collect.max_errors = 5; batch = 64 }
      ~seed:1 [ t ]
  in
  let s = List.hd o.Collect.stats in
  Alcotest.(check bool) "reason" true (s.Collect.reason = Collect.Max_errors);
  Alcotest.(check int) "stopped after one batch" 64 s.Collect.shots

let test_stop_rel_ci () =
  let t = bernoulli_task ~p:0.5 () in
  let o =
    Collect.run
      ~stop:
        { Collect.max_shots = 1_000_000; max_errors = 0; rel_ci = 0.2;
          min_shots = 100; batch = 128 }
      ~seed:1 [ t ]
  in
  let s = List.hd o.Collect.stats in
  Alcotest.(check bool) "reason" true (s.Collect.reason = Collect.Rel_ci);
  Alcotest.(check bool) "far below max_shots" true (s.Collect.shots < 10_000);
  Alcotest.(check bool) "interval satisfied" true
    (Stats.wilson_rel_halfwidth ~successes:s.Collect.errors
       ~trials:s.Collect.shots ~z:Collect.wilson_z
    <= 0.2)

let test_rel_ci_never_fires_at_zero_errors () =
  let t = bernoulli_task ~p:0.0 () in
  let o =
    Collect.run
      ~stop:
        { Collect.max_shots = 2000; max_errors = 0; rel_ci = 0.2;
          min_shots = 100; batch = 500 }
      ~seed:1 [ t ]
  in
  let s = List.hd o.Collect.stats in
  Alcotest.(check bool) "rare-event task runs to max_shots" true
    (s.Collect.reason = Collect.Max_shots && s.Collect.shots = 2000)

let test_rejects_bad_inputs () =
  let t = bernoulli_task ~p:0.5 () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "duplicate task ids rejected" true
    (raises (fun () -> ignore (Collect.run ~seed:1 [ t; bernoulli_task ~p:0.5 () ])));
  Alcotest.(check bool) "bad batch rejected" true
    (raises (fun () ->
         ignore
           (Collect.run ~stop:{ Collect.default_stop with Collect.batch = 0 }
              ~seed:1 [ t ])));
  Alcotest.(check bool) "sampler out of range rejected" true
    (raises (fun () ->
         let bad =
           Collect.Task.create ~kind:"bad" ~fields:[]
             ~sample:(fun _ shots -> shots + 1)
         in
         ignore
           (Collect.run ~stop:(stop ~max_shots:100) ~seed:1 [ bad ])))

(* ---------------------------------------------------------------- resume *)

let campaign_tasks () = [ bernoulli_task ~p:0.3 (); bernoulli_task ~kind:"test.other" ~p:0.05 () ]

let resume_stop =
  { Collect.max_shots = 4096; max_errors = 0; rel_ci = 0.15; min_shots = 256;
    batch = 256 }

let test_kill_resume_equivalence () =
  (* Reference: one uninterrupted run. *)
  let reference =
    Collect.csv (Collect.run ~stop:resume_stop ~seed:11 (campaign_tasks ())).Collect.stats
  in
  (* Halt after every possible number of appends, resume, and compare. *)
  with_tmp (fun path ->
      let halted =
        Collect.run ~ledger:path ~stop:resume_stop ~halt_after:3 ~seed:11
          (campaign_tasks ())
      in
      Alcotest.(check bool) "halt_after reports halted" true halted.Collect.halted;
      Alcotest.(check bool) "some task still unfinished" true
        (List.exists
           (fun s -> s.Collect.reason = Collect.Halted)
           halted.Collect.stats);
      let resumed =
        Collect.run ~ledger:path ~resume:true ~stop:resume_stop ~seed:11
          (campaign_tasks ())
      in
      Alcotest.(check bool) "resume run completes" true
        (not resumed.Collect.halted);
      Alcotest.(check bool) "resumed shots replayed" true
        (List.exists (fun s -> s.Collect.resumed_shots > 0) resumed.Collect.stats);
      Alcotest.(check string) "killed+resumed CSV byte-identical to reference"
        reference
        (Collect.csv resumed.Collect.stats);
      (* Resuming a finished campaign samples nothing new. *)
      let again =
        Collect.run ~ledger:path ~resume:true ~stop:resume_stop ~seed:11
          (campaign_tasks ())
      in
      Alcotest.(check int) "idempotent resume" 0 again.Collect.new_shots;
      Alcotest.(check string) "and still identical" reference
        (Collect.csv again.Collect.stats))

let test_resume_ignores_ledger_without_flag () =
  with_tmp (fun path ->
      let first = Collect.run ~ledger:path ~stop:resume_stop ~seed:11 (campaign_tasks ()) in
      (* Without --resume the ledger is append-only history, not state. *)
      let second = Collect.run ~ledger:path ~stop:resume_stop ~seed:11 (campaign_tasks ()) in
      Alcotest.(check int) "full resample without resume"
        first.Collect.new_shots second.Collect.new_shots;
      Alcotest.(check bool) "resamples" true (second.Collect.new_shots > 0))

let test_jobs_determinism () =
  let run () = Collect.csv (Collect.run ~stop:resume_stop ~seed:5 (campaign_tasks ())).Collect.stats in
  let saved = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved)
    (fun () ->
      Parallel.set_jobs 1;
      let one = run () in
      Parallel.set_jobs 3;
      let three = run () in
      Alcotest.(check string) "jobs=1 and jobs=3 byte-identical" one three)

let test_csv_shape () =
  let o = Collect.run ~stop:(stop ~max_shots:256) ~seed:2 [ bernoulli_task ~p:0.5 () ] in
  let text = Collect.csv o.Collect.stats in
  match String.split_on_char '\n' (String.trim text) with
  | [ header; row ] ->
      Alcotest.(check string) "header" Collect.csv_header header;
      Alcotest.(check int) "column count" 9
        (List.length (String.split_on_char ',' row));
      let s = List.hd o.Collect.stats in
      Alcotest.(check bool) "row carries the task id" true
        (String.length row > 16 && String.sub row 0 16 = s.Collect.id)
  | lines -> Alcotest.failf "expected header + 1 row, got %d lines" (List.length lines)

let () =
  Alcotest.run "collect"
    [ ( "identity",
        [ Alcotest.test_case "field order" `Quick test_task_id_field_order;
          Alcotest.test_case "pinned hash" `Quick test_task_id_stable_value ] );
      ( "ledger",
        [ Alcotest.test_case "round-trip" `Quick test_ledger_roundtrip;
          Alcotest.test_case "truncated tail" `Quick test_ledger_truncated_tail;
          Alcotest.test_case "inconsistent records" `Quick
            test_ledger_rejects_inconsistent ] );
      ( "stopping",
        [ Alcotest.test_case "max shots" `Quick test_stop_max_shots;
          Alcotest.test_case "max errors" `Quick test_stop_max_errors;
          Alcotest.test_case "rel ci" `Quick test_stop_rel_ci;
          Alcotest.test_case "zero errors never stops early" `Quick
            test_rel_ci_never_fires_at_zero_errors;
          Alcotest.test_case "input validation" `Quick test_rejects_bad_inputs ] );
      ( "resume",
        [ Alcotest.test_case "kill + resume equivalence" `Quick
            test_kill_resume_equivalence;
          Alcotest.test_case "no resume without flag" `Quick
            test_resume_ignores_ledger_without_flag;
          Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
          Alcotest.test_case "csv shape" `Quick test_csv_shape ] ) ]
