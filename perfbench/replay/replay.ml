(* Traced replay of a perfbench workload.

   Runs the same work the hetarch CLI runs for one command (same seed, same
   shots, same inputs), but drives it through each layer's public functions
   and times every such call: wall nanoseconds plus the minor-heap words it
   allocated.  Everything runs at --jobs 1, so no two timed calls overlap
   and their self times add up to the traced wall; whatever falls between
   timed calls is summed separately as the untimed gap.

   One process replays one CLI command, because the CLI runs one command per
   process and some layers memoize per process (the UEC register
   assignment), so a shared process would under-count the later command.

   Prints one JSON object on stdout:
     wall_ns        traced wall of the command body
     gaps_ns        time between timed calls (the unattributed residue)
     layers         name -> {calls, ns, words}
     rows           the command's result cells, rendered as the CLI renders
                    them, for reconciliation with its stdout
     counters       DEM-store hits/misses, shots sampled, warm hits, queries
     request_ns     (serve) in-process answer time per request line
     bodies         (serve) response body per distinct request line *)

type row = { mutable calls : int; mutable ns : int; mutable words : float }

let rows : (string, row) Hashtbl.t = Hashtbl.create 16
let last_end = ref 0
let gaps = ref 0
let now () = Int64.to_int (Obs.now_ns ())

let time layer f =
  let t0 = now () in
  gaps := !gaps + (t0 - !last_end);
  let w0 = Gc.minor_words () in
  let result = f () in
  let w1 = Gc.minor_words () in
  let t1 = now () in
  last_end := t1;
  let r =
    match Hashtbl.find_opt rows layer with
    | Some r -> r
    | None ->
        let r = { calls = 0; ns = 0; words = 0. } in
        Hashtbl.add rows layer r;
        r
  in
  r.calls <- r.calls + 1;
  r.ns <- r.ns + (t1 - t0);
  r.words <- r.words +. (w1 -. w0);
  result

let g = Tableio.fmt_g
let shots_sampled = ref 0

(* ---------------------------------------------------------------- fig6 *)

let fig6 ~shots ~seed =
  let base = 1e-4 in
  let point ~t_data ~t_anc =
    let p = { (Surface_circuit.default ~distance:13) with t_data; t_anc } in
    let exp = time "qec.build" (fun () -> Surface_circuit.build p) in
    (* Surface_circuit.logical_error_count, opened up: same chunking, same
       per-chunk RNG streams, so the count equals the CLI's at any --jobs. *)
    let errors =
      Parallel.monte_carlo_count ~jobs:1 ~rng:(Rng.create seed) ~shots
        (fun rng nshots ->
          shots_sampled := !shots_sampled + nshots;
          let b =
            time "pauli.sample" (fun () ->
                Dem_sampler.sample exp.Surface_circuit.sampler rng ~nshots)
          in
          time "qec.decode" (fun () ->
              Decoder_uf.decode_batch_count exp.Surface_circuit.graph
                ~detectors:b.Frame_batch.detectors
                ~observable:b.Frame_batch.observables.(0) ~nshots))
    in
    g
      (Surface_circuit.per_cycle_rate
         ~shot_rate:(float_of_int errors /. float_of_int shots)
         ~rounds:p.Surface_circuit.rounds)
  in
  List.map
    (fun a ->
      let tcd = point ~t_data:(a *. base) ~t_anc:base in
      let tca = point ~t_data:base ~t_anc:(a *. base) in
      [ g a; tcd; tca ])
    [ 1.; 2.; 3.; 4.; 5. ]

(* -------------------------------------------------------------- table3 *)

let table3 ~shots ~seed =
  let ts = 50e-3 in
  List.map
    (fun code ->
      let rng = Rng.create seed in
      let pt =
        if code.Code.planar then "-"
        else
          g
            (time "qec.pseudothreshold" (fun () ->
                 Threshold.pseudothreshold ~shots:(max 2000 (shots / 2)) code rng))
      in
      let het = time "uec.profile.het" (fun () -> Uec.profile (Uec.Het { ts }) code) in
      let hom = time "uec.profile.hom" (fun () -> Uec.profile Uec.Hom code) in
      let rate prof =
        let failures =
          time "uec.sample" (fun () -> Uec.logical_failures prof ~rounds:3 ~shots rng)
        in
        Uec.per_round_rate ~failures ~rounds:3 ~shots
      in
      let het_rate = rate het in
      let hom_rate = rate hom in
      let red = if het_rate > 0. then hom_rate /. het_rate else infinity in
      [ code.Code.name; pt; g het_rate; g hom_rate; Printf.sprintf "%.1fx" red ])
    Codes.paper_codes

(* -------------------------------------------------------------- table4 *)

let table4 ~shots ~seed =
  let ts = 50e-3 in
  let rng = Rng.create seed in
  let codes = Codes.paper_codes in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if a.Code.name = b.Code.name then None
          else begin
            let het =
              time "teleport.point" (fun () ->
                  Teleport.heterogeneous ~code_a:a ~code_b:b ~ts ~shots rng)
            in
            let hom =
              time "teleport.point" (fun () ->
                  Teleport.homogeneous ~code_a:a ~code_b:b ~shots rng)
            in
            let het = het.Teleport.total and hom = hom.Teleport.total in
            Some
              [ a.Code.name; b.Code.name; g het; g hom;
                Printf.sprintf "%.2fx" (hom /. het) ]
          end)
        codes)
    codes

(* ---------------------------------------------------------------- fig4 *)

let fig4 ~seed =
  let configs =
    [ (fun rate -> Distill_module.homogeneous ~rate_hz:rate ());
      (fun rate -> Distill_module.heterogeneous ~ts:1e-3 ~rate_hz:rate ());
      (fun rate -> Distill_module.heterogeneous ~ts:2.5e-3 ~rate_hz:rate ());
      (fun rate -> Distill_module.heterogeneous ~ts:5e-3 ~rate_hz:rate ());
      (fun rate -> Distill_module.heterogeneous ~ts:12.5e-3 ~rate_hz:rate ()) ]
  in
  List.map
    (fun rate ->
      string_of_float (rate /. 1e3)
      :: List.map
           (fun mk ->
             let r =
               time "distill.run" (fun () ->
                   Distill_module.run (mk rate) (Rng.create seed) ~horizon:5e-3)
             in
             g (Distill_module.delivered_rate_per_ms r))
           configs)
    [ 1e5; 2e5; 5e5; 1e6; 2e6; 5e6; 1e7 ]

(* --------------------------------------------------------------- serve *)

(* The cell and operation Serve's dse kind characterizes, built from the
   normalized request fields exactly as the daemon builds them, so the
   characterization can be timed on its own: Serve.compute_answer then
   finds it in the Char_store memory tier. *)
let dse_cell_op (q : Serve.query) =
  let f name = List.assoc name q.Serve.fields in
  let alpha = float_of_string (f "alpha") in
  let base = Device.multimode_resonator_3d in
  let storage =
    Device.with_coherence base ~t1:(alpha *. base.Device.t1)
      ~t2:(alpha *. base.Device.t2)
  in
  match f "op" with
  | "load" -> (Cell.register ~storage (), Characterize.Load)
  | "retention" ->
      (Cell.register ~storage (), Characterize.Retention { dt = float_of_string (f "dt") })
  | "seq_cnots" ->
      (Cell.seqop ~storage (), Characterize.Seq_cnots { count = int_of_string (f "count") })
  | _ ->
      ( Cell.usc ~storage (),
        Characterize.Stabilizer
          { weight = int_of_string (f "weight");
            serialized = bool_of_string (f "serialized") } )

let warm_hits = ref 0
let queries = ref 0

(* Answer each request line the way the daemon does (parse, warm tiers,
   compute with write-back), one layer call at a time. *)
let serve_lines lines =
  let bodies = Hashtbl.create 64 in
  let request_ns =
    List.map
      (fun line ->
        let t0 = now () in
        let body =
          match time "serve.parse" (fun () -> Serve.parse_request line) with
          | Error e -> Serve.error_body e
          | Ok (Serve.Control _) -> failwith ("replay: control request in schedule: " ^ line)
          | Ok (Serve.Query q) -> (
              incr queries;
              match time "serve.warm" (fun () -> Serve.warm_answer q) with
              | Some body ->
                  incr warm_hits;
                  body
              | None ->
                  if q.Serve.kind = "dse" then begin
                    let cell, op = dse_cell_op q in
                    ignore
                      (time "cell.characterize" (fun () ->
                           Characterize.characterize_op ~memo:(Char_store.memo ()) cell op))
                  end;
                  let body = time "serve.compute" (fun () -> Serve.compute_answer q) in
                  time "serve.cache_write" (fun () -> Serve.cache_response q body);
                  body)
        in
        if not (Hashtbl.mem bodies line) then Hashtbl.add bodies line body;
        now () - t0)
      lines
  in
  (request_ns, bodies)

(* ----------------------------------------------------------------- main *)

(* Work counters the libraries keep themselves (names are interned), so
   they also count work done inside calls the replay cannot open up. *)
let library_counter name =
  (name, Obs.Json.Int (Obs.Counter.value (Obs.Counter.create name)))

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

let () =
  let command = ref "" and seed = ref 2023 and shots = ref 2000 in
  let cache_dir = ref None and requests = ref "" in
  Arg.parse
    [ ("--seed", Arg.Set_int seed, "N  RNG seed (as hetarch --seed)");
      ("--shots", Arg.Set_int shots, "N  shots per point (as hetarch --shots)");
      ("--cache-dir", Arg.String (fun d -> cache_dir := Some d), "DIR  persistent store");
      ("--requests", Arg.Set_string requests, "FILE  serve request lines, one per line") ]
    (fun c -> command := c)
    "replay (fig6|table3|table4|fig4|serve) [options]";
  Parallel.set_jobs 1;
  Char_store.set_dir !cache_dir;
  let seed = !seed and shots = !shots in
  let lines = if !command = "serve" then read_lines !requests else [] in
  let t0 = now () in
  last_end := t0;
  let cells, serve =
    match !command with
    | "fig6" -> (fig6 ~shots ~seed, None)
    | "table3" -> (table3 ~shots ~seed, None)
    | "table4" -> (table4 ~shots ~seed, None)
    | "fig4" -> (fig4 ~seed, None)
    | "serve" -> ([], Some (serve_lines lines))
    | c ->
        Printf.eprintf "replay: unknown command %S\n" c;
        exit 2
  in
  let t1 = now () in
  gaps := !gaps + (t1 - !last_end);
  let open Obs.Json in
  let layers =
    Hashtbl.fold
      (fun name r acc ->
        (name, Obj [ ("calls", Int r.calls); ("ns", Int r.ns); ("words", Float r.words) ])
        :: acc)
      rows []
    |> List.sort compare
  in
  let serve_fields =
    match serve with
    | None -> []
    | Some (request_ns, bodies) ->
        [ ("request_ns", List (List.map (fun ns -> Int ns) request_ns));
          ( "bodies",
            Obj
              (Hashtbl.fold (fun line body acc -> (line, String body) :: acc) bodies []
              |> List.sort compare) ) ]
  in
  print_endline
    (to_string
       (Obj
          ([ ("command", String !command);
             ("wall_ns", Int (t1 - t0));
             ("gaps_ns", Int !gaps);
             ("layers", Obj layers);
             ("rows", List (List.map (fun r -> List (List.map (fun c -> String c) r)) cells));
             ( "counters",
               Obj
                 ([ ("shots_sampled", Int !shots_sampled);
                    ("warm_hits", Int !warm_hits);
                    ("queries", Int !queries) ]
                 @ List.map library_counter
                     [ "qec.dem_store_hits_total"; "qec.dem_store_misses_total";
                       "qec.uf_decode_shots_total"; "uec.shots_total";
                       "des.events_total" ]) ) ]
          @ serve_fields)))
