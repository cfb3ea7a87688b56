(* Fused DEM sample->decode pipeline: cross-validation of the DEM-direct
   sampler against the circuit batch sampler, batch-vs-scalar decode
   agreement, pinned seed vectors for the fused logical-error estimator,
   and the jobs determinism of the pseudothreshold bisection.

   The DEM sampler draws each merged mechanism as an INDEPENDENT coin while
   the circuit sampler draws mutually-exclusive categorical noise per site;
   the two distributions agree to O(p^2) per site, so shot-for-shot
   comparison is only possible on noiseless circuits.  On noisy circuits we
   check Wilson-interval overlap of the estimated flip rates at fixed
   seeds. *)

(* ------------------------------------------------------------ noiseless *)

let test_noiseless_exact () =
  (* A noiseless circuit compiles to an empty mechanism list: every sampled
     bit-plane must be zero, exactly like the circuit sampler's. *)
  let b = Circuit.builder 4 in
  Circuit.add b (Circuit.H 0);
  Circuit.add b (Circuit.CX (0, 1));
  Circuit.add b (Circuit.CZ (1, 2));
  Circuit.add b (Circuit.SWAP (2, 3));
  ignore (Circuit.measure b 1);
  ignore (Circuit.measure b 3);
  Circuit.add_detector b [ 0 ];
  Circuit.add_detector b [ 0; 1 ];
  Circuit.add_observable b [ 1 ];
  let c = Circuit.finish b in
  let sampler = Dem_sampler.compile c in
  Alcotest.(check int) "no mechanisms" 0
    (Array.length (Dem_sampler.mechanisms sampler));
  let batch = Dem_sampler.sample sampler (Rng.create 5) ~nshots:200 in
  Array.iteri
    (fun i row ->
      Alcotest.(check int)
        (Printf.sprintf "detector %d clean" i)
        0 (Bitvec.popcount row))
    batch.Dem_sampler.detectors;
  Array.iteri
    (fun i row ->
      Alcotest.(check int)
        (Printf.sprintf "observable %d clean" i)
        0 (Bitvec.popcount row))
    batch.Dem_sampler.observables;
  let circuit_batch = Frame.sample c (Rng.create 5) ~nshots:200 in
  Array.iteri
    (fun i row ->
      Alcotest.(check int)
        (Printf.sprintf "circuit detector %d clean" i)
        0 (Bitvec.popcount row))
    circuit_batch.Dem_sampler.detectors

(* ------------------------------------------- noisy cross-validation ----- *)

(* The samplers draw different streams AND slightly different
   distributions, so this is a coarse agreement check ([Rate_check]), not
   an identity. *)
let test_surface_flip_rates_agree distance jobs () =
  let p = { (Surface_circuit.default ~distance) with t_data = 5e-4 } in
  let exp = Surface_circuit.build p in
  let c = Surface_circuit.circuit p in
  let shots = if distance >= 5 then 4000 else 12_000 in
  let dem =
    (Dem_sampler.sample_flip_counts ~jobs exp.Surface_circuit.sampler
       (Rng.create 31) ~shots).(0)
  in
  let circuit =
    (Frame.sample_flip_counts ~jobs c (Rng.create 31) ~shots).(0)
  in
  Rate_check.check_overlap
    (Printf.sprintf "d=%d jobs=%d: DEM vs circuit" distance jobs)
    ~k1:dem ~n1:shots ~k2:circuit ~n2:shots

let test_dem_jobs_determinism () =
  let exp = Surface_circuit.build (Surface_circuit.default ~distance:3) in
  let counts jobs =
    Dem_sampler.sample_flip_counts ~jobs exp.Surface_circuit.sampler
      (Rng.create 41) ~shots:1500
  in
  let c1 = counts 1 in
  Alcotest.(check (array int)) "dem flip counts jobs=1 vs jobs=4" c1 (counts 4)

(* ------------------------------------------------- batch decode ---------- *)

let test_decode_batch_matches_scalar distance () =
  let exp =
    Surface_circuit.build
      { (Surface_circuit.default ~distance) with t_data = 5e-4 }
  in
  let nshots = 700 in
  let b =
    Dem_sampler.sample exp.Surface_circuit.sampler (Rng.create 53) ~nshots
  in
  let batch =
    Decoder_uf.decode_batch exp.Surface_circuit.graph
      ~detectors:b.Dem_sampler.detectors ~nshots
  in
  let mismatches = ref 0 in
  for s = 0 to nshots - 1 do
    let detectors, _ = Dem_sampler.shot b s in
    if Decoder_uf.decode exp.Surface_circuit.graph detectors
       <> Bitvec.get batch s
    then incr mismatches
  done;
  Alcotest.(check int)
    (Printf.sprintf "d=%d batch vs scalar decode" distance)
    0 !mismatches;
  (* decode_batch_count is exactly popcount(prediction xor observable). *)
  let obs = b.Dem_sampler.observables.(0) in
  let expected = ref 0 in
  for s = 0 to nshots - 1 do
    if Bitvec.get batch s <> Bitvec.get obs s then incr expected
  done;
  Alcotest.(check int) "decode_batch_count" !expected
    (Decoder_uf.decode_batch_count exp.Surface_circuit.graph
       ~detectors:b.Dem_sampler.detectors ~observable:obs ~nshots)

(* ------------------------------------------- zero-alloc steady decode --- *)

(* Once the arena pool and output row are warm, [decode_batch_into] must
   allocate exactly nothing — not amortized-few, zero minor words — across
   repeated batches. *)
let check_steady_zero_alloc name g ~detectors ~nshots =
  let out = Bitvec.create nshots in
  let run () = Decoder_uf.decode_batch_into g ~detectors ~nshots ~out in
  run ();
  (* warms the arena pool *)
  for i = 1 to 5 do
    Alcotest.(check int)
      (Printf.sprintf "%s warm decode_batch_into #%d allocates zero words" name i)
      0 (Alloc.words run)
  done

let check_surface_zero_alloc name p =
  let exp = Surface_circuit.build p in
  let nshots = 256 in
  let b = Dem_sampler.sample exp.Surface_circuit.sampler (Rng.create 9) ~nshots in
  check_steady_zero_alloc name exp.Surface_circuit.graph
    ~detectors:b.Dem_sampler.detectors ~nshots

(* The CI gate in miniature, at d=3..9, at the fig 6 d=13 point
   (t_data = t_anc = 100 us), and on a path with weight-40 edges, the
   DEM graphs' largest weight, so events are queued a full ring span
   (80 rounds) ahead and the ring wraps. *)
let test_decode_batch_steady_zero_alloc () =
  List.iter
    (fun distance ->
      check_surface_zero_alloc (Printf.sprintf "d=%d" distance)
        (Surface_circuit.default ~distance))
    [ 3; 5; 7; 9 ];
  check_surface_zero_alloc "fig6 d=13"
    { (Surface_circuit.default ~distance:13) with t_data = 1e-4; t_anc = 1e-4 };
  let g =
    Decoder_uf.weighted_graph ~nodes:4
      ~edges:
        [ (0, 1, 40, false); (1, 2, 1, false); (2, 3, 40, true);
          (3, Decoder_uf.boundary, 40, false) ]
  in
  let nshots = 126 in
  let rng = Rng.create 40 in
  let detectors =
    Array.init 4 (fun _ ->
        let row = Bitvec.create nshots in
        Bitvec.random_into rng row ~p:0.3;
        row)
  in
  check_steady_zero_alloc "weight-40 path" g ~detectors ~nshots

(* Pinned seed vector: the fused estimator's exact counts for a fixed seed,
   at one and four domains.  Any change to mechanism canonicalization, RNG
   consumption order, chunk layout, or decoder tie-breaks shows up here. *)
let test_pinned_seed_vector () =
  let count d jobs =
    let exp = Surface_circuit.build (Surface_circuit.default ~distance:d) in
    Surface_circuit.logical_error_count ~jobs exp (Rng.create 2023)
      ~shots:2000
  in
  List.iter
    (fun (d, pinned) ->
      Alcotest.(check int)
        (Printf.sprintf "d=%d jobs=1 pinned" d)
        pinned (count d 1);
      Alcotest.(check int)
        (Printf.sprintf "d=%d jobs=4 pinned" d)
        pinned (count d 4))
    [ (3, 125); (5, 191) ]

(* ------------------------------------------ fused pipeline budgets ----- *)

(* The sub-threshold fig 6 operating point (d=7, p2 = 1e-3), where logical
   errors are rare and per-shot decode work is light, at 126 shots. *)
let fig6_point =
  { (Surface_circuit.default ~distance:7) with t_data = 5e-4; p2 = 1e-3 }

let fig6_shots = 126
let fig6_exp = lazy (Surface_circuit.build fig6_point)

let fused_count exp rng ~nshots =
  let b = Dem_sampler.sample exp.Surface_circuit.sampler rng ~nshots in
  Decoder_uf.decode_batch_count exp.Surface_circuit.graph
    ~detectors:b.Dem_sampler.detectors
    ~observable:b.Dem_sampler.observables.(0) ~nshots

(* Fused sample+decode stays within 64 minor words per shot: at the fig 6
   point, and at d=3..9 with the batch decoded into a warm output row, the
   configuration `decode-check --seed 7 --shots 512 --dmax 9` reports. *)
let test_fused_alloc_budget () =
  let budget = 64 in
  let exp = Lazy.force fig6_exp in
  let words =
    Alloc.min_words (fun () ->
        ignore (fused_count exp (Rng.create 2023) ~nshots:fig6_shots))
  in
  Alcotest.(check bool)
    (Printf.sprintf "d=7 p2=1e-3: %d words for %d shots, budget %d/shot" words
       fig6_shots budget)
    true
    (words <= budget * fig6_shots);
  List.iter
    (fun distance ->
      let exp =
        Surface_circuit.build
          { (Surface_circuit.default ~distance) with t_data = 5e-4 }
      in
      let nshots = 512 in
      let out = Bitvec.create nshots in
      let words =
        Alloc.min_words (fun () ->
            let b =
              Dem_sampler.sample exp.Surface_circuit.sampler (Rng.create 7)
                ~nshots
            in
            Decoder_uf.decode_batch_into exp.Surface_circuit.graph
              ~detectors:b.Dem_sampler.detectors ~nshots ~out)
      in
      let per_shot = (words + nshots - 1) / nshots in
      Alcotest.(check bool)
        (Printf.sprintf "d=%d: %d words/shot, budget %d" distance per_shot
           budget)
        true (per_shot <= budget))
    [ 3; 5; 7; 9 ]

(* The fused path against the pipeline it replaced, on identical work at the
   fig 6 point: circuit batch sampling, then a transpose and a scalar
   union-find decode per shot. *)
let test_fused_speedup () =
  let exp = Lazy.force fig6_exp in
  let circuit = Surface_circuit.circuit fig6_point in
  let per_shot () =
    let b = Frame.sample circuit (Rng.create 2023) ~nshots:fig6_shots in
    let errors = ref 0 in
    for s = 0 to fig6_shots - 1 do
      let detectors, observables = Dem_sampler.shot b s in
      if Decoder_uf.decode exp.Surface_circuit.graph detectors
         <> Bitvec.get observables 0
      then incr errors
    done;
    !errors
  in
  let fused () = fused_count exp (Rng.create 2023) ~nshots:fig6_shots in
  let floor = 5.0 in
  let x = Timing.speedup ~floor ~slow:per_shot ~fast:fused in
  Alcotest.(check bool)
    (Printf.sprintf "fused %.1fx faster than per-shot decode, floor %gx" x floor)
    true (x >= floor)

(* -------------------------------- satellite: multi-detector decomposition *)

let test_dem_graph_three_detector_flag () =
  (* A 3-detector mechanism decomposes into the chained pair (d0,d1) plus the
     boundary tail (d2, boundary); the observable flag must ride exactly one
     link of the chain (the first), so the full syndrome still predicts the
     flip and no double-counting cancels it. *)
  let g =
    Dem_graph.build ~nodes:3
      [ { Dem.p = 0.01; detectors = [| 0; 1; 2 |]; obs_mask = 1 } ]
  in
  let edges = Decoder_uf.edge_list g in
  Alcotest.(check int) "two edges" 2 (Array.length edges);
  let logical_flags =
    Array.to_list edges |> List.map (fun (_, _, _, l) -> l)
  in
  Alcotest.(check int) "exactly one flagged link" 1
    (List.length (List.filter Fun.id logical_flags));
  let pair_flag =
    Array.to_list edges
    |> List.find_map (fun (u, v, _, l) ->
           if u = 0 && v = 1 then Some l else None)
  in
  Alcotest.(check (option bool)) "flag rides the (d0,d1) link" (Some true)
    pair_flag;
  let tail_flag =
    Array.to_list edges
    |> List.find_map (fun (u, v, _, l) ->
           if u = 2 && v = Decoder_uf.boundary then Some l else None)
  in
  Alcotest.(check (option bool)) "boundary tail unflagged" (Some false)
    tail_flag;
  (* Functionally: the mechanism's own syndrome must decode to a logical
     flip (both links used, flags XOR to true). *)
  let syndrome = Bitvec.create 3 in
  Bitvec.set syndrome 0 true;
  Bitvec.set syndrome 1 true;
  Bitvec.set syndrome 2 true;
  Alcotest.(check bool) "full syndrome predicts flip" true
    (Decoder_uf.decode g syndrome)

(* ------------------------------------------------ threshold jobs -------- *)

let test_pseudothreshold_jobs_determinism () =
  let pt jobs =
    Threshold.pseudothreshold ~jobs ~shots:3000 Codes.steane (Rng.create 47)
  in
  let p1 = pt 1 in
  Alcotest.(check (float 0.)) "pseudothreshold jobs=1 vs jobs=4" p1 (pt 4);
  Alcotest.(check bool) "pseudothreshold in (0, 0.45)" true
    (p1 > 0. && p1 < 0.45)

let () =
  Alcotest.run "fused"
    [ ( "dem sampler",
        [ Alcotest.test_case "noiseless exact" `Quick test_noiseless_exact;
          Alcotest.test_case "d=3 rates jobs=1" `Quick
            (test_surface_flip_rates_agree 3 1);
          Alcotest.test_case "d=3 rates jobs=4" `Quick
            (test_surface_flip_rates_agree 3 4);
          Alcotest.test_case "d=5 rates jobs=1" `Slow
            (test_surface_flip_rates_agree 5 1);
          Alcotest.test_case "d=5 rates jobs=4" `Slow
            (test_surface_flip_rates_agree 5 4);
          Alcotest.test_case "jobs determinism" `Quick
            test_dem_jobs_determinism ] );
      ( "batch decode",
        [ Alcotest.test_case "d=3 batch = scalar" `Quick
            (test_decode_batch_matches_scalar 3);
          Alcotest.test_case "d=5 batch = scalar" `Slow
            (test_decode_batch_matches_scalar 5);
          Alcotest.test_case "steady path zero-alloc" `Quick
            test_decode_batch_steady_zero_alloc;
          Alcotest.test_case "pinned seed vector" `Quick
            test_pinned_seed_vector;
          Alcotest.test_case "3-detector flag placement" `Quick
            test_dem_graph_three_detector_flag;
          Alcotest.test_case "fused alloc budget" `Quick
            test_fused_alloc_budget;
          Alcotest.test_case "fused vs per-shot speedup" `Quick
            test_fused_speedup ] );
      ( "threshold",
        [ Alcotest.test_case "pseudothreshold jobs=1 vs 4" `Slow
            test_pseudothreshold_jobs_determinism ] ) ]
