(* Cross-validation of the two circuit-level frame oracles in test/frame.ml:
   the bit-parallel batch sampler ([Frame.sample]) against the scalar one
   ([Frame.sample_shot]), plus the Parallel determinism contract end to end
   on real surface-code circuits.

   The two samplers consume different random streams, so shot-for-shot
   comparison is only possible on noiseless circuits (where both must
   produce all-zero frames); on noisy circuits we compare estimated flip
   RATES at fixed seeds with [Rate_check]. *)

let scalar_flip_counts c rng ~shots =
  let nobs = Array.length c.Circuit.observables in
  let counts = Array.make nobs 0 in
  for _ = 1 to shots do
    let shot = Frame.sample_shot c rng in
    for i = 0 to nobs - 1 do
      if Bitvec.get shot.Frame.observables i then counts.(i) <- counts.(i) + 1
    done
  done;
  counts

(* ------------------------------------------------------------ noiseless *)

let test_noiseless_exact () =
  (* Without noise the error frame stays zero through any Clifford circuit:
     every shot of both samplers must report zero detector and observable
     flips, bit for bit. *)
  let b = Circuit.builder 4 in
  Circuit.add b (Circuit.H 0);
  Circuit.add b (Circuit.CX (0, 1));
  Circuit.add b (Circuit.CZ (1, 2));
  Circuit.add b (Circuit.S 2);
  Circuit.add b (Circuit.SWAP (2, 3));
  ignore (Circuit.measure b 1);
  ignore (Circuit.measure b 3);
  Circuit.add_detector b [ 0 ];
  Circuit.add_detector b [ 0; 1 ];
  Circuit.add_observable b [ 1 ];
  let c = Circuit.finish b in
  let rng = Rng.create 5 in
  let batch = Frame.sample c rng ~nshots:200 in
  Array.iteri
    (fun i row ->
      Alcotest.(check int) (Printf.sprintf "detector %d clean" i) 0 (Bitvec.popcount row))
    batch.Dem_sampler.detectors;
  Array.iteri
    (fun i row ->
      Alcotest.(check int) (Printf.sprintf "observable %d clean" i) 0 (Bitvec.popcount row))
    batch.Dem_sampler.observables;
  let srng = Rng.create 5 in
  for _ = 1 to 50 do
    let shot = Frame.sample_shot c srng in
    Alcotest.(check bool) "scalar detectors clean" true
      (Bitvec.is_zero shot.Frame.detectors);
    Alcotest.(check bool) "scalar observables clean" true
      (Bitvec.is_zero shot.Frame.observables)
  done

let test_shot_extraction_matches_rows () =
  (* Transposing shot s out of the batch must agree with the batch rows. *)
  let b = Circuit.builder 2 in
  Circuit.add b (Circuit.Noise1 { px = 0.3; py = 0.1; pz = 0.2; q = 0 });
  Circuit.add b (Circuit.CX (0, 1));
  ignore (Circuit.measure b 0);
  ignore (Circuit.measure b 1);
  Circuit.add_detector b [ 0 ];
  Circuit.add_detector b [ 1 ];
  Circuit.add_observable b [ 0; 1 ];
  let c = Circuit.finish b in
  let batch = Frame.sample c (Rng.create 11) ~nshots:100 in
  for s = 0 to 99 do
    let dets, obs = Dem_sampler.shot batch s in
    for i = 0 to 1 do
      Alcotest.(check bool)
        (Printf.sprintf "detector %d shot %d" i s)
        (Bitvec.get batch.Dem_sampler.detectors.(i) s)
        (Bitvec.get dets i)
    done;
    Alcotest.(check bool)
      (Printf.sprintf "observable shot %d" s)
      (Bitvec.get batch.Dem_sampler.observables.(0) s)
      (Bitvec.get obs 0)
  done

(* --------------------------------------------------- noise distribution *)

let test_noise1_marginals () =
  (* A Z-basis measurement flips when the frame has an X component: the
     disjoint-mask construction must give flip probability px + py. *)
  List.iter
    (fun (px, py, pz) ->
      let b = Circuit.builder 1 in
      Circuit.add b (Circuit.Noise1 { px; py; pz; q = 0 });
      ignore (Circuit.measure b 0);
      Circuit.add_observable b [ 0 ];
      let c = Circuit.finish b in
      let shots = 40_000 in
      let counts = Frame.sample_flip_counts ~jobs:1 c (Rng.create 17) ~shots in
      Rate_check.check_contains
        (Printf.sprintf "noise1 (%g,%g,%g) flip rate" px py pz)
        ~k:counts.(0) ~n:shots (px +. py))
    [ (0.05, 0., 0.); (0., 0.05, 0.); (0., 0., 0.3); (0.02, 0.03, 0.1);
      (0.3, 0.3, 0.3); (0.5, 0.25, 0.25) ]

let test_depol2_marginal () =
  (* Two-qubit depolarizing: each qubit's measurement flips with probability
     p * 8/15 (8 of the 15 non-identity Paulis have an X component there). *)
  let p = 0.3 in
  let b = Circuit.builder 2 in
  Circuit.add b (Circuit.Depol2 { p; a = 0; b = 1 });
  ignore (Circuit.measure b 0);
  ignore (Circuit.measure b 1);
  Circuit.add_observable b [ 0 ];
  Circuit.add_observable b [ 1 ];
  let c = Circuit.finish b in
  let shots = 40_000 in
  let counts = Frame.sample_flip_counts ~jobs:1 c (Rng.create 23) ~shots in
  Array.iteri
    (fun i count ->
      Rate_check.check_contains
        (Printf.sprintf "depol2 qubit %d flip rate" i)
        ~k:count ~n:shots (p *. 8. /. 15.))
    counts

(* ------------------------------------------- surface-code cross checks *)

let test_surface_flip_rates_agree distance () =
  let c = Surface_circuit.circuit (Surface_circuit.default ~distance) in
  let shots = 3000 in
  let scalar = scalar_flip_counts c (Rng.create 31) ~shots in
  let batch = Frame.sample_flip_counts ~jobs:1 c (Rng.create 31) ~shots in
  Array.iteri
    (fun i s ->
      Rate_check.check_overlap
        (Printf.sprintf "d=%d observable %d scalar vs batch" distance i)
        ~k1:s ~n1:shots ~k2:batch.(i) ~n2:shots)
    scalar

let test_surface_logical_rate_agrees () =
  (* End to end with decoding: union-find failures on batch-sampled shots
     must land near a scalar-sampled estimate on the d=3 circuit. *)
  let p = Surface_circuit.default ~distance:3 in
  let graph = (Surface_circuit.build p).Surface_circuit.graph in
  let c = Surface_circuit.circuit p in
  let shots = 2000 in
  let scalar_errors = ref 0 in
  let srng = Rng.create 37 in
  for _ = 1 to shots do
    let shot = Frame.sample_shot c srng in
    if Decoder_uf.decode graph shot.Frame.detectors
       <> Bitvec.get shot.Frame.observables 0
    then incr scalar_errors
  done;
  let batch_errors =
    Parallel.monte_carlo_count ~jobs:1 ~rng:(Rng.create 37) ~shots (fun rng nshots ->
        let b = Frame.sample c rng ~nshots in
        Decoder_uf.decode_batch_count graph ~detectors:b.Dem_sampler.detectors
          ~observable:b.Dem_sampler.observables.(0) ~nshots)
  in
  Rate_check.check_overlap "d=3 logical failures scalar vs batch"
    ~k1:!scalar_errors ~n1:shots ~k2:batch_errors ~n2:shots

(* ----------------------------------------------------------- determinism *)

let test_jobs_determinism () =
  (* Same seed, different job counts: identical counts, bit for bit. *)
  let c = Surface_circuit.circuit (Surface_circuit.default ~distance:3) in
  let counts jobs = Frame.sample_flip_counts ~jobs c (Rng.create 41) ~shots:1500 in
  let c1 = counts 1 in
  Alcotest.(check (array int)) "flip counts jobs=1 vs jobs=4" c1 (counts 4);
  Alcotest.(check (array int)) "repeat run identical" c1 (counts 1)

let test_uec_jobs_determinism () =
  let code = Codes.steane in
  let prof = Uec.profile (Uec.Het { ts = 10e-3 }) code in
  let rate jobs = Uec.logical_error_rate ~jobs prof ~rounds:3 ~shots:800 (Rng.create 43) in
  Alcotest.(check (float 0.)) "uec rate jobs=1 vs jobs=4" (rate 1) (rate 4)

let test_threshold_jobs_determinism () =
  let code = Codes.steane in
  let decoder = Decoder_lookup.create code in
  let rate jobs =
    Threshold.logical_rate ~jobs code decoder ~p:0.05 ~shots:4000 (Rng.create 47)
  in
  Alcotest.(check (float 0.)) "threshold rate jobs=1 vs jobs=4" (rate 1) (rate 4)

let test_threshold_mask_matches_lists () =
  (* The mask-based decode fast path must agree with the historical
     list-based path on every error pattern of the Steane code. *)
  let decoder = Decoder_lookup.create Codes.steane in
  for mask = 0 to (1 lsl 7) - 1 do
    let qubits =
      List.filter (fun q -> (mask lsr q) land 1 = 1) [ 0; 1; 2; 3; 4; 5; 6 ]
    in
    Alcotest.(check bool)
      (Printf.sprintf "x mask %d" mask)
      (Decoder_lookup.logical_x_error_after_correction decoder ~actual:qubits)
      (Decoder_lookup.logical_x_flip_mask decoder ~actual:mask);
    Alcotest.(check bool)
      (Printf.sprintf "z mask %d" mask)
      (Decoder_lookup.logical_z_error_after_correction decoder ~actual:qubits)
      (Decoder_lookup.logical_z_flip_mask decoder ~actual:mask)
  done

let () =
  Alcotest.run "frame_batch"
    [ ( "noiseless",
        [ Alcotest.test_case "exact agreement" `Quick test_noiseless_exact;
          Alcotest.test_case "shot extraction" `Quick test_shot_extraction_matches_rows ] );
      ( "noise",
        [ Alcotest.test_case "noise1 marginals" `Quick test_noise1_marginals;
          Alcotest.test_case "depol2 marginal" `Quick test_depol2_marginal ] );
      ( "surface",
        [ Alcotest.test_case "d=3 flip rates" `Quick (test_surface_flip_rates_agree 3);
          Alcotest.test_case "d=5 flip rates" `Slow (test_surface_flip_rates_agree 5);
          Alcotest.test_case "d=3 logical rate" `Quick test_surface_logical_rate_agrees ] );
      ( "determinism",
        [ Alcotest.test_case "frame jobs=1 vs 4" `Quick test_jobs_determinism;
          Alcotest.test_case "uec jobs=1 vs 4" `Quick test_uec_jobs_determinism;
          Alcotest.test_case "threshold jobs=1 vs 4" `Quick test_threshold_jobs_determinism;
          Alcotest.test_case "mask decode = list decode" `Quick
            test_threshold_mask_matches_lists ] ) ]
