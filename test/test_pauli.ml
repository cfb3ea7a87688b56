(* Tests for Pauli algebra, the CHP tableau simulator, and the Pauli-frame
   sampler, including a statistical cross-validation between the two
   simulators on a noisy circuit. *)

(* ---------------------------------------------------------------- Pauli *)

let test_pauli_parse_print () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Pauli.to_string (Pauli.of_string s)))
    [ "+XIZY"; "-ZZ"; "+III"; "-YYX"; "+X" ]

let test_pauli_implicit_plus () =
  Alcotest.(check string) "implicit sign" "+XZ" (Pauli.to_string (Pauli.of_string "XZ"))

let test_pauli_mul_identities () =
  let p = Pauli.of_string and str = Pauli.to_string in
  Alcotest.(check string) "X*X=I" "+II" (str (Pauli.mul (p "XI") (p "XI")));
  Alcotest.(check string) "X*Y=iZ" "+iZ" (str (Pauli.mul (p "X") (p "Y")));
  Alcotest.(check string) "Y*X=-iZ" "-iZ" (str (Pauli.mul (p "Y") (p "X")));
  Alcotest.(check string) "Z*X=iY" "+iY" (str (Pauli.mul (p "Z") (p "X")));
  Alcotest.(check string) "Z*Y=-iX" "-iX" (str (Pauli.mul (p "Z") (p "Y")))

let test_pauli_mul_xz_zx () =
  (* (X kron Z)(Z kron X) = (XZ) kron (ZX) = (-iY) kron (iY) = Y kron Y *)
  let prod = Pauli.mul (Pauli.of_string "XZ") (Pauli.of_string "ZX") in
  Alcotest.(check string) "product" "+YY" (Pauli.to_string prod)

let test_pauli_commutes () =
  let c a b = Pauli.commutes (Pauli.of_string a) (Pauli.of_string b) in
  Alcotest.(check bool) "X,Z anticommute" false (c "X" "Z");
  Alcotest.(check bool) "X,X commute" true (c "X" "X");
  Alcotest.(check bool) "XX,ZZ commute" true (c "XX" "ZZ");
  Alcotest.(check bool) "XI,ZZ anticommute" false (c "XI" "ZZ");
  Alcotest.(check bool) "Y,Y commute" true (c "Y" "Y");
  Alcotest.(check bool) "XYZ,ZIX" true (c "XYZ" "ZIX")

let test_pauli_weight_support () =
  let p = Pauli.of_string "XIYZI" in
  Alcotest.(check int) "weight" 3 (Pauli.weight p);
  Alcotest.(check (list int)) "support" [ 0; 2; 3 ] (Pauli.support p)

let test_pauli_neg () =
  let p = Pauli.of_string "XZ" in
  Alcotest.(check string) "neg" "-XZ" (Pauli.to_string (Pauli.neg p));
  Alcotest.(check bool) "equal up to phase" true (Pauli.equal_up_to_phase p (Pauli.neg p));
  Alcotest.(check bool) "not equal" false (Pauli.equal p (Pauli.neg p))

let prop_pauli_mul_associative =
  let arb =
    QCheck.make
      QCheck.Gen.(
        map
          (fun cs -> Pauli.of_string (String.init 4 (fun i -> List.nth cs i)))
          (list_size (return 4) (oneofl [ 'I'; 'X'; 'Y'; 'Z' ])))
  in
  QCheck.Test.make ~name:"pauli mul associative" ~count:200 (QCheck.triple arb arb arb)
    (fun (a, b, c) ->
      Pauli.equal (Pauli.mul (Pauli.mul a b) c) (Pauli.mul a (Pauli.mul b c)))

let prop_pauli_commute_consistent_with_mul =
  let arb =
    QCheck.make
      QCheck.Gen.(
        map
          (fun cs -> Pauli.of_string (String.init 3 (fun i -> List.nth cs i)))
          (list_size (return 3) (oneofl [ 'I'; 'X'; 'Y'; 'Z' ])))
  in
  QCheck.Test.make ~name:"commutes iff ab = ba" ~count:200 (QCheck.pair arb arb)
    (fun (a, b) ->
      let ab = Pauli.mul a b and ba = Pauli.mul b a in
      Pauli.commutes a b = Pauli.equal ab ba)

(* -------------------------------------------------------------- Tableau *)

let test_tableau_initial_measure_zero () =
  let t = Tableau.create 3 in
  let rng = Rng.create 1 in
  for q = 0 to 2 do
    Alcotest.(check int) "starts in |0>" 0 (Tableau.measure t rng q)
  done

let test_tableau_x_flips () =
  let t = Tableau.create 2 in
  let rng = Rng.create 1 in
  Tableau.x t 1;
  Alcotest.(check int) "q0 unchanged" 0 (Tableau.measure t rng 0);
  Alcotest.(check int) "q1 flipped" 1 (Tableau.measure t rng 1)

let test_tableau_h_random () =
  let rng = Rng.create 2 in
  let ones = ref 0 in
  let n = 1000 in
  for _ = 1 to n do
    let t = Tableau.create 1 in
    Tableau.h t 0;
    if Tableau.measure t rng 0 = 1 then incr ones
  done;
  let p = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "~uniform" true (Float.abs (p -. 0.5) < 0.06)

let test_tableau_bell_correlations () =
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    let t = Tableau.create 2 in
    Tableau.h t 0;
    Tableau.cx t 0 1;
    let a = Tableau.measure t rng 0 in
    let b = Tableau.measure t rng 1 in
    Alcotest.(check int) "bell correlated" a b
  done

let test_tableau_ghz_parity () =
  let rng = Rng.create 4 in
  for _ = 1 to 50 do
    let t = Tableau.create 3 in
    Tableau.h t 0;
    Tableau.cx t 0 1;
    Tableau.cx t 1 2;
    let a = Tableau.measure t rng 0 in
    let b = Tableau.measure t rng 1 in
    let c = Tableau.measure t rng 2 in
    Alcotest.(check int) "ghz ab" a b;
    Alcotest.(check int) "ghz bc" b c
  done

let test_tableau_deterministic_detection () =
  let t = Tableau.create 1 in
  Alcotest.(check (option int)) "fresh |0> deterministic" (Some 0)
    (Tableau.measure_deterministic t 0);
  Tableau.x t 0;
  Alcotest.(check (option int)) "|1> deterministic" (Some 1)
    (Tableau.measure_deterministic t 0);
  Tableau.h t 0;
  Alcotest.(check (option int)) "|-> random" None (Tableau.measure_deterministic t 0)

let test_tableau_stabilizer_expectation () =
  let t = Tableau.create 2 in
  Tableau.h t 0;
  Tableau.cx t 0 1;
  (* Bell state: stabilized by +XX, +ZZ, -YY. *)
  Alcotest.(check (option int)) "XX" (Some 1)
    (Tableau.stabilizer_expectation t (Pauli.of_string "XX"));
  Alcotest.(check (option int)) "ZZ" (Some 1)
    (Tableau.stabilizer_expectation t (Pauli.of_string "ZZ"));
  Alcotest.(check (option int)) "YY" (Some (-1))
    (Tableau.stabilizer_expectation t (Pauli.of_string "YY"));
  Alcotest.(check (option int)) "ZI random" None
    (Tableau.stabilizer_expectation t (Pauli.of_string "ZI"))

let test_tableau_s_gate () =
  (* S|+> = |+i>, stabilized by +Y. *)
  let t = Tableau.create 1 in
  Tableau.h t 0;
  Tableau.s t 0;
  Alcotest.(check (option int)) "Y stabilizer" (Some 1)
    (Tableau.stabilizer_expectation t (Pauli.of_string "Y"))

let test_tableau_swap () =
  let rng = Rng.create 5 in
  let t = Tableau.create 2 in
  Tableau.x t 0;
  Tableau.swap t 0 1;
  Alcotest.(check int) "q0" 0 (Tableau.measure t rng 0);
  Alcotest.(check int) "q1" 1 (Tableau.measure t rng 1)

let test_tableau_cz () =
  (* CZ between |+>|1> flips the phase: X stabilizer of q0 becomes -X after
     conjugation ... verify via H basis measurement. *)
  let t = Tableau.create 2 in
  Tableau.h t 0;
  Tableau.x t 1;
  Tableau.cz t 0 1;
  (* state = |-> |1>; stabilizers: -X0, -Z1... check -X on qubit 0. *)
  Alcotest.(check (option int)) "-X0" (Some (-1))
    (Tableau.stabilizer_expectation t (Pauli.of_string "XI"))

let test_tableau_reset () =
  let rng = Rng.create 6 in
  let t = Tableau.create 1 in
  Tableau.h t 0;
  Tableau.reset t rng 0;
  Alcotest.(check (option int)) "reset to |0>" (Some 0) (Tableau.measure_deterministic t 0)

let test_tableau_apply_pauli_error () =
  let rng = Rng.create 7 in
  let t = Tableau.create 2 in
  Tableau.apply_pauli t (Pauli.of_string "XI");
  Alcotest.(check int) "error flipped qubit" 1 (Tableau.measure t rng 0)

(* ---------------------------------------------------------------- Frame *)

(* A 3-qubit repetition-code style circuit with deterministic detectors:
   measure ZZ parities via two ancillas, twice, then measure data. *)
let repetition_circuit ~p =
  let b = Circuit.builder 5 in
  (* data 0,1,2; ancilla 3,4 *)
  let round () =
    Circuit.add b (Circuit.R 3);
    Circuit.add b (Circuit.R 4);
    Circuit.add b (Circuit.CX (0, 3));
    Circuit.add b (Circuit.CX (1, 3));
    Circuit.add b (Circuit.CX (1, 4));
    Circuit.add b (Circuit.CX (2, 4));
    if p > 0. then begin
      Circuit.add b (Circuit.Noise1 { px = p; py = 0.; pz = 0.; q = 0 });
      Circuit.add b (Circuit.Noise1 { px = p; py = 0.; pz = 0.; q = 1 });
      Circuit.add b (Circuit.Noise1 { px = p; py = 0.; pz = 0.; q = 2 })
    end;
    let m1 = Circuit.measure b 3 in
    let m2 = Circuit.measure b 4 in
    (m1, m2)
  in
  let a1, a2 = round () in
  let b1, b2 = round () in
  Circuit.add_detector b [ a1 ];
  Circuit.add_detector b [ a2 ];
  Circuit.add_detector b [ a1; b1 ];
  Circuit.add_detector b [ a2; b2 ];
  let d0 = Circuit.measure b 0 in
  let d1 = Circuit.measure b 1 in
  let d2 = Circuit.measure b 2 in
  Circuit.add_detector b [ b1; d0; d1 ];
  Circuit.add_detector b [ b2; d1; d2 ];
  Circuit.add_observable b [ d0 ];
  Circuit.finish b

let test_frame_noiseless_detectors_quiet () =
  let c = repetition_circuit ~p:0. in
  Circuit.validate c;
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let shot = Frame.sample_shot c rng in
    Alcotest.(check bool) "no detector fires" true (Bitvec.is_zero shot.Frame.detectors);
    Alcotest.(check bool) "no observable flip" true (Bitvec.is_zero shot.Frame.observables)
  done

let test_tableau_detectors_deterministic () =
  (* The tableau simulator must agree that noiseless detectors never fire,
     even though raw ancilla outcomes could vary. *)
  let c = repetition_circuit ~p:0. in
  let rng = Rng.create 12 in
  for _ = 1 to 100 do
    let t = Tableau.create 5 in
    let record = Tableau.run t rng c in
    let dets, obs = Tableau.detector_values c record in
    Alcotest.(check bool) "tableau detectors quiet" true (Bitvec.is_zero dets);
    Alcotest.(check bool) "tableau observable quiet" true (Bitvec.is_zero obs)
  done

let test_frame_matches_tableau_statistics () =
  (* With X noise on data qubits, detector firing rates from the frame
     sampler must match the tableau simulator within Monte-Carlo error. *)
  let p = 0.15 in
  let c = repetition_circuit ~p in
  let shots = 4000 in
  let frame_rng = Rng.create 21 and tab_rng = Rng.create 22 in
  let ndet = Array.length c.Circuit.detectors in
  let frame_counts = Array.make ndet 0 in
  for _ = 1 to shots do
    let shot = Frame.sample_shot c frame_rng in
    for i = 0 to ndet - 1 do
      if Bitvec.get shot.Frame.detectors i then
        frame_counts.(i) <- frame_counts.(i) + 1
    done
  done;
  let tab_counts = Array.make ndet 0 in
  for _ = 1 to shots do
    let t = Tableau.create 5 in
    let record = Tableau.run t tab_rng c in
    let dets, _ = Tableau.detector_values c record in
    for i = 0 to ndet - 1 do
      if Bitvec.get dets i then tab_counts.(i) <- tab_counts.(i) + 1
    done
  done;
  for i = 0 to ndet - 1 do
    let fp = float_of_int frame_counts.(i) /. float_of_int shots in
    let tp = float_of_int tab_counts.(i) /. float_of_int shots in
    if Float.abs (fp -. tp) >= 0.03 then
      Alcotest.failf "detector %d rates diverge: frame %.3f vs tableau %.3f" i fp tp
  done

let test_frame_observable_flip_rate () =
  (* Single qubit, X error p, measure: flip rate must equal p. *)
  let p = 0.23 in
  let b = Circuit.builder 1 in
  Circuit.add b (Circuit.Noise1 { px = p; py = 0.; pz = 0.; q = 0 });
  let m = Circuit.measure b 0 in
  Circuit.add_observable b [ m ];
  let c = Circuit.finish b in
  let rng = Rng.create 31 in
  let counts = Frame.sample_flip_counts c rng ~shots:20_000 in
  let rate = float_of_int counts.(0) /. 20_000. in
  Alcotest.(check bool) "flip rate matches p" true (Float.abs (rate -. p) < 0.01)

let test_frame_z_noise_invisible_in_z_basis () =
  let b = Circuit.builder 1 in
  Circuit.add b (Circuit.Noise1 { px = 0.; py = 0.; pz = 0.5; q = 0 });
  let m = Circuit.measure b 0 in
  Circuit.add_observable b [ m ];
  let c = Circuit.finish b in
  let rng = Rng.create 32 in
  let counts = Frame.sample_flip_counts c rng ~shots:5_000 in
  Alcotest.(check int) "Z errors don't flip Z measurement" 0 counts.(0)

let test_frame_h_converts_z_to_x () =
  (* Z error then H: becomes X, visible in Z basis. *)
  let b = Circuit.builder 1 in
  Circuit.add b (Circuit.Noise1 { px = 0.; py = 0.; pz = 1.0; q = 0 });
  Circuit.add b (Circuit.H 0);
  let m = Circuit.measure b 0 in
  Circuit.add_observable b [ m ];
  let c = Circuit.finish b in
  let rng = Rng.create 33 in
  let counts = Frame.sample_flip_counts c rng ~shots:1_000 in
  Alcotest.(check int) "always flips" 1_000 counts.(0)

let test_frame_cx_propagates_x () =
  (* X on control propagates to target through CX. *)
  let b = Circuit.builder 2 in
  Circuit.add b (Circuit.Noise1 { px = 1.0; py = 0.; pz = 0.; q = 0 });
  Circuit.add b (Circuit.CX (0, 1));
  let m = Circuit.measure b 1 in
  Circuit.add_observable b [ m ];
  let c = Circuit.finish b in
  let rng = Rng.create 34 in
  let counts = Frame.sample_flip_counts c rng ~shots:500 in
  Alcotest.(check int) "X propagated to target" 500 counts.(0)

let test_frame_idle_noise_rates () =
  (* idle_noise X-flip probability must follow (1 - exp(-dt/T1))/4 within MC
     error (Y also flips Z-basis measurements, so total visible = px+py). *)
  let t1 = 100e-6 and t2 = 120e-6 and dt = 30e-6 in
  let b = Circuit.builder 1 in
  Circuit.idle_noise b ~t1 ~t2 ~dt 0;
  let m = Circuit.measure b 0 in
  Circuit.add_observable b [ m ];
  let c = Circuit.finish b in
  let rng = Rng.create 35 in
  let shots = 40_000 in
  let counts = Frame.sample_flip_counts c rng ~shots in
  let expected = (1. -. exp (-.dt /. t1)) /. 2. in
  let rate = float_of_int counts.(0) /. float_of_int shots in
  Alcotest.(check bool) "idle flip rate" true (Float.abs (rate -. expected) < 0.01)

let test_idle_noise_shared_payload () =
  (* The builder reuses the last idle channel when (t1, t2, dt) repeat by
     IEEE bits: every op must still carry exactly the channel the formula
     gives, -0. and 0. must not share one, and repeats share the boxed
     floats. *)
  let calls =
    [ (1e-4, 1e-4, 4e-8); (1e-4, 1e-4, 4e-8); (2e-4, 1e-4, 4e-8); (1e-4, 1e-4, 4e-8);
      (1e-4, 1e-4, 1e-7); (0., 1e-4, 1e-7); (-0., 1e-4, 1e-7); (-0., 1e-4, 1e-7);
      (1e-4, nan, 1e-7); (1e-4, nan, 1e-7); (1e-4, 1e-4, 0.) ]
  in
  let b = Circuit.builder 1 in
  List.iter (fun (t1, t2, dt) -> Circuit.idle_noise b ~t1 ~t2 ~dt 0) calls;
  let ops = (Circuit.finish b).Circuit.ops in
  let bits = Int64.bits_of_float in
  Alcotest.(check int) "dt = 0 adds nothing" (List.length calls - 1) (Array.length ops);
  List.iteri
    (fun i (t1, t2, dt) ->
      if dt > 0. then
        match ops.(i) with
        | Circuit.Noise1 { px; py; pz; q } ->
            let p1 = (1. -. exp (-.dt /. t1)) /. 4. in
            let ez = max 0. (((1. -. exp (-.dt /. t2)) /. 2.) -. p1) in
            Alcotest.(check bool)
              (Printf.sprintf "call %d: the formula's channel" i)
              true
              (q = 0 && bits px = bits p1 && bits py = bits p1 && bits pz = bits ez)
        | _ -> Alcotest.fail "expected Noise1")
    calls;
  let px i = match ops.(i) with Circuit.Noise1 r -> r.px | _ -> nan in
  Alcotest.(check bool) "repeat shares the payload" true (px 0 == px 1);
  Alcotest.(check bool) "t1 = 0. and -0. differ" false (bits (px 5) = bits (px 6));
  Alcotest.(check bool) "-0. repeat shares" true (px 6 == px 7)

let test_tableau_random_circuits_match_dm () =
  (* Strong cross-validation: for random Clifford circuits on 3 qubits, the
     tableau's sampled final-measurement distribution must match the exact
     density-matrix diagonal.  (This class of test caught a real phase bug:
     destabilizer rows acquire +-i phases during measurement rowsums, so one
     sign bit per row is not enough.) *)
  let gen_rng = Rng.create 123 in
  for _ = 1 to 12 do
    let ops =
      List.init 14 (fun _ ->
          match Rng.int gen_rng 4 with
          | 0 -> `H (Rng.int gen_rng 3)
          | 1 -> `S (Rng.int gen_rng 3)
          | 2 ->
              let a = Rng.int gen_rng 3 in
              let b = (a + 1 + Rng.int gen_rng 2) mod 3 in
              `CX (a, b)
          | _ -> `M (Rng.int gen_rng 3))
    in
    (* exact probabilities by running the Dm with every measurement branch
       tracked is complex; instead compare P(outcome of a final full
       measurement) for circuits WITHOUT mid-circuit measurement *)
    let unitary_ops = List.filter (function `M _ -> false | _ -> true) ops in
    let dm = Dm.create 3 in
    List.iter
      (fun op ->
        match op with
        | `H q -> Dm.apply_unitary dm Gate.h [ q ]
        | `S q -> Dm.apply_unitary dm Gate.s [ q ]
        | `CX (a, b) -> Dm.apply_unitary dm Gate.cx [ a; b ]
        | `M _ -> ())
      unitary_ops;
    let exact =
      Array.init 8 (fun i -> (Cmat.get (Dm.rho dm) i i).Complex.re)
    in
    let counts = Array.make 8 0 in
    let samp_rng = Rng.create 456 in
    let shots = 3000 in
    for _ = 1 to shots do
      let t = Tableau.create 3 in
      List.iter
        (fun op ->
          match op with
          | `H q -> Tableau.h t q
          | `S q -> Tableau.s t q
          | `CX (a, b) -> Tableau.cx t a b
          | `M _ -> ())
        unitary_ops;
      let outcome = ref 0 in
      for q = 0 to 2 do
        outcome := (!outcome lsl 1) lor Tableau.measure t samp_rng q
      done;
      counts.(!outcome) <- counts.(!outcome) + 1
    done;
    Array.iteri
      (fun i p ->
        let freq = float_of_int counts.(i) /. float_of_int shots in
        if Float.abs (freq -. p) >= 0.04 then
          Alcotest.failf "outcome %d: tableau %.3f vs exact %.3f" i freq p)
      exact
  done

let test_tableau_mid_circuit_measurement_conditioning () =
  (* ZZ parity measurement then X-type check (the pattern that triggered the
     phase bug): both simulators must agree the X check is uniformly
     random and subsequent ZZ remeasurement is consistent. *)
  let rng = Rng.create 99 in
  let xs = ref 0 in
  let n = 2000 in
  for _ = 1 to n do
    let t = Tableau.create 3 in
    Tableau.cx t 0 2;
    Tableau.cx t 1 2;
    let z1 = Tableau.measure t rng 2 in
    Alcotest.(check int) "zz deterministic" 0 z1;
    Tableau.reset t rng 2;
    Tableau.h t 2;
    Tableau.cx t 2 0;
    Tableau.cx t 2 1;
    Tableau.h t 2;
    let x = Tableau.measure t rng 2 in
    if x = 1 then incr xs;
    (* remeasuring ZZ must still be deterministic 0: XX commutes with ZZ *)
    let t2 = Tableau.copy t in
    Tableau.reset t2 rng 2;
    Tableau.cx t2 0 2;
    Tableau.cx t2 1 2;
    Alcotest.(check int) "zz still deterministic" 0 (Tableau.measure t2 rng 2)
  done;
  let p = float_of_int !xs /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "x check uniform (%.3f)" p) true
    (Float.abs (p -. 0.5) < 0.04)

let test_circuit_validate_catches_bad_qubit () =
  let b = Circuit.builder 2 in
  Circuit.add b (Circuit.H 5);
  let c = Circuit.finish b in
  Alcotest.check_raises "bad qubit"
    (Invalid_argument "Circuit.validate: qubit out of range")
    (fun () -> Circuit.validate c)

let test_circuit_counts () =
  let c = repetition_circuit ~p:0.01 in
  Alcotest.(check int) "measurements" 7 c.Circuit.nmeas;
  Alcotest.(check bool) "gates counted" true (Circuit.count_gates c = 8);
  Alcotest.(check bool) "events counted" true (Circuit.depth_events c > 8)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "pauli"
    [ ( "pauli",
        [ Alcotest.test_case "parse/print" `Quick test_pauli_parse_print;
          Alcotest.test_case "implicit plus" `Quick test_pauli_implicit_plus;
          Alcotest.test_case "mul identities" `Quick test_pauli_mul_identities;
          Alcotest.test_case "XZ*ZX" `Quick test_pauli_mul_xz_zx;
          Alcotest.test_case "commutation" `Quick test_pauli_commutes;
          Alcotest.test_case "weight/support" `Quick test_pauli_weight_support;
          Alcotest.test_case "negation" `Quick test_pauli_neg ] );
      ( "tableau",
        [ Alcotest.test_case "initial zeros" `Quick test_tableau_initial_measure_zero;
          Alcotest.test_case "x flips" `Quick test_tableau_x_flips;
          Alcotest.test_case "h randomizes" `Quick test_tableau_h_random;
          Alcotest.test_case "bell correlations" `Quick test_tableau_bell_correlations;
          Alcotest.test_case "ghz parity" `Quick test_tableau_ghz_parity;
          Alcotest.test_case "determinism detection" `Quick test_tableau_deterministic_detection;
          Alcotest.test_case "stabilizer expectation" `Quick test_tableau_stabilizer_expectation;
          Alcotest.test_case "s gate" `Quick test_tableau_s_gate;
          Alcotest.test_case "swap" `Quick test_tableau_swap;
          Alcotest.test_case "cz" `Quick test_tableau_cz;
          Alcotest.test_case "reset" `Quick test_tableau_reset;
          Alcotest.test_case "pauli error" `Quick test_tableau_apply_pauli_error;
          Alcotest.test_case "random circuits vs dm" `Slow test_tableau_random_circuits_match_dm;
          Alcotest.test_case "mid-circuit conditioning" `Quick
            test_tableau_mid_circuit_measurement_conditioning ] );
      ( "frame",
        [ Alcotest.test_case "noiseless quiet" `Quick test_frame_noiseless_detectors_quiet;
          Alcotest.test_case "tableau detectors quiet" `Quick test_tableau_detectors_deterministic;
          Alcotest.test_case "frame vs tableau stats" `Slow test_frame_matches_tableau_statistics;
          Alcotest.test_case "observable flip rate" `Quick test_frame_observable_flip_rate;
          Alcotest.test_case "z noise invisible" `Quick test_frame_z_noise_invisible_in_z_basis;
          Alcotest.test_case "h converts z to x" `Quick test_frame_h_converts_z_to_x;
          Alcotest.test_case "cx propagates" `Quick test_frame_cx_propagates_x;
          Alcotest.test_case "idle noise rate" `Quick test_frame_idle_noise_rates;
          Alcotest.test_case "idle noise shared payload" `Quick
            test_idle_noise_shared_payload;
          Alcotest.test_case "validate bad qubit" `Quick test_circuit_validate_catches_bad_qubit;
          Alcotest.test_case "circuit counts" `Quick test_circuit_counts ] );
      ( "properties",
        qc [ prop_pauli_mul_associative; prop_pauli_commute_consistent_with_mul ] ) ]
