(* Tests for the distillation stack: Bell-diagonal algebra cross-validated
   against the exact density-matrix simulator, the DEJMPS recurrence
   cross-validated against the full 4-qubit protocol circuit, the EP source,
   and the module-level discrete-event simulation. *)

let bell_vec which =
  let a = 1. /. sqrt 2. in
  match which with
  | 0 -> [| a; 0.; 0.; a |] (* phi+ *)
  | 1 -> [| 0.; a; a; 0. |] (* psi+ *)
  | 2 -> [| 0.; a; -.a; 0. |] (* psi- *)
  | _ -> [| a; 0.; 0.; -.a |] (* phi- *)

(* Density matrix of a Bell-diagonal state. *)
let rho_of_pair (p : Bell_pair.t) =
  let w = Bell_pair.to_probs p in
  let acc = ref (Cmat.create 4 4) in
  Array.iteri
    (fun i wi ->
      let v = bell_vec i in
      let amps = Array.map (fun x -> { Complex.re = x; im = 0. }) v in
      let dm = Dm.of_ket amps in
      acc := Cmat.add !acc (Cmat.scale_re wi (Dm.rho dm)))
    w;
  !acc

let component rho which =
  let v = bell_vec which in
  let acc = ref 0. in
  for i = 0 to 3 do
    for j = 0 to 3 do
      acc := !acc +. (v.(i) *. v.(j) *. (Cmat.get rho i j).Complex.re)
    done
  done;
  !acc

(* ------------------------------------------------------ algebra vs dm *)

let test_werner_components () =
  let p = Bell_pair.werner 0.85 in
  Bell_pair.validate p;
  Alcotest.(check (float 1e-12)) "fidelity" 0.85 (Bell_pair.fidelity p);
  Alcotest.(check (float 1e-12)) "infidelity" 0.15 (Bell_pair.infidelity p)

let test_pauli_half_against_dm () =
  (* Apply an X channel to one half and compare all four components. *)
  let p0 = Bell_pair.werner 0.9 in
  let px = 0.2 in
  let predicted = Bell_pair.apply_pauli_half p0 ~px ~py:0. ~pz:0. in
  let rho = rho_of_pair p0 in
  let rho' = Channel.apply (Channel.bit_flip px) ~targets:[ 1 ] ~nqubits:2 rho in
  let pred = Bell_pair.to_probs predicted in
  List.iteri
    (fun i which ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "component %d" i)
        pred.(i) (component rho' which))
    [ 0; 1; 2; 3 ]

let test_decay_against_dm () =
  (* Two-sided thermal decay vs the exact (untwirled) idle channel on both
     qubits.  The Bell-diagonal model is the Pauli-twirled channel, so the
     comparison bounds the twirl approximation error: every Bell weight must
     agree with the exact channel's to well within the total decay strength
     (~5% here), and the dominant weight to a few permille. *)
  let p0 = Bell_pair.werner 0.92 in
  let t1 = 0.5e-3 and t2 = 0.5e-3 and dt = 50e-6 in
  let predicted = Bell_pair.decay p0 ~t1 ~t2 ~dt in
  let rho = rho_of_pair p0 in
  let rho = Channel.apply (Channel.idle ~t1 ~t2 ~dt) ~targets:[ 0 ] ~nqubits:2 rho in
  let rho = Channel.apply (Channel.idle ~t1 ~t2 ~dt) ~targets:[ 1 ] ~nqubits:2 rho in
  let pred = Bell_pair.to_probs predicted in
  List.iteri
    (fun i which ->
      Alcotest.(check (float 5e-3))
        (Printf.sprintf "twirl approximation, component %d" i)
        pred.(i) (component rho which))
    [ 0; 1; 2; 3 ];
  Alcotest.(check (float 3e-3)) "fidelity approximation" pred.(0) (component rho 0)

let test_depolarize_reduces_fidelity () =
  let p = Bell_pair.depolarize (Bell_pair.werner 0.98) ~p:0.03 in
  Alcotest.(check bool) "fidelity drops" true (Bell_pair.fidelity p < 0.98);
  Bell_pair.validate p

(* -------------------------------------------- DEJMPS vs exact circuit *)

let dejmps_circuit pa pb =
  (* qubits: a1 b1 a2 b2; pair 1 on (0,1), pair 2 on (2,3) *)
  let rho =
    ref
      (Cmat.kron (rho_of_pair pa) (rho_of_pair pb))
  in
  let apply u targets = rho := Cmat.sandwich (Cmat.embed_unitary ~nqubits:4 ~targets u) !rho in
  apply (Gate.rx (Float.pi /. 2.)) [ 0 ];
  apply (Gate.rx (-.Float.pi /. 2.)) [ 1 ];
  apply (Gate.rx (Float.pi /. 2.)) [ 2 ];
  apply (Gate.rx (-.Float.pi /. 2.)) [ 3 ];
  apply Gate.cx [ 0; 2 ];
  apply Gate.cx [ 1; 3 ];
  (* keep the even-parity branch of measuring qubits 2,3 *)
  let proj =
    Cmat.init 16 16 (fun i j ->
        if i = j && (i lsr 1) land 1 = i land 1 then Complex.one else Complex.zero)
  in
  let kept = Cmat.mul (Cmat.mul proj !rho) proj in
  let p_succ = (Cmat.trace kept).Complex.re in
  let red = Cmat.ptrace ~keep:[ 0; 1 ] ~nqubits:4 (Cmat.scale_re (1. /. p_succ) kept) in
  (p_succ, red)

let test_dejmps_matches_circuit () =
  List.iter
    (fun (pa, pb) ->
      let p_pred, out = Bell_pair.dejmps pa pb in
      let p_sim, red = dejmps_circuit pa pb in
      Alcotest.(check (float 1e-9)) "success probability" p_sim p_pred;
      let probs = Bell_pair.to_probs out in
      List.iteri
        (fun i which ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "output component %d" i)
            (component red which) probs.(i))
        [ 0; 1; 2; 3 ])
    [ (Bell_pair.werner 0.9, Bell_pair.werner 0.85);
      (Bell_pair.werner 0.75, Bell_pair.werner 0.75);
      ( { Bell_pair.phi_p = 0.8; psi_p = 0.1; psi_m = 0.04; phi_m = 0.06 },
        { Bell_pair.phi_p = 0.7; psi_p = 0.05; psi_m = 0.15; phi_m = 0.10 } ) ]

let test_dejmps_iteration_converges () =
  let p = ref (Bell_pair.werner 0.97) in
  for _ = 1 to 5 do
    let _, out = Bell_pair.dejmps !p !p in
    p := out
  done;
  Alcotest.(check bool) "converges to near-perfect" true (Bell_pair.fidelity !p > 0.9999)

let test_dejmps_improves_above_half () =
  let p = Bell_pair.werner 0.7 in
  let _, out = Bell_pair.dejmps p p in
  Alcotest.(check bool) "improves" true (Bell_pair.fidelity out > 0.7)

let prop_dejmps_output_normalized =
  QCheck.Test.make ~name:"dejmps output is a valid state" ~count:200
    QCheck.(pair (float_range 0.55 1.) (float_range 0.55 1.))
    (fun (fa, fb) ->
      let _, out = Bell_pair.dejmps (Bell_pair.werner fa) (Bell_pair.werner fb) in
      Bell_pair.validate out;
      true)

(* The scheduler's closed-form prediction is the fidelity of the full
   DEJMPS output, bit for bit — including the failed-branch convention
   (p_succ = 0 yields the perfect pair). *)
let dejmps_prediction_exact a b =
  Int64.equal
    (Int64.bits_of_float (Bell_pair.dejmps_predicted_fidelity a b))
    (Int64.bits_of_float (Bell_pair.fidelity (snd (Bell_pair.dejmps a b))))

let prop_dejmps_prediction_exact =
  let weights = QCheck.(quad (float_range 0. 1.) (float_range 0. 1.) (float_range 0. 1.) (float_range 0. 1.)) in
  let pair (w, x, y, z) =
    if w +. x +. y +. z <= 0. then Bell_pair.perfect
    else Bell_pair.normalize { Bell_pair.phi_p = w; psi_p = x; psi_m = y; phi_m = z }
  in
  QCheck.Test.make ~name:"dejmps prediction = fidelity of dejmps output" ~count:500
    QCheck.(pair weights weights)
    (fun (a, b) -> dejmps_prediction_exact (pair a) (pair b))

let test_dejmps_prediction_zero_success () =
  let psi_p = { Bell_pair.phi_p = 0.; psi_p = 1.; psi_m = 0.; phi_m = 0. } in
  Alcotest.(check (float 0.)) "p_succ" 0. (fst (Bell_pair.dejmps Bell_pair.perfect psi_p));
  Alcotest.(check bool) "prediction exact" true
    (dejmps_prediction_exact Bell_pair.perfect psi_p);
  Alcotest.(check (float 0.)) "prediction" 1.
    (Bell_pair.dejmps_predicted_fidelity Bell_pair.perfect psi_p)

let prop_decay_keeps_valid =
  QCheck.Test.make ~name:"decay preserves validity" ~count:200
    QCheck.(pair (float_range 0.5 1.) (float_range 1e-7 1e-3))
    (fun (f, dt) ->
      let p = Bell_pair.decay (Bell_pair.werner f) ~t1:0.5e-3 ~t2:0.5e-3 ~dt in
      Bell_pair.validate p;
      Bell_pair.fidelity p <= f +. 1e-9)

(* -------------------------------------------------- flat pool oracle *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_pair (p : Bell_pair.t) (q : Bell_pair.t) =
  same_bits p.phi_p q.phi_p && same_bits p.psi_p q.psi_p && same_bits p.psi_m q.psi_m
  && same_bits p.phi_m q.phi_m

(* What a refresh must equal: [apply_pauli_half] twice with the
   [twirl_probs] channel, per pair, or the pair itself when dt = 0. *)
let decayed_by_oracle p ~ts ~dt =
  if dt > 0. then begin
    let px, py, pz = Bell_pair.twirl_probs ~t1:ts ~t2:ts ~dt in
    Bell_pair.apply_pauli_half (Bell_pair.apply_pauli_half p ~px ~py ~pz) ~px ~py ~pz
  end
  else p

let bell_weights =
  QCheck.(quad (float_range 0. 1.) (float_range 0. 1.) (float_range 0. 1.) (float_range 0. 1.))

let bell_pair_of (w, x, y, z) =
  if w +. x +. y +. z <= 0. then Bell_pair.perfect
  else Bell_pair.normalize { Bell_pair.phi_p = w; psi_p = x; psi_m = y; phi_m = z }

(* Up to six stored pairs, each last refreshed at one of three times: [now]
   (dt = 0) or [now - d1] or [now - d2], so several slots share a dt.  Two
   refreshes, the second with every slot at the same dt; after each, every
   weight and every pairing score is compared bit for bit. *)
let prop_pool_refresh_bit_exact =
  QCheck.Test.make ~name:"pool refresh and pairing score = record oracles, bit for bit"
    ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 6) (pair bell_weights (int_range 0 2)))
        (quad (float_range 1e-4 2e-2) (float_range 0. 1e-4) (float_range 0. 1e-4)
           (float_range 0. 1e-4)))
    (fun (slots, (ts, d1, d2, d3)) ->
      let module Pool = Distill_module.Pool in
      let now = 1e-3 in
      let sinces = [| now; now -. d1; now -. d2 |] in
      let expected = Array.of_list (List.map (fun (w, s) -> (bell_pair_of w, sinces.(s))) slots) in
      let n = Array.length expected in
      let pool = Pool.create n in
      for k = n - 1 downto 0 do
        let p, since = expected.(k) in
        Pool.push pool p ~since ~rounds:0
      done;
      let ok = ref (Pool.length pool = n) in
      let check_at now =
        Pool.refresh pool ~ts ~now;
        for k = 0 to n - 1 do
          let p, since = expected.(k) in
          let dt = now -. since in
          let p = decayed_by_oracle p ~ts ~dt in
          expected.(k) <- (p, if dt > 0. then now else since);
          if not (same_pair p (Pool.get pool k)) then ok := false
        done;
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let oracle =
              Bell_pair.dejmps_predicted_fidelity (fst expected.(i)) (fst expected.(j))
            in
            if not (same_bits oracle (Pool.pairing_score pool i j)) then ok := false
          done
        done
      in
      check_at now;
      check_at (now +. d3);
      !ok)

(* -------------------------------------------------------------- source *)

let test_source_rate () =
  let src = Ep_source.create ~rate_hz:1e6 () in
  let rng = Rng.create 3 in
  let n = 20_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Ep_source.next_gap src rng
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean gap ~ 1us" true (Float.abs (mean -. 1e-6) < 5e-8)

let test_source_infidelity_range () =
  let src = Ep_source.create ~infidelity_lo:0.02 ~infidelity_hi:0.08 ~rate_hz:1e6 () in
  let rng = Rng.create 4 in
  for _ = 1 to 500 do
    let p = Ep_source.sample_pair src rng in
    let infid = Bell_pair.infidelity p in
    Alcotest.(check bool) "in range" true (infid >= 0.0199 && infid <= 0.0801)
  done

let test_source_rejects_bad () =
  Alcotest.(check bool) "negative rate" true
    (try
       ignore (Ep_source.create ~rate_hz:(-1.) ());
       false
     with Invalid_argument _ -> true)

(* -------------------------------------------------------------- module *)

let test_module_delivers_het () =
  let cfg = Distill_module.heterogeneous ~rate_hz:1e6 () in
  let r = Distill_module.run cfg (Rng.create 7) ~horizon:1e-3 in
  Alcotest.(check bool) "delivers pairs" true (r.Distill_module.delivered > 50);
  Alcotest.(check bool) "successes <= attempts" true
    (r.Distill_module.distill_successes <= r.Distill_module.distill_attempts)

let test_module_het_beats_hom_at_low_rate () =
  let rate_hz = 2e5 in
  let het =
    Distill_module.run (Distill_module.heterogeneous ~rate_hz ()) (Rng.create 9)
      ~horizon:3e-3
  in
  let hom =
    Distill_module.run (Distill_module.homogeneous ~rate_hz ()) (Rng.create 9)
      ~horizon:3e-3
  in
  Alcotest.(check bool)
    (Printf.sprintf "het (%d) > 2x hom (%d)" het.Distill_module.delivered
       hom.Distill_module.delivered)
    true
    (het.Distill_module.delivered > 2 * hom.Distill_module.delivered)

let test_module_rate_monotone_in_ts () =
  let rate_hz = 3e5 in
  let run ts =
    (Distill_module.run
       (Distill_module.heterogeneous ~ts ~rate_hz ())
       (Rng.create 10) ~horizon:3e-3)
      .Distill_module.delivered
  in
  let r1 = run 1e-3 and r5 = run 5e-3 in
  Alcotest.(check bool) (Printf.sprintf "Ts=5ms (%d) >= Ts=1ms (%d)" r5 r1) true (r5 >= r1)

let test_module_trace_present () =
  let cfg = Distill_module.heterogeneous ~rate_hz:1e6 () in
  let r = Distill_module.run ~trace_dt:10e-6 cfg (Rng.create 11) ~horizon:200e-6 in
  let times = r.Distill_module.trace_time and best = r.Distill_module.trace_best in
  Alcotest.(check int) "one sample every 10us, both ends included" 21
    (Array.length times);
  Alcotest.(check int) "a best value per sample" (Array.length times) (Array.length best);
  Alcotest.(check (float 0.)) "first sample at 0" 0. times.(0);
  Alcotest.(check bool) "output empty at 0" true (Float.is_nan best.(0));
  let last = best.(Array.length best - 1) in
  if Float.is_nan last then Alcotest.fail "output empty after 200us at 1MHz";
  Alcotest.(check bool) "reaches low infidelity" true (last < 0.01)

let test_module_output_fidelity_at_target () =
  let cfg = Distill_module.heterogeneous ~rate_hz:1e6 () in
  let r = Distill_module.run cfg (Rng.create 13) ~horizon:1e-3 in
  Alcotest.(check bool) "rate conversion" true
    (Float.abs
       (Distill_module.delivered_rate_per_ms r
       -. float_of_int r.Distill_module.delivered)
    < 1e-9)

(* The depolarizing branches of noisy DEJMPS (swap_error and gate_error_2q
   above 0), which no experiment digest reaches, at a fixed seed with a
   small input memory.  The values were generated with the record-based
   pools, before the pools became flat arrays. *)
let test_module_error_branches_pinned () =
  let cfg =
    { (Distill_module.heterogeneous ~rate_hz:1e6 ()) with
      Distill_module.swap_error = 1e-3;
      gate_error_2q = 1e-3;
      input_capacity = 3;
      target_fidelity = 0.99 }
  in
  let r = Distill_module.run ~trace_dt:5e-6 cfg (Rng.create 29) ~horizon:1e-3 in
  let bits = Buffer.create 4096 in
  Array.iter
    (fun x -> Buffer.add_string bits (Printf.sprintf "%016Lx" (Int64.bits_of_float x)))
    r.Distill_module.trace_best;
  Alcotest.(check int) "delivered" 143 r.Distill_module.delivered;
  Alcotest.(check int) "distill_attempts" 490 r.Distill_module.distill_attempts;
  Alcotest.(check int) "distill_successes" 463 r.Distill_module.distill_successes;
  Alcotest.(check int) "trace samples" 200 (Array.length r.Distill_module.trace_best);
  Alcotest.(check string) "trace_best bits" "6dd5a9c8e2c7f1e6bce60d48de2331c1"
    (Digest.to_hex (Digest.string (Buffer.contents bits)))

(* Allocation floor of the event loop: a fixed-seed heterogeneous run at
   1 MHz, in minor words per processed DES event (the trace included).  The
   flat pools, their in-place refresh, the pairing search, the parity-check
   completion and the flat trace allocate nothing per event but one decay
   channel per refresh; what remains is the arriving pair and the floats
   boxed across module calls (RNG draws, event times).  Measured at 18.05. *)
let words_per_event_ceiling = 20

let test_module_words_per_event () =
  let cfg = Distill_module.heterogeneous ~rate_hz:1e6 () in
  let run () = ignore (Distill_module.run cfg (Rng.create 17) ~horizon:1e-3) in
  run ();
  let events = Obs.Counter.create "des.events_total" in
  let before = Obs.Counter.value events in
  let words = Alloc.words run in
  let n = Obs.Counter.value events - before in
  Alcotest.(check bool) "events processed" true (n > 1000);
  Alcotest.(check bool)
    (Printf.sprintf "%d words over %d events <= %d per event" words n
       words_per_event_ceiling)
    true
    (words <= words_per_event_ceiling * n)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "distill"
    [ ( "bell algebra",
        [ Alcotest.test_case "werner" `Quick test_werner_components;
          Alcotest.test_case "pauli half vs dm" `Quick test_pauli_half_against_dm;
          Alcotest.test_case "decay vs dm" `Quick test_decay_against_dm;
          Alcotest.test_case "depolarize" `Quick test_depolarize_reduces_fidelity ] );
      ( "dejmps",
        [ Alcotest.test_case "matches exact circuit" `Quick test_dejmps_matches_circuit;
          Alcotest.test_case "iteration converges" `Quick test_dejmps_iteration_converges;
          Alcotest.test_case "improves above 1/2" `Quick test_dejmps_improves_above_half;
          Alcotest.test_case "prediction at p_succ = 0" `Quick
            test_dejmps_prediction_zero_success ] );
      ( "source",
        [ Alcotest.test_case "rate" `Quick test_source_rate;
          Alcotest.test_case "infidelity range" `Quick test_source_infidelity_range;
          Alcotest.test_case "rejects bad" `Quick test_source_rejects_bad ] );
      ( "module",
        [ Alcotest.test_case "delivers" `Quick test_module_delivers_het;
          Alcotest.test_case "het beats hom" `Slow test_module_het_beats_hom_at_low_rate;
          Alcotest.test_case "monotone in Ts" `Slow test_module_rate_monotone_in_ts;
          Alcotest.test_case "trace" `Quick test_module_trace_present;
          Alcotest.test_case "rate conversion" `Quick test_module_output_fidelity_at_target;
          Alcotest.test_case "error branches pinned" `Quick
            test_module_error_branches_pinned;
          Alcotest.test_case "words per event" `Quick test_module_words_per_event ] );
      ("properties", qc
          [ prop_dejmps_output_normalized;
            prop_dejmps_prediction_exact;
            prop_pool_refresh_bit_exact;
            prop_decay_keeps_valid ]) ]
