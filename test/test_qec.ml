(* Tests for the QEC substrate: code catalog validity (including brute-force
   distance verification), decoders, the circuit-level surface-code memory
   experiment, and pseudothresholds. *)

(* ---------------------------------------------------------------- codes *)

let all_named_codes =
  [ Codes.steane; Codes.reed_muller_15; Codes.color_17; Codes.shor;
    Codes.surface 2; Codes.surface 3; Codes.surface 4; Codes.surface 5;
    Codes.repetition 3; Codes.repetition 5 ]

let test_codes_validate () =
  List.iter (fun c -> Code.validate c) all_named_codes

let test_code_parameters () =
  let check c n k stabs =
    Alcotest.(check int) (c.Code.name ^ " n") n c.Code.n;
    Alcotest.(check int) (c.Code.name ^ " k") k c.Code.k;
    Alcotest.(check int) (c.Code.name ^ " stab count") stabs (Code.num_stabs c)
  in
  check Codes.steane 7 1 6;
  check Codes.reed_muller_15 15 1 14;
  check Codes.color_17 17 1 16;
  check (Codes.surface 3) 9 1 8;
  check (Codes.surface 4) 16 1 15;
  check (Codes.surface 5) 25 1 24

let test_code_ranks () =
  (* n - k independent checks for each code. *)
  List.iter
    (fun c ->
      if not (String.length c.Code.name >= 3 && String.sub c.Code.name 0 3 = "REP") then begin
        let rx = Code.gf2_rank c.Code.x_stabs ~n:c.Code.n in
        let rz = Code.gf2_rank c.Code.z_stabs ~n:c.Code.n in
        Alcotest.(check int) (c.Code.name ^ " rank") (c.Code.n - c.Code.k) (rx + rz)
      end)
    all_named_codes

let test_code_distances () =
  List.iter
    (fun c ->
      match Code.brute_force_distance c ~max_weight:(c.Code.distance - 1) with
      | Some w ->
          Alcotest.failf "%s: found logical of weight %d < distance %d" c.Code.name w
            c.Code.distance
      | None -> (
          match Code.brute_force_distance c ~max_weight:c.Code.distance with
          | Some w -> Alcotest.(check int) (c.Code.name ^ " distance") c.Code.distance w
          | None -> Alcotest.failf "%s: no logical at claimed distance" c.Code.name))
    [ Codes.steane; Codes.reed_muller_15; Codes.color_17; Codes.shor;
      Codes.surface 2; Codes.surface 3; Codes.surface 4; Codes.surface 5 ]

let test_color17_weights () =
  let c = Codes.color_17 in
  Array.iter
    (fun s -> Alcotest.(check int) "weight 6 x" 6 (Array.length s))
    c.Code.x_stabs;
  Array.iter
    (fun s -> Alcotest.(check int) "weight 6 z" 6 (Array.length s))
    c.Code.z_stabs

let test_surface_planar_flags () =
  Alcotest.(check bool) "surface planar" true (Codes.surface 3).Code.planar;
  Alcotest.(check bool) "steane nonplanar" false Codes.steane.Code.planar;
  Alcotest.(check bool) "rm nonplanar" false Codes.reed_muller_15.Code.planar;
  Alcotest.(check bool) "17qcc nonplanar" false Codes.color_17.Code.planar

let test_by_name () =
  List.iter
    (fun (name, n) ->
      Alcotest.(check int) name n (Codes.by_name name).Code.n)
    [ ("RM", 15); ("17QCC", 17); ("ST", 7); ("SC3", 9); ("SC4", 16); ("SC7", 49);
      ("REP5", 5) ];
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Codes.by_name "XYZ"))

(* The parsed size and syndrome bits agree with the built code wherever
   by_name builds one, and are None exactly where it raises. *)
let test_qubits_of_name () =
  List.iter
    (fun name ->
      let built f = match Codes.by_name name with c -> Some (f c) | exception _ -> None in
      Alcotest.(check (option int)) name (built (fun c -> c.Code.n)) (Codes.qubits_of_name name);
      Alcotest.(check (option int)) (name ^ " syndrome bits")
        (built Decoder_lookup.syndrome_bits) (Codes.syndrome_bits_of_name name))
    [ "RM"; "17QCC"; "ST"; "SHOR"; "SC2"; "SC3"; "SC4"; "SC5"; "SC6"; "SC7"; "REP2"; "REP9";
      "SC0"; "SC1"; "SC-3"; "REP1"; "REP0"; "SC"; "REP"; "NOPE"; "sc3"; "SC3x" ];
  Alcotest.(check (option int)) "SC400" (Some 160_000) (Codes.qubits_of_name "SC400");
  Alcotest.(check bool) "a huge distance does not overflow" true
    (Codes.qubits_of_name "SC99999999999" = Some max_int)

let test_syndromes () =
  let c = Codes.steane in
  let s = Code.syndrome_of_x_error c [ 0 ] in
  (* qubit 0 appears only in the third check {0,2,4,6} *)
  Alcotest.(check (array int)) "single X error syndrome" [| 0; 0; 1 |] s;
  let s2 = Code.syndrome_of_x_error c [ 0; 0 ] in
  Alcotest.(check (array int)) "double error cancels" [| 0; 0; 0 |] s2

let test_stabilizers_stabilize_codewords () =
  (* Prepare logical |0> of the Steane code in the tableau simulator by
     measuring all stabilizers and correcting, then check every stabilizer
     is deterministically +1. *)
  let code = Codes.steane in
  let rng = Rng.create 7 in
  let t = Tableau.create code.Code.n in
  (* Project onto the codespace: measure each X stabilizer via ancilla-free
     trick — apply the stabilizer measurement by measuring the Pauli through
     stabilizer_expectation after projecting with H/CX circuits is complex;
     instead measure data in Z (already +1 for Z stabs) and fix X stabs by
     measuring them indirectly: use a fresh tableau of n+1 qubits with an
     ancilla. *)
  ignore t;
  let n = code.Code.n in
  let t = Tableau.create (n + 1) in
  let anc = n in
  Array.iter
    (fun supp ->
      Tableau.reset t rng anc;
      Tableau.h t anc;
      Array.iter (fun q -> Tableau.cx t anc q) supp;
      Tableau.h t anc;
      let m = Tableau.measure t rng anc in
      if m = 1 then
        (* Apply a Z correction anticommuting with this X stabilizer:
           flip the sign using any qubit in the support. *)
        Tableau.z t supp.(0))
    code.Code.x_stabs;
  (* After forcing +1 eigenvalues (up to Z corrections that may disturb
     other X stabs, repeat twice for convergence) *)
  Array.iter
    (fun supp ->
      Tableau.reset t rng anc;
      Tableau.h t anc;
      Array.iter (fun q -> Tableau.cx t anc q) supp;
      Tableau.h t anc;
      let m = Tableau.measure t rng anc in
      Alcotest.(check int) "x stabilizer +1 on second pass" 0 m)
    code.Code.x_stabs;
  Array.iteri
    (fun i _ ->
      let p = Code.z_stab_pauli code i in
      let pfull = Pauli.identity (n + 1) in
      Array.iter (fun q -> Pauli.set_z pfull q true) code.Code.z_stabs.(i);
      ignore p;
      Alcotest.(check (option int)) "z stabilizer +1" (Some 1)
        (Tableau.stabilizer_expectation t pfull))
    code.Code.z_stabs

(* -------------------------------------------------------------- decoders *)

let test_lookup_corrects_single_errors () =
  List.iter
    (fun code ->
      let dec = Decoder_lookup.create code in
      for q = 0 to code.Code.n - 1 do
        if code.Code.distance >= 3 then begin
          Alcotest.(check bool)
            (Printf.sprintf "%s X on %d" code.Code.name q)
            false
            (Decoder_lookup.logical_x_error_after_correction dec ~actual:[ q ]);
          Alcotest.(check bool)
            (Printf.sprintf "%s Z on %d" code.Code.name q)
            false
            (Decoder_lookup.logical_z_error_after_correction dec ~actual:[ q ])
        end
      done)
    [ Codes.steane; Codes.reed_muller_15; Codes.color_17; Codes.surface 3 ]

let test_lookup_corrects_double_errors_d5 () =
  let code = Codes.color_17 in
  let dec = Decoder_lookup.create code in
  for a = 0 to code.Code.n - 1 do
    for b = a + 1 to code.Code.n - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "17QCC X on %d,%d" a b)
        false
        (Decoder_lookup.logical_x_error_after_correction dec ~actual:[ a; b ])
    done
  done

let test_lookup_trivial_syndrome () =
  let dec = Decoder_lookup.create Codes.steane in
  Alcotest.(check (list int)) "no error" []
    (Decoder_lookup.decode_x dec [| 0; 0; 0 |])

(* A table of more than 2^max_syndrome_bits entries is refused before it
   is filled; the bound admits every paper code and REP17, not REP18. *)
let test_lookup_table_bound () =
  Alcotest.(check int) "bound" 16 Decoder_lookup.max_syndrome_bits;
  List.iter
    (fun c -> ignore (Decoder_lookup.create c))
    (Codes.repetition 17 :: Codes.paper_codes);
  List.iter
    (fun d ->
      Alcotest.check_raises (Printf.sprintf "REP%d" d)
        (Invalid_argument "Decoder_lookup.create: syndrome table too large") (fun () ->
          ignore (Decoder_lookup.create (Codes.repetition d))))
    [ 18; 30 ]

(* The tables keyed through 5-bit chunk syndrome-column tables are the tables
   the bit-by-bit enumeration built (test/lookup_oracle.ml), entry for
   entry, and the logical-flip fast paths agree with the oracle's keys on
   random error masks. *)
let test_lookup_tables_match_oracle () =
  let support_mask s = Array.fold_left (fun acc q -> acc lor (1 lsl q)) 0 s in
  let parity m = Bitvec.popcount_word m land 1 = 1 in
  let rng = Rng.create 17 in
  List.iter
    (fun (code : Code.t) ->
      let n = code.Code.n in
      let dec = Decoder_lookup.create code in
      let side name checks correction flip logical =
        let want = Lookup_oracle.build_table ~n ~checks in
        Array.iteri
          (fun key c ->
            Alcotest.(check int)
              (Printf.sprintf "%s %s key %d" code.Code.name name key)
              c (correction dec ~key))
          want;
        for _ = 1 to 500 do
          let err = Rng.int rng (1 lsl n) in
          let corr = want.(Lookup_oracle.syndrome_key checks err) in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s flip %#x" code.Code.name name err)
            (parity ((err lxor corr) land logical))
            (flip dec ~actual:err)
        done
      in
      side "x" code.Code.z_stabs
        (fun d ~key -> Decoder_lookup.x_correction_mask d ~key)
        (fun d ~actual -> Decoder_lookup.logical_x_flip_mask d ~actual)
        (support_mask code.Code.logical_z.(0));
      side "z" code.Code.x_stabs
        (fun d ~key -> Decoder_lookup.z_correction_mask d ~key)
        (fun d ~actual -> Decoder_lookup.logical_z_flip_mask d ~actual)
        (support_mask code.Code.logical_x.(0)))
    (Codes.paper_codes
    @ [ Codes.shor; Codes.surface 5 ]
    @ List.init 15 (fun i -> Codes.repetition (i + 3)))

let test_uf_single_defect_pair () =
  (* Line graph: 0-1-2 with boundary at both ends; logical on edge 0-b. *)
  let g =
    Decoder_uf.graph ~nodes:3
      ~edges:
        [ (0, Decoder_uf.boundary, true);
          (0, 1, false);
          (1, 2, false);
          (2, Decoder_uf.boundary, false) ]
  in
  (* Defects at 0 and 1: matched through middle edge -> no logical. *)
  let s = Bitvec.create 3 in
  Bitvec.set s 0 true;
  Bitvec.set s 1 true;
  Alcotest.(check bool) "internal match no flip" false (Decoder_uf.decode g s)

let test_uf_boundary_match_flips () =
  let g =
    Decoder_uf.graph ~nodes:3
      ~edges:
        [ (0, Decoder_uf.boundary, true);
          (0, 1, false);
          (1, 2, false);
          (2, Decoder_uf.boundary, false) ]
  in
  let s = Bitvec.create 3 in
  Bitvec.set s 0 true;
  Alcotest.(check bool) "boundary match flips" true (Decoder_uf.decode g s)

let test_uf_empty_syndrome () =
  let g = Decoder_uf.graph ~nodes:2 ~edges:[ (0, 1, false) ] in
  let s = Bitvec.create 2 in
  Alcotest.(check bool) "quiet" false (Decoder_uf.decode g s);
  Alcotest.(check (list int)) "no correction" [] (Decoder_uf.decode_correction g s)

let test_uf_far_defect_matches_near_boundary () =
  (* 5-node path, boundary at both ends; single defect at node 0 should
     reach its nearest boundary, which carries the logical flag. *)
  let edges =
    (0, Decoder_uf.boundary, true)
    :: (4, Decoder_uf.boundary, false)
    :: List.init 4 (fun i -> (i, i + 1, false))
  in
  let g = Decoder_uf.graph ~nodes:5 ~edges in
  let s = Bitvec.create 5 in
  Bitvec.set s 0 true;
  Alcotest.(check bool) "nearest boundary" true (Decoder_uf.decode g s)

let test_uf_rejects_bad_graph () =
  Alcotest.check_raises "self loop" (Invalid_argument "Decoder_uf.graph: self-loop")
    (fun () -> ignore (Decoder_uf.graph ~nodes:2 ~edges:[ (1, 1, false) ]))

(* ------------------------------------------------- surface code circuit *)

let test_surface_circuit_shapes () =
  let p = Surface_circuit.default ~distance:3 in
  let exp = Surface_circuit.build p in
  Alcotest.(check int) "qubits = data + ancilla" 17 exp.Surface_circuit.n_qubits;
  Alcotest.(check int) "z stabs" 4 exp.Surface_circuit.n_z_stabs;
  let c = Surface_circuit.circuit p in
  (* detectors: 4 per round x 3 rounds + 4 final *)
  Alcotest.(check int) "detectors" 16 (Array.length c.Circuit.detectors);
  Alcotest.(check int) "observables" 1 (Array.length c.Circuit.observables)

let test_surface_circuit_detectors_deterministic () =
  (* Noiseless circuit: every detector must be quiet under the tableau
     simulator (which samples the X-ancilla randomness for real). *)
  let p =
    { (Surface_circuit.default ~distance:3) with
      p2 = 0.;
      t_data = 1e9;
      t_anc = 1e9 }
  in
  let c = Surface_circuit.circuit p in
  let rng = Rng.create 17 in
  for _ = 1 to 20 do
    let t = Tableau.create c.Circuit.nqubits in
    let record = Tableau.run t rng c in
    let dets, obs = Tableau.detector_values c record in
    Alcotest.(check bool) "detectors quiet" true (Bitvec.is_zero dets);
    Alcotest.(check bool) "observable quiet" true (Bitvec.is_zero obs)
  done

let test_surface_circuit_noiseless_frame () =
  let p =
    { (Surface_circuit.default ~distance:3) with
      p2 = 0.;
      t_data = 1e9;
      t_anc = 1e9 }
  in
  let exp = Surface_circuit.build p in
  let rng = Rng.create 18 in
  let rate = Surface_circuit.logical_error_rate exp rng ~shots:50 in
  Alcotest.(check (float 0.0)) "no logical errors without noise" 0.0 rate

let test_surface_logical_rate_reasonable () =
  (* d=3 with paper noise: logical error per shot should be well below 50%
     and above 0. *)
  let exp = Surface_circuit.build (Surface_circuit.default ~distance:3) in
  let rng = Rng.create 19 in
  let rate = Surface_circuit.logical_error_rate exp rng ~shots:400 in
  Alcotest.(check bool) "rate in sane band" true (rate > 0.0 && rate < 0.4)

let test_surface_distance_scaling_below_threshold () =
  (* With mild noise (0.2% CX error, good coherence), d=5 must beat d=3. *)
  let mk d =
    { (Surface_circuit.default ~distance:d) with p2 = 2e-3; t_data = 5e-4; t_anc = 5e-4 }
  in
  let rng3 = Rng.create 20 and rng5 = Rng.create 21 in
  let r3 = Surface_circuit.logical_error_rate (Surface_circuit.build (mk 3)) rng3 ~shots:1500 in
  let r5 = Surface_circuit.logical_error_rate (Surface_circuit.build (mk 5)) rng5 ~shots:1500 in
  Alcotest.(check bool)
    (Printf.sprintf "below threshold: d5 (%.4f) < d3 (%.4f)" r5 r3)
    true (r5 < r3 +. 0.01)

let test_per_cycle_rate () =
  let p = Surface_circuit.per_cycle_rate ~shot_rate:0.5 ~rounds:1 in
  Alcotest.(check (float 1e-9)) "single round identity" 0.5 p;
  let p13 = Surface_circuit.per_cycle_rate ~shot_rate:0.2 ~rounds:13 in
  Alcotest.(check bool) "per-cycle smaller" true (p13 < 0.2 && p13 > 0.)

(* ------------------------------------------- serialized memory circuits *)

let test_stab_circuit_noiseless_deterministic () =
  (* The generalized serialized-USC memory circuit must have quiet detectors
     noiselessly for every code — checked with the exact tableau simulator,
     which samples the X-check randomness for real. *)
  let p0 = { (Stab_circuit.default ~ts:1e9) with tc = 1e9; p2 = 0. } in
  List.iter
    (fun code ->
      let c = Stab_circuit.memory_z ~params:p0 code ~rounds:2 in
      let rng = Rng.create 1 in
      for _ = 1 to 5 do
        let t = Tableau.create (code.Code.n + 1) in
        let record = Tableau.run t rng c in
        let dets, obs = Tableau.detector_values c record in
        Alcotest.(check bool) (code.Code.name ^ " detectors quiet") true
          (Bitvec.is_zero dets);
        Alcotest.(check bool) (code.Code.name ^ " observable quiet") true
          (Bitvec.is_zero obs)
      done)
    [ Codes.steane; Codes.shor; Codes.surface 3; Codes.color_17 ]

let test_stab_circuit_validates_phenomenological_model () =
  (* Simulation-hierarchy cross-check: the circuit-level logical-Z rate and
     the phenomenological Uec rate must agree within a small factor. *)
  List.iter
    (fun code ->
      let ts = 50e-3 in
      let circ =
        Stab_circuit.logical_z_error_rate ~params:(Stab_circuit.default ~ts) code
          ~rounds:3 ~shots:3000 (Rng.create 2)
      in
      let circ_round = Stab_circuit.per_round ~shot_rate:circ ~rounds:3 in
      let phen = Uec.fig9_point ~code ~ts ~shots:3000 (Rng.create 3) in
      let ratio = Float.max (circ_round /. phen) (phen /. circ_round) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: circuit %.4f vs model %.4f (x%.2f)" code.Code.name
           circ_round phen ratio)
        true (ratio < 3.))
    [ Codes.steane; Codes.surface 3; Codes.color_17 ]

let test_stab_circuit_noise_scaling () =
  let rate p2 =
    Stab_circuit.logical_z_error_rate
      ~params:{ (Stab_circuit.default ~ts:50e-3) with p2 }
      Codes.steane ~rounds:2 ~shots:3000 (Rng.create 4)
  in
  Alcotest.(check bool) "monotone in p2" true (rate 2e-3 < rate 2e-2)

(* --------------------------------------------------------------- threshold *)

let test_shor_structure () =
  let c = Codes.shor in
  Alcotest.(check int) "two X checks" 2 (Array.length c.Code.x_stabs);
  Alcotest.(check int) "six Z checks" 6 (Array.length c.Code.z_stabs);
  Alcotest.(check string) "by name" "SHOR" (Codes.by_name "SHOR").Code.name

(* The d=13 circuit build's minor words, pinned under a ceiling: every op
   that idles a qubit through one slot kind shares one gate, built from the
   noise table, and ops go into a doubling array rather than a list.
   Measured 149_386 words (269_661 when idles shared one channel per slot
   and coherence, 748_868 before that); allocation counts are
   deterministic. *)
let d13_circuit_words_ceiling = 200_000

let test_circuit_build_words () =
  let p = Surface_circuit.default ~distance:13 in
  ignore (Surface_circuit.circuit p);
  let words = Alloc.words (fun () -> ignore (Surface_circuit.circuit p)) in
  Alcotest.(check bool)
    (Printf.sprintf "d=13 circuit %d minor words <= %d" words d13_circuit_words_ceiling)
    true
    (words <= d13_circuit_words_ceiling)

(* The point fan-out equals building and estimating each point in turn, at
   any job count, and evaluates a repeated point once. *)
let test_per_cycle_rates () =
  let seed = 7 and shots = 300 in
  let base = Surface_circuit.default ~distance:3 in
  let points =
    [ base; { base with t_data = 3e-4 }; base; { base with t_anc = 2e-4 } ]
  in
  let serial =
    List.map
      (fun p ->
        let rate =
          Surface_circuit.logical_error_rate ~jobs:1 (Surface_circuit.build p)
            (Rng.create seed) ~shots
        in
        Surface_circuit.per_cycle_rate ~shot_rate:rate ~rounds:p.Surface_circuit.rounds)
      points
  in
  (* Names are interned: this is the compile counter Dem_sampler bumps. *)
  let compiles = Obs.Counter.create "pauli.dem_compiles_total" in
  let saved = Parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_jobs saved)
    (fun () ->
      List.iter
        (fun jobs ->
          Parallel.set_jobs jobs;
          let before = Obs.Counter.value compiles in
          let rates = Surface_circuit.per_cycle_rates ~seed ~shots points in
          Alcotest.(check (list (float 0.)))
            (Printf.sprintf "jobs=%d = serial" jobs)
            serial rates;
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: three distinct points, three compiles" jobs)
            3
            (Obs.Counter.value compiles - before))
        [ 1; 2; 3 ])

(* Fig 6's claim (paper §4.2.1): at d=13, a longer data-qubit coherence
   (Tcd = 5 x 100 us) buys more than the same longer ancilla coherence
   (Tca = 5 x 100 us), and Tcd x5 beats the homogeneous point.  At seed 2023
   and 2000 shots the per-cycle rates are 0.00727 (Tcd x5) and 0.01359
   (Tca x5).  The per-shot failure counts must be apart by more than their
   Wilson intervals at z = 4.  All three points share one shape. *)
let test_fig6_claim () =
  let shots = 2000 and base = 1e-4 in
  let failures ~t_data ~t_anc =
    let p = { (Surface_circuit.default ~distance:13) with t_data; t_anc } in
    Surface_circuit.logical_error_count ~jobs:1 (Surface_circuit.build p) (Rng.create 2023)
      ~shots
  in
  let tcd5 = failures ~t_data:(5. *. base) ~t_anc:base
  and tca5 = failures ~t_data:base ~t_anc:(5. *. base)
  and hom = failures ~t_data:base ~t_anc:base in
  let apart name a b =
    let _, a_hi = Rate_check.interval ~k:a ~n:shots in
    let b_lo, _ = Rate_check.interval ~k:b ~n:shots in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %d failures, interval below %d's" name a b)
      true (a_hi < b_lo)
  in
  apart "Tcd x5 vs Tca x5" tcd5 tca5;
  apart "Tcd x5 vs homogeneous" tcd5 hom

let test_build_varied () =
  let p = Surface_circuit.default ~distance:3 in
  let exp = Surface_circuit.build_varied ~sigma:0.5 (Rng.create 42) p in
  let rate = Surface_circuit.logical_error_rate exp (Rng.create 43) ~shots:200 in
  Alcotest.(check bool) "still decodes" true (rate < 0.4);
  Alcotest.(check bool) "sigma 0 equals nominal ops" true
    (Circuit.depth_events
       (Surface_circuit.circuit ~variability:(0., Rng.create 1) p)
    = Circuit.depth_events (Surface_circuit.circuit p))

let test_logical_rate_zero_noise () =
  let code = Codes.steane in
  let dec = Decoder_lookup.create code in
  let rng = Rng.create 30 in
  Alcotest.(check (float 0.)) "no noise no errors" 0.
    (Threshold.logical_rate code dec ~p:0. ~shots:200 rng)

let test_logical_rate_monotone () =
  let code = Codes.steane in
  let dec = Decoder_lookup.create code in
  let rng = Rng.create 31 in
  let r1 = Threshold.logical_rate code dec ~p:0.01 ~shots:20_000 rng in
  let r2 = Threshold.logical_rate code dec ~p:0.05 ~shots:20_000 rng in
  Alcotest.(check bool) "monotone in p" true (r1 < r2)

let test_pseudothreshold_steane () =
  (* Steane pseudothreshold under this noise model should be around 10%,
     certainly inside [0.02, 0.3]. *)
  let rng = Rng.create 32 in
  let pt = Threshold.pseudothreshold ~shots:8_000 Codes.steane rng in
  Alcotest.(check bool)
    (Printf.sprintf "Steane PT = %.4f in band" pt)
    true
    (pt > 0.02 && pt < 0.3)

let test_pseudothreshold_ordering () =
  (* The RM code has the lowest pseudothreshold of the three non-planar
     codes in Table 3. *)
  let rng = Rng.create 33 in
  let pt_rm = Threshold.pseudothreshold ~shots:6_000 Codes.reed_muller_15 rng in
  let pt_st = Threshold.pseudothreshold ~shots:6_000 Codes.steane rng in
  Alcotest.(check bool)
    (Printf.sprintf "PT(RM)=%.4f < PT(ST)=%.4f" pt_rm pt_st)
    true (pt_rm < pt_st)

let () =
  Alcotest.run "qec"
    [ ( "codes",
        [ Alcotest.test_case "validate" `Quick test_codes_validate;
          Alcotest.test_case "parameters" `Quick test_code_parameters;
          Alcotest.test_case "ranks" `Quick test_code_ranks;
          Alcotest.test_case "distances (brute force)" `Slow test_code_distances;
          Alcotest.test_case "17QCC weights" `Quick test_color17_weights;
          Alcotest.test_case "planar flags" `Quick test_surface_planar_flags;
          Alcotest.test_case "by_name" `Quick test_by_name;
          Alcotest.test_case "qubits_of_name" `Quick test_qubits_of_name;
          Alcotest.test_case "syndromes" `Quick test_syndromes;
          Alcotest.test_case "shor" `Quick test_shor_structure;
          Alcotest.test_case "stabilize codewords" `Quick test_stabilizers_stabilize_codewords ] );
      ( "decoders",
        [ Alcotest.test_case "lookup single errors" `Quick test_lookup_corrects_single_errors;
          Alcotest.test_case "lookup double errors d5" `Slow test_lookup_corrects_double_errors_d5;
          Alcotest.test_case "lookup trivial" `Quick test_lookup_trivial_syndrome;
          Alcotest.test_case "lookup table bound" `Quick test_lookup_table_bound;
          Alcotest.test_case "lookup tables = oracle" `Quick test_lookup_tables_match_oracle;
          Alcotest.test_case "uf pair match" `Quick test_uf_single_defect_pair;
          Alcotest.test_case "uf boundary match" `Quick test_uf_boundary_match_flips;
          Alcotest.test_case "uf empty" `Quick test_uf_empty_syndrome;
          Alcotest.test_case "uf nearest boundary" `Quick test_uf_far_defect_matches_near_boundary;
          Alcotest.test_case "uf bad graph" `Quick test_uf_rejects_bad_graph ] );
      ( "surface circuit",
        [ Alcotest.test_case "shapes" `Quick test_surface_circuit_shapes;
          Alcotest.test_case "deterministic detectors" `Quick
            test_surface_circuit_detectors_deterministic;
          Alcotest.test_case "noiseless frame" `Quick test_surface_circuit_noiseless_frame;
          Alcotest.test_case "noisy rate sane" `Quick test_surface_logical_rate_reasonable;
          Alcotest.test_case "d=13 build words" `Quick test_circuit_build_words;
          Alcotest.test_case "point fan-out" `Quick test_per_cycle_rates;
          Alcotest.test_case "distance scaling" `Slow test_surface_distance_scaling_below_threshold;
          Alcotest.test_case "varied coherence" `Quick test_build_varied;
          Alcotest.test_case "fig6 claim" `Quick test_fig6_claim;
          Alcotest.test_case "per-cycle conversion" `Quick test_per_cycle_rate ] );
      ( "serialized memory",
        [ Alcotest.test_case "noiseless deterministic" `Quick
            test_stab_circuit_noiseless_deterministic;
          Alcotest.test_case "validates model" `Slow
            test_stab_circuit_validates_phenomenological_model;
          Alcotest.test_case "noise scaling" `Slow test_stab_circuit_noise_scaling ] );
      ( "threshold",
        [ Alcotest.test_case "zero noise" `Quick test_logical_rate_zero_noise;
          Alcotest.test_case "monotone" `Quick test_logical_rate_monotone;
          Alcotest.test_case "steane PT" `Slow test_pseudothreshold_steane;
          Alcotest.test_case "PT ordering" `Slow test_pseudothreshold_ordering ] ) ]
