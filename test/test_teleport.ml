(* Tests for the code-teleportation module (§4.3). *)

let shots = 400

let test_breakdown_fields_sane () =
  let b =
    Teleport.heterogeneous ~code_a:(Codes.surface 3) ~code_b:Codes.steane ~ts:10e-3
      ~shots (Rng.create 1)
  in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " in [0,1]") true (v >= 0. && v <= 1.))
    [ ("e_ep", b.Teleport.e_ep); ("e_cat", b.Teleport.e_cat);
      ("e_plus_a", b.Teleport.e_plus_a); ("e_plus_b", b.Teleport.e_plus_b);
      ("e_meas", b.Teleport.e_meas); ("total", b.Teleport.total) ];
  Alcotest.(check bool) "total >= largest component" true
    (b.Teleport.total >= b.Teleport.e_cat -. 1e-9)

let test_ep_target_met_heterogeneous () =
  let b =
    Teleport.heterogeneous ~code_a:(Codes.surface 3) ~code_b:(Codes.surface 4)
      ~ts:12.5e-3 ~shots (Rng.create 2)
  in
  Alcotest.(check bool)
    (Printf.sprintf "e_ep %.4f <= 0.005 at Ts=12.5ms" b.Teleport.e_ep)
    true
    (b.Teleport.e_ep <= 0.0051)

let test_total_decreases_with_ts () =
  let total ts =
    (Teleport.heterogeneous ~code_a:(Codes.surface 3) ~code_b:Codes.reed_muller_15
       ~ts ~shots (Rng.create 3))
      .Teleport.total
  in
  let low = total 1e-3 and high = total 50e-3 in
  Alcotest.(check bool)
    (Printf.sprintf "Ts=50ms (%.3f) < Ts=1ms (%.3f)" high low)
    true (high < low)

let test_het_beats_hom_every_pair () =
  (* Table 4's headline: heterogeneous wins every ordered pair of the
     paper's five codes. *)
  let results = Teleport.table4 ~codes:Codes.paper_codes ~ts:50e-3 ~shots (Rng.create 4) in
  Alcotest.(check int) "twenty ordered pairs" 20 (List.length results);
  List.iter
    (fun (a, b, het, hom) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s->%s het %.3f < hom %.3f" a b het hom)
        true (het < hom))
    results

let test_bigger_codes_cost_more () =
  let total code_b =
    (Teleport.heterogeneous ~code_a:(Codes.surface 3) ~code_b ~ts:50e-3 ~shots
       (Rng.create 5))
      .Teleport.total
  in
  let small = total Codes.steane in
  let large = total Codes.reed_muller_15 in
  Alcotest.(check bool)
    (Printf.sprintf "RM (%.3f) costs more than Steane (%.3f)" large small)
    true (large > small)

let test_table4_excludes_diagonal () =
  let results =
    Teleport.table4 ~codes:Codes.paper_codes ~ts:50e-3 ~shots:100 (Rng.create 6)
  in
  Alcotest.(check int) "20 ordered pairs" 20 (List.length results);
  List.iter
    (fun (a, b, _, _) -> Alcotest.(check bool) "no self pair" true (a <> b))
    results

(* Table 4 fanned across two domains equals the sequential loop over the
   pairs on one shared generator (the loop the perfbench replay reconciles
   against), bit for bit.  300 shots is two UEC chunks, the last one short. *)
let test_table4_parallel_matches_sequential () =
  let codes = [ Codes.steane; Codes.surface 3; Codes.color_17 ] in
  let ts = 50e-3 and shots = 300 in
  let rng = Rng.create 5 in
  let sequential =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a.Code.name = b.Code.name then None
            else begin
              let het = Teleport.heterogeneous ~code_a:a ~code_b:b ~ts ~shots rng in
              let hom = Teleport.homogeneous ~code_a:a ~code_b:b ~shots rng in
              Some (a.Code.name, b.Code.name, het.Teleport.total, hom.Teleport.total)
            end)
          codes)
      codes
  in
  let fanned =
    let jobs = Parallel.jobs () in
    Parallel.set_jobs 2;
    Fun.protect
      ~finally:(fun () -> Parallel.set_jobs jobs)
      (fun () -> Teleport.table4 ~codes ~ts ~shots (Rng.create 5))
  in
  let show (a, b, het, hom) = Printf.sprintf "%s %s %h %h" a b het hom in
  Alcotest.(check (list string))
    "table4 at 2 jobs = sequential loop"
    (List.map show sequential) (List.map show fanned)

(* One pair advances the shared generator by exactly [splits_per_pair]
   splits: one EP stream and three UEC estimates of two chunks, per arch. *)
let test_splits_per_pair () =
  let shots = 300 in
  Alcotest.(check int) "2 * (1 + 3 * 2)" 14 (Teleport.splits_per_pair ~shots);
  let master = Rng.create 9 in
  let predicted = Rng.copy master in
  let code_a = Codes.steane and code_b = Codes.surface 3 in
  ignore (Teleport.heterogeneous ~code_a ~code_b ~ts:50e-3 ~shots master);
  ignore (Teleport.homogeneous ~code_a ~code_b ~shots master);
  for _ = 1 to Teleport.splits_per_pair ~shots do
    ignore (Rng.split predicted)
  done;
  for _ = 1 to 4 do
    Alcotest.(check int64) "master after one pair" (Rng.bits64 predicted)
      (Rng.bits64 master)
  done

let test_cat_sim_noiseless () =
  let r = Cat_sim.run ~n:6 ~p2:0. ~t_coh:1e6 ~shots:200 (Rng.create 7) in
  Alcotest.(check (float 1e-9)) "always accepts" 1. r.Cat_sim.accept_rate;
  Alcotest.(check (float 1e-9)) "never errs" 0. r.Cat_sim.error_given_accept

let test_cat_sim_noise_reduces_acceptance () =
  let noisy = Cat_sim.run ~n:12 ~p2:2e-2 ~t_coh:0.5e-3 ~shots:2000 (Rng.create 8) in
  Alcotest.(check bool) "acceptance drops" true (noisy.Cat_sim.accept_rate < 0.99);
  Alcotest.(check bool) "undetected errors exist" true
    (noisy.Cat_sim.error_given_accept > 0.)

let test_cat_sim_verification_helps () =
  let without = Cat_sim.run ~n:12 ~p2:1e-2 ~t_coh:0.5e-3 ~verify_checks:0 ~shots:4000 (Rng.create 9) in
  let with_v = Cat_sim.run ~n:12 ~p2:1e-2 ~t_coh:0.5e-3 ~verify_checks:3 ~shots:4000 (Rng.create 9) in
  Alcotest.(check bool)
    (Printf.sprintf "verified %.4f < unverified %.4f" with_v.Cat_sim.error_given_accept
       without.Cat_sim.error_given_accept)
    true
    (with_v.Cat_sim.error_given_accept < without.Cat_sim.error_given_accept)

let test_cat_sim_size_scaling () =
  let small = Cat_sim.run ~n:6 ~p2:1e-2 ~t_coh:0.5e-3 ~shots:3000 (Rng.create 10) in
  let large = Cat_sim.run ~n:24 ~p2:1e-2 ~t_coh:0.5e-3 ~shots:3000 (Rng.create 10) in
  Alcotest.(check bool) "bigger CAT errs more" true
    (large.Cat_sim.error_given_accept > small.Cat_sim.error_given_accept)

(* [Cat_sim.run] samples the circuit's DEM, whose mechanisms fire as
   independent coins; the oracle samples the circuit itself shot by shot
   with [Frame.sample_shot].  Acceptance and error given acceptance must
   agree at the ablation point (n = 24, 2 checks) and at the unverified
   and 3-check n = 12 points. *)
let test_cat_sim_matches_frame_oracle () =
  let shots = 20_000 and p2 = 1e-2 and t_coh = 0.5e-3 in
  List.iter
    (fun (n, verify_checks) ->
      let r = Cat_sim.run ~n ~p2 ~t_coh ~verify_checks ~shots (Rng.create 2023) in
      let dem_accepted = Float.to_int (Float.round (r.Cat_sim.accept_rate *. float_of_int shots)) in
      let dem_bad =
        Float.to_int
          (Float.round (r.Cat_sim.error_given_accept *. float_of_int dem_accepted))
      in
      let c =
        Cat_sim.circuit ~n ~p2 ~t_coh ~t_2q:100e-9 ~t_readout:1e-6 ~verify_checks
      in
      let rng = Rng.create 2024 in
      let accepted = ref 0 and bad = ref 0 in
      for _ = 1 to shots do
        let s = Frame.sample_shot c rng in
        if Bitvec.is_zero s.Frame.detectors then begin
          incr accepted;
          if not (Bitvec.is_zero s.Frame.observables) then incr bad
        end
      done;
      let point = Printf.sprintf "n=%d checks=%d" n verify_checks in
      Rate_check.check_overlap (point ^ " accepted") ~k1:dem_accepted ~n1:shots
        ~k2:!accepted ~n2:shots;
      Rate_check.check_overlap (point ^ " bad given accepted") ~k1:dem_bad
        ~n1:dem_accepted ~k2:!bad ~n2:!accepted)
    [ (24, 2); (12, 0); (12, 3) ]

(* ------------------------------------------------------------- protocol *)

let test_protocol_characterize () =
  let st =
    Ct_protocol.characterize ~code_a:(Codes.surface 3) ~code_b:Codes.steane ~ts:12.5e-3
      (Rng.create 11)
  in
  Alcotest.(check bool) "ep period finite" true (st.Ct_protocol.ep_period < 1e-3);
  Alcotest.(check bool) "cat time positive" true (st.Ct_protocol.cat_time > 0.);
  Alcotest.(check int) "eps needed" 3 st.Ct_protocol.eps_needed;
  Alcotest.(check bool) "plus prep slower than cat" true
    (st.Ct_protocol.plus_time_a > st.Ct_protocol.cat_time)

let test_protocol_produces () =
  let st =
    Ct_protocol.characterize ~code_a:(Codes.surface 3) ~code_b:Codes.steane ~ts:12.5e-3
      (Rng.create 12)
  in
  let r = Ct_protocol.run st (Rng.create 13) ~horizon:5e-3 in
  Alcotest.(check bool) (Printf.sprintf "produced %d" r.Ct_protocol.produced) true
    (r.Ct_protocol.produced > 10);
  Alcotest.(check bool) "latency sane" true
    (r.Ct_protocol.mean_latency > 0. && r.Ct_protocol.mean_latency <= r.Ct_protocol.max_latency)

let test_protocol_latency_exceeds_stage_sum () =
  (* Latency must cover at least the critical path. *)
  let st =
    Ct_protocol.characterize ~code_a:(Codes.surface 3) ~code_b:(Codes.surface 4)
      ~ts:12.5e-3 (Rng.create 14)
  in
  let r = Ct_protocol.run st (Rng.create 15) ~horizon:5e-3 in
  let critical =
    Float.max st.Ct_protocol.cat_time
      (Float.max st.Ct_protocol.plus_time_a st.Ct_protocol.plus_time_b)
    +. st.Ct_protocol.transversal_time +. st.Ct_protocol.meas_time
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean latency %.1fus >= critical path %.1fus"
       (r.Ct_protocol.mean_latency *. 1e6) (critical *. 1e6))
    true
    (r.Ct_protocol.mean_latency >= critical)

let test_protocol_dead_ep_source () =
  let st =
    { Ct_protocol.ep_period = infinity; eps_needed = 2; cat_time = 1e-6;
      plus_time_a = 1e-6; plus_time_b = 1e-6; transversal_time = 1e-6;
      meas_time = 1e-6 }
  in
  let r = Ct_protocol.run st (Rng.create 16) ~horizon:1e-3 in
  Alcotest.(check int) "nothing produced" 0 r.Ct_protocol.produced

(* Bad arguments raise instead of hanging or returning a silent zero. *)
let test_protocol_rejects_bad_arguments () =
  let st =
    { Ct_protocol.ep_period = 1e-6; eps_needed = 2; cat_time = 1e-6;
      plus_time_a = 1e-6; plus_time_b = 1e-6; transversal_time = 1e-6;
      meas_time = 1e-6 }
  in
  let rejects name st horizon =
    Alcotest.(check bool) name true
      (try
         ignore (Ct_protocol.run st (Rng.create 1) ~horizon);
         false
       with Invalid_argument _ -> true)
  in
  rejects "horizon = 0" st 0.;
  rejects "horizon < 0" st (-1e-3);
  rejects "horizon NaN" st nan;
  rejects "horizon infinite" st infinity;
  rejects "ep_period = 0" { st with ep_period = 0. } 1e-3;
  rejects "ep_period < 0" { st with ep_period = -1e-6 } 1e-3;
  rejects "ep_period NaN" { st with ep_period = nan } 1e-3;
  List.iter
    (fun (stage, st) ->
      rejects (stage ^ " < 0") (st (-1e-6)) 1e-3;
      rejects (stage ^ " NaN") (st nan) 1e-3)
    [ ("cat_time", fun t -> { st with cat_time = t });
      ("plus_time_a", fun t -> { st with plus_time_a = t });
      ("plus_time_b", fun t -> { st with plus_time_b = t });
      ("transversal_time", fun t -> { st with transversal_time = t });
      ("meas_time", fun t -> { st with meas_time = t }) ]

(* A state completing exactly at the horizon counts; one ulp later it
   does not.  The first state's completion time is replayed from the same
   generator: one EP gap, then the longest stage and the finish. *)
let test_protocol_horizon_inclusive () =
  let st =
    { Ct_protocol.ep_period = 1e-5; eps_needed = 1; cat_time = 3e-6;
      plus_time_a = 7e-6; plus_time_b = 5e-6; transversal_time = 2e-6;
      meas_time = 1e-6 }
  in
  let c = Rng.exponential (Rng.create 21) (1. /. st.ep_period) in
  let completed = (c +. st.plus_time_a) +. (st.transversal_time +. st.meas_time) in
  List.iter
    (fun (name, horizon, expected) ->
      let r = Ct_protocol.run st (Rng.create 21) ~horizon in
      let o = Ct_oracle.run st (Rng.create 21) ~horizon in
      Alcotest.(check int) name expected r.produced;
      Alcotest.(check int) (name ^ ", oracle") expected o.produced)
    [ ("at the horizon", completed, 1); ("one ulp past it", Float.pred completed, 0) ]

(* EP periods from 0.1 to 100 us, 0 to 4 EPs per state, horizons from
   1 us to 5 ms, and each stage time 0, one of two values shared across
   the stages (so that the join often ties), or a value of its own, from
   10 ns to 100 us. *)
let log_uniform lo hi =
  QCheck.Gen.map (fun u -> lo *. ((hi /. lo) ** u)) (QCheck.Gen.float_range 0. 1.)

let gen_protocol =
  let open QCheck.Gen in
  let* ep_period = log_uniform 1e-7 1e-4 in
  let* eps_needed = int_range 0 4 in
  let* shared_a = log_uniform 1e-8 1e-4 in
  let* shared_b = log_uniform 1e-8 1e-4 in
  let stage = oneof [ return 0.; return shared_a; return shared_b; log_uniform 1e-8 1e-4 ] in
  let* cat_time = stage in
  let* plus_time_a = stage in
  let* plus_time_b = stage in
  let* transversal_time = stage in
  let* meas_time = stage in
  let* horizon = log_uniform 1e-6 5e-3 in
  let* seed = int_bound 1_000_000 in
  return
    ( { Ct_protocol.ep_period; eps_needed; cat_time; plus_time_a; plus_time_b;
        transversal_time; meas_time },
      horizon,
      seed )

let print_protocol ((st : Ct_protocol.stage_times), horizon, seed) =
  Printf.sprintf
    "ep_period=%h eps_needed=%d cat=%h plus_a=%h plus_b=%h transversal=%h meas=%h \
     horizon=%h seed=%d"
    st.ep_period st.eps_needed st.cat_time st.plus_time_a st.plus_time_b
    st.transversal_time st.meas_time horizon seed

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let prop_protocol_matches_oracle =
  QCheck.Test.make ~name:"loop = Des closure oracle, bit for bit" ~count:1000
    (QCheck.make ~print:print_protocol gen_protocol)
    (fun (st, horizon, seed) ->
      let rng = Rng.create seed and oracle_rng = Rng.create seed in
      let r = Ct_protocol.run st rng ~horizon in
      let o = Ct_oracle.run st oracle_rng ~horizon in
      r.produced = o.produced
      && same_bits r.mean_latency o.mean_latency
      && same_bits r.max_latency o.max_latency
      && Rng.bits53 rng = Rng.bits53 oracle_rng)

let () =
  Alcotest.run "teleport"
    [ ( "module",
        [ Alcotest.test_case "breakdown sane" `Quick test_breakdown_fields_sane;
          Alcotest.test_case "EP target met" `Slow test_ep_target_met_heterogeneous;
          Alcotest.test_case "Ts trend" `Slow test_total_decreases_with_ts;
          Alcotest.test_case "het beats hom" `Slow test_het_beats_hom_every_pair;
          Alcotest.test_case "code size cost" `Slow test_bigger_codes_cost_more;
          Alcotest.test_case "table4 pairs" `Slow test_table4_excludes_diagonal;
          Alcotest.test_case "table4 fan-out = sequential" `Quick
            test_table4_parallel_matches_sequential;
          Alcotest.test_case "splits per pair" `Quick test_splits_per_pair ] );
      ( "cat sim",
        [ Alcotest.test_case "noiseless" `Quick test_cat_sim_noiseless;
          Alcotest.test_case "noise reduces acceptance" `Quick test_cat_sim_noise_reduces_acceptance;
          Alcotest.test_case "verification helps" `Slow test_cat_sim_verification_helps;
          Alcotest.test_case "size scaling" `Slow test_cat_sim_size_scaling;
          Alcotest.test_case "matches frame oracle" `Quick test_cat_sim_matches_frame_oracle ] );
      ( "protocol",
        [ Alcotest.test_case "characterize" `Quick test_protocol_characterize;
          Alcotest.test_case "produces" `Quick test_protocol_produces;
          Alcotest.test_case "latency bound" `Quick test_protocol_latency_exceeds_stage_sum;
          Alcotest.test_case "dead source" `Quick test_protocol_dead_ep_source;
          Alcotest.test_case "rejects bad arguments" `Quick
            test_protocol_rejects_bad_arguments;
          Alcotest.test_case "horizon inclusive" `Quick test_protocol_horizon_inclusive;
          QCheck_alcotest.to_alcotest prop_protocol_matches_oracle ] ) ]
