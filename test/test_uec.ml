(* Tests for the universal error-correction module (§4.2.2). *)

let shots = 800

let test_het_profile_shapes () =
  let code = Codes.steane in
  let prof = Uec.profile (Uec.Het { ts = 10e-3 }) code in
  Alcotest.(check int) "assignment per qubit" code.Code.n
    (Array.length prof.Uec.assignment);
  Array.iter
    (fun r -> Alcotest.(check bool) "register id valid" true (r = 0 || r = 1))
    prof.Uec.assignment;
  Alcotest.(check bool) "round time positive" true (prof.Uec.round_time > 0.);
  (* serialized: round time at least nstabs * readout *)
  Alcotest.(check bool) "serialization dominates" true
    (prof.Uec.round_time >= float_of_int (Code.num_stabs code) *. 1e-6)

let test_het_respects_register_capacity () =
  let code = Codes.color_17 in
  let prof = Uec.profile (Uec.Het { ts = 10e-3 }) code in
  let count r = Array.fold_left (fun acc x -> if x = r then acc + 1 else acc) 0 prof.Uec.assignment in
  Alcotest.(check bool) "register 0 within capacity" true (count 0 <= 10);
  Alcotest.(check bool) "register 1 within capacity" true (count 1 <= 10)

let test_hom_planar_fast_round () =
  let het = Uec.profile (Uec.Het { ts = 10e-3 }) (Codes.surface 3) in
  let hom = Uec.profile Uec.Hom (Codes.surface 3) in
  Alcotest.(check bool) "hom parallel round much shorter" true
    (hom.Uec.round_time < het.Uec.round_time /. 4.)

let test_hom_nonplanar_pays_routing () =
  let planar = Uec.profile Uec.Hom (Codes.surface 3) in
  let nonplanar = Uec.profile Uec.Hom Codes.reed_muller_15 in
  let total_gates p = Array.fold_left ( + ) 0 p.Uec.gates_2q in
  (* RM has 88 check incidences vs SC3's 24; routing should inflate well
     beyond that ratio. *)
  Alcotest.(check bool) "routing inflates gate count" true
    (total_gates nonplanar > 3 * total_gates planar)

let test_gate_counts_het () =
  let code = Codes.steane in
  let prof = Uec.profile (Uec.Het { ts = 10e-3 }) code in
  (* each qubit participates once per check containing it *)
  Array.iteri
    (fun q g ->
      let expected =
        Array.fold_left
          (fun acc s -> if Array.mem q s then acc + 1 else acc)
          0
          (Array.append code.Code.z_stabs code.Code.x_stabs)
      in
      Alcotest.(check int) (Printf.sprintf "qubit %d" q) expected g)
    prof.Uec.gates_2q

let test_logical_rate_zero_noise () =
  let params =
    { Uec.default_params with p2 = 0.; tc = 1e6 }
  in
  let prof = Uec.profile ~params (Uec.Het { ts = 1e6 }) Codes.steane in
  let rate = Uec.logical_error_rate ~params prof ~rounds:5 ~shots:200 (Rng.create 1) in
  Alcotest.(check (float 1e-9)) "no noise, no failures" 0. rate

let test_logical_rate_monotone_in_p2 () =
  let rate p2 =
    let params = { Uec.default_params with p2 } in
    let prof = Uec.profile ~params (Uec.Het { ts = 50e-3 }) Codes.steane in
    Uec.logical_error_rate ~params prof ~rounds:3 ~shots:2000 (Rng.create 2)
  in
  let r1 = rate 2e-3 and r2 = rate 2e-2 in
  Alcotest.(check bool) (Printf.sprintf "monotone (%.4f < %.4f)" r1 r2) true (r1 < r2)

let test_fig9_improves_with_ts () =
  let code = Codes.color_17 in
  let low = Uec.fig9_point ~code ~ts:0.5e-3 ~shots (Rng.create 3) in
  let high = Uec.fig9_point ~code ~ts:50e-3 ~shots (Rng.create 3) in
  Alcotest.(check bool)
    (Printf.sprintf "Ts=50ms (%.4f) beats Ts=0.5ms (%.4f)" high low)
    true (high < low)

let test_table3_nonplanar_reduction () =
  List.iter
    (fun code ->
      let het, hom, red = Uec.table3_row ~code ~ts:50e-3 ~shots (Rng.create 4) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: het %.4f hom %.4f" code.Code.name het hom)
        true
        (red > 1.5))
    [ Codes.reed_muller_15; Codes.color_17; Codes.steane ]

let test_table3_surface_no_big_win () =
  (* The paper's surface codes favor the homogeneous lattice; at minimum the
     heterogeneous module must show no large advantage. *)
  let _, _, red = Uec.table3_row ~code:(Codes.surface 3) ~ts:50e-3 ~shots (Rng.create 5) in
  Alcotest.(check bool) (Printf.sprintf "reduction %.2f <= 1.5" red) true (red <= 1.5)

let test_two_registers_pipeline_faster () =
  List.iter
    (fun code ->
      let t1 = Uec.round_time_with_registers code ~registers:1 in
      let t2 = Uec.round_time_with_registers code ~registers:2 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1fus vs %.1fus" code.Code.name (t1 *. 1e6) (t2 *. 1e6))
        true (t2 < t1))
    Codes.paper_codes

let test_usc_ext_three_registers () =
  (* Codes beyond 20 qubits chain a USC-EXT: SC5's 25 data qubits spread over
     three 10-mode registers (paper §4.2.2: 1D-partitionable codes). *)
  let code = Codes.surface 5 in
  let prof = Uec.profile (Uec.Het { ts = 50e-3 }) code in
  let max_reg = Array.fold_left max 0 prof.Uec.assignment in
  Alcotest.(check int) "three registers" 2 max_reg;
  let counts = Array.make 3 0 in
  Array.iter (fun r -> counts.(r) <- counts.(r) + 1) prof.Uec.assignment;
  Array.iter (fun c -> Alcotest.(check bool) "capacity" true (c <= 10)) counts;
  let rate = Uec.logical_error_rate prof ~rounds:3 ~shots:400 (Rng.create 21) in
  Alcotest.(check bool) (Printf.sprintf "rate %.4f sane" rate) true
    (rate > 0. && rate < 0.5)

let test_bias_favors_shor () =
  (* Under X-dominated noise the Shor code's six bit-flip checks beat the
     Steane code; the ordering flips nowhere near unbiased noise. *)
  let rate code eta =
    let params = { Uec.default_params with eta } in
    let prof = Uec.profile ~params (Uec.Het { ts = 50e-3 }) code in
    Uec.logical_error_rate ~params prof ~rounds:3 ~shots:4000 (Rng.create 31)
  in
  let shor_x = rate Codes.shor 0.1 and steane_x = rate Codes.steane 0.1 in
  Alcotest.(check bool)
    (Printf.sprintf "X-biased: shor %.4f < steane %.4f" shor_x steane_x)
    true (shor_x < steane_x)

let test_bias_split_conserves () =
  (* eta only redistributes the error budget. *)
  let total eta =
    let params = { Uec.default_params with eta } in
    let prof = Uec.profile ~params (Uec.Het { ts = 50e-3 }) Codes.steane in
    ignore prof;
    ()
  in
  total 0.5;
  total 2.0

let test_rejects_bad_args () =
  let prof = Uec.profile (Uec.Het { ts = 1e-3 }) Codes.steane in
  Alcotest.(check bool) "rounds >= 1" true
    (try
       ignore (Uec.logical_error_rate prof ~rounds:0 ~shots:1 (Rng.create 1));
       false
     with Invalid_argument _ -> true)

(* -------------------------------------------------------------- schedule *)

let test_schedule_validates_and_tracks_analytic () =
  List.iter
    (fun code ->
      let prof = Uec.profile (Uec.Het { ts = 10e-3 }) code in
      let s = Schedule.of_uec_round code ~assignment:prof.Uec.assignment in
      Schedule.validate s;
      let slack =
        float_of_int (Code.num_stabs code) *. 2. *. Uec.default_params.Uec.t_swap
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: schedule %.2fus vs analytic %.2fus" code.Code.name
           (s.Schedule.makespan *. 1e6) (prof.Uec.round_time *. 1e6))
        true
        (Float.abs (s.Schedule.makespan -. prof.Uec.round_time) <= slack))
    Codes.paper_codes

let test_schedule_op_counts () =
  let code = Codes.steane in
  let prof = Uec.profile (Uec.Het { ts = 10e-3 }) code in
  let s = Schedule.of_uec_round code ~assignment:prof.Uec.assignment in
  let count pred = List.length (List.filter pred s.Schedule.ops) in
  let incidences =
    Array.fold_left (fun acc st -> acc + Array.length st) 0
      (Array.append code.Code.z_stabs code.Code.x_stabs)
  in
  Alcotest.(check int) "one CX per incidence" incidences
    (count (fun op -> match op.Schedule.kind with Schedule.Cx _ -> true | _ -> false));
  Alcotest.(check int) "one readout per check" (Code.num_stabs code)
    (count (fun op -> op.Schedule.kind = Schedule.Readout));
  Alcotest.(check int) "swap out = swap in" 
    (count (fun op -> match op.Schedule.kind with Schedule.Swap_out _ -> true | _ -> false))
    (count (fun op -> match op.Schedule.kind with Schedule.Swap_in _ -> true | _ -> false))

let test_schedule_ancilla_is_bottleneck () =
  let code = Codes.color_17 in
  let prof = Uec.profile (Uec.Het { ts = 10e-3 }) code in
  let s = Schedule.of_uec_round code ~assignment:prof.Uec.assignment in
  let anc = Schedule.busy_fraction s "anc" in
  List.iter
    (fun r ->
      if r <> "anc" then
        Alcotest.(check bool)
          (Printf.sprintf "anc (%.2f) busier than %s (%.2f)" anc r
             (Schedule.busy_fraction s r))
          true
          (anc > Schedule.busy_fraction s r))
    (Schedule.resources s)

let test_schedule_validate_rejects_overlap () =
  let bad =
    { Schedule.ops =
        [ { Schedule.kind = Schedule.Readout; start = 0.; finish = 2.;
            resources = [ "anc" ]; label = "a" };
          { Schedule.kind = Schedule.Readout; start = 1.; finish = 3.;
            resources = [ "anc" ]; label = "b" } ];
      makespan = 3. }
  in
  Alcotest.(check bool) "overlap rejected" true
    (try
       Schedule.validate bad;
       false
     with Invalid_argument _ -> true)

let test_schedule_render_and_csv () =
  let code = Codes.surface 3 in
  let prof = Uec.profile (Uec.Het { ts = 10e-3 }) code in
  let s = Schedule.of_uec_round code ~assignment:prof.Uec.assignment in
  Alcotest.(check bool) "render nonempty" true (String.length (Schedule.render s) > 100);
  let csv = Schedule.to_csv s in
  Alcotest.(check int) "csv rows = ops + header"
    (List.length s.Schedule.ops + 1)
    (List.length (String.split_on_char '\n' csv))

(* ---------------------------------------------- assignment search --- *)

(* Reference two-register search for codes that fit two registers: every
   mask over all n bits builds its assignment array, and every check counts
   its registers in a Hashtbl.  [Uec.compute_assignment] must return the
   same winner, and the profile a bit-identical round time. *)
let oracle_assignment (p : Uec.params) (code : Code.t) =
  let stab_time assignment supp =
    let w = Array.length supp in
    let counts = Hashtbl.create 4 in
    Array.iter
      (fun q ->
        let r = assignment.(q) in
        Hashtbl.replace counts r (1 + Option.value ~default:0 (Hashtbl.find_opt counts r)))
      supp;
    let majority = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
    let exposed = max 0 ((2 * majority) - w - 1) in
    (2. *. p.t_swap)
    +. (float_of_int w *. p.t_2q)
    +. (float_of_int exposed *. 2. *. p.t_swap)
    +. p.t_readout
  in
  let stabs = Array.append code.Code.z_stabs code.Code.x_stabs in
  let round_time a = Array.fold_left (fun acc s -> acc +. stab_time a s) 0. stabs in
  let n = code.Code.n in
  let cap = p.register_capacity in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let ones = ref 0 in
    for q = 0 to n - 1 do
      ones := !ones + ((mask lsr q) land 1)
    done;
    if !ones <= cap && n - !ones <= cap then begin
      let a = Array.init n (fun q -> (mask lsr q) land 1) in
      let t = round_time a in
      match !best with
      | Some (bt, _) when bt <= t -> ()
      | _ -> best := Some (t, a)
    end
  done;
  match !best with
  | Some (t, a) -> (a, t)
  | None -> invalid_arg "oracle: code does not fit the registers"

let assignment_codes =
  [ Codes.steane; Codes.shor; Codes.reed_muller_15; Codes.color_17;
    Codes.surface 3; Codes.surface 4; Codes.repetition 5 ]

(* Same winner as the oracle, and the profile's round time for it is the
   oracle's minimum, bit for bit. *)
let check_against_oracle params code =
  let label =
    Printf.sprintf "%s cap=%d t_swap=%g" code.Code.name params.Uec.register_capacity
      params.Uec.t_swap
  in
  let want_a, want_t = oracle_assignment params code in
  let got_a = Uec.compute_assignment params code in
  Alcotest.(check (array int)) (label ^ " assignment") want_a got_a;
  let prof = Uec.profile ~params (Uec.Het { ts = 10e-3 }) code in
  Alcotest.(check int64) (label ^ " round time bits") (Int64.bits_of_float want_t)
    (Int64.bits_of_float prof.Uec.round_time);
  got_a

let test_assignment_matches_oracle () =
  List.iter
    (fun code ->
      List.iter
        (fun register_capacity ->
          ignore
            (check_against_oracle { Uec.default_params with register_capacity } code))
        [ 9; 10 ])
    assignment_codes

let test_assignment_all_tie () =
  (* Free swaps make every balanced split equally fast: the first balanced
     mask in ascending order wins, i.e. the lowest n - cap qubits go to
     register 1. *)
  let params = { Uec.default_params with t_swap = 0. } in
  List.iter
    (fun (code : Code.t) ->
      let a = check_against_oracle params code in
      let ones = max 0 (code.Code.n - params.Uec.register_capacity) in
      Alcotest.(check (array int))
        (code.Code.name ^ " first balanced mask")
        (Array.init code.Code.n (fun q -> if q < ones then 1 else 0))
        a)
    assignment_codes

let test_assignment_does_not_fit () =
  let params = { Uec.default_params with register_capacity = -1 } in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "oracle raises" true
    (raises (fun () -> oracle_assignment params Codes.steane));
  Alcotest.(check bool) "kernel raises" true
    (raises (fun () -> Uec.compute_assignment params Codes.steane));
  Alcotest.(check bool) "zero capacity raises" true
    (raises (fun () ->
         Uec.compute_assignment
           { Uec.default_params with register_capacity = 0 }
           Codes.steane))

let test_assignment_alloc_floor () =
  (* The search allocates its lookup tables and the winner, never per mask:
     the Hashtbl-per-check oracle takes tens of millions of words here. *)
  let code = Codes.color_17 in
  ignore (Uec.compute_assignment Uec.default_params code);
  let words =
    Alloc.words (fun () -> ignore (Uec.compute_assignment Uec.default_params code))
  in
  Alcotest.(check bool)
    (Printf.sprintf "17QCC search allocates %d < 10000 minor words" words)
    true (words < 10_000)

(* Allocation floor of the shot loop, 17QCC het and hom.  A shot allocates
   nothing: 768 and 513 shots are both three chunks and cost the same
   words.  1000 and 500 shots differ by two chunks, and each chunk's stream
   split and task closure cost 45 words (the draw buffer is the
   domain's). *)
let test_shot_loop_alloc_floor () =
  let code = Codes.color_17 in
  List.iter
    (fun (name, arch) ->
      let prof = Uec.profile arch code in
      let words shots =
        Alloc.words (fun () ->
            ignore (Uec.logical_failures prof ~rounds:3 ~shots (Rng.create 5)))
      in
      ignore (words 10);
      Alcotest.(check int) (name ^ ": words(768) - words(513)") 0 (words 768 - words 513);
      Alcotest.(check int) (name ^ ": words(1000) - words(500)") 90
        (words 1000 - words 500))
    [ ("het", Uec.Het { ts = 50e-3 }); ("hom", Uec.Hom) ]

(* The batched, integer-threshold shot loop against the per-draw float loop
   it replaced (test/uec_oracle.ml): equal failure counts for every paper
   code, both architectures, 1-3 rounds, three seeds and shot counts around
   the 256-shot chunk edge, at one and two jobs. *)
let test_shot_loop_matches_oracle () =
  List.iter
    (fun (code : Code.t) ->
      List.iter
        (fun (name, arch) ->
          let prof = Uec.profile arch code in
          for rounds = 1 to 3 do
            List.iter
              (fun seed ->
                List.iter
                  (fun shots ->
                    let want =
                      Uec_oracle.logical_failures ~jobs:1 prof ~rounds ~shots
                        (Rng.create seed)
                    in
                    List.iter
                      (fun jobs ->
                        Alcotest.(check int)
                          (Printf.sprintf "%s %s rounds=%d seed=%d shots=%d jobs=%d"
                             code.Code.name name rounds seed shots jobs)
                          want
                          (Uec.logical_failures ~jobs prof ~rounds ~shots
                             (Rng.create seed)))
                      [ 1; 2 ])
                  [ 1; 255; 256; 257; 700 ])
              [ 1; 2023; 7919 ]
          done)
        [ ("het", Uec.Het { ts = 5e-3 }); ("hom", Uec.Hom) ])
    Codes.paper_codes

(* [uec.draws_total] counts every draw: per round, het takes n idle draws,
   one read flip and one draw per support qubit for each check; hom takes n
   channel draws and one read flip per check. *)
let test_draws_total () =
  let code = Codes.color_17 in
  let counter = Obs.Counter.create "uec.draws_total" in
  List.iter
    (fun (name, arch, expected) ->
      let prof = Uec.profile arch code in
      let before = Obs.Counter.value counter in
      ignore (Uec.logical_failures prof ~rounds:3 ~shots:500 (Rng.create 5));
      Alcotest.(check int) name expected (Obs.Counter.value counter - before))
    [ ("het", Uec.Het { ts = 50e-3 }, 576_000); ("hom", Uec.Hom, 49_500) ]

let () =
  Alcotest.run "uec"
    [ ( "profiles",
        [ Alcotest.test_case "het shapes" `Quick test_het_profile_shapes;
          Alcotest.test_case "register capacity" `Quick test_het_respects_register_capacity;
          Alcotest.test_case "hom planar round" `Quick test_hom_planar_fast_round;
          Alcotest.test_case "hom routing cost" `Quick test_hom_nonplanar_pays_routing;
          Alcotest.test_case "gate counts" `Quick test_gate_counts_het ] );
      ( "assignment",
        [ Alcotest.test_case "matches oracle" `Quick test_assignment_matches_oracle;
          Alcotest.test_case "all-tie first balanced mask" `Quick test_assignment_all_tie;
          Alcotest.test_case "does not fit" `Quick test_assignment_does_not_fit;
          Alcotest.test_case "allocation floor" `Quick test_assignment_alloc_floor ] );
      ( "monte carlo",
        [ Alcotest.test_case "zero noise" `Quick test_logical_rate_zero_noise;
          Alcotest.test_case "monotone in p2" `Slow test_logical_rate_monotone_in_p2;
          Alcotest.test_case "fig9 Ts trend" `Slow test_fig9_improves_with_ts;
          Alcotest.test_case "table3 nonplanar" `Slow test_table3_nonplanar_reduction;
          Alcotest.test_case "table3 surface" `Slow test_table3_surface_no_big_win;
          Alcotest.test_case "bad args" `Quick test_rejects_bad_args;
          Alcotest.test_case "register pipelining" `Quick test_two_registers_pipeline_faster;
          Alcotest.test_case "usc-ext three registers" `Slow test_usc_ext_three_registers;
          Alcotest.test_case "bias favors shor" `Slow test_bias_favors_shor;
          Alcotest.test_case "bias split" `Quick test_bias_split_conserves;
          Alcotest.test_case "shot allocation floor" `Quick test_shot_loop_alloc_floor;
          Alcotest.test_case "shot loop = oracle" `Quick test_shot_loop_matches_oracle;
          Alcotest.test_case "draws total" `Quick test_draws_total ] );
      ( "schedule",
        [ Alcotest.test_case "validates + tracks analytic" `Quick
            test_schedule_validates_and_tracks_analytic;
          Alcotest.test_case "op counts" `Quick test_schedule_op_counts;
          Alcotest.test_case "ancilla bottleneck" `Quick test_schedule_ancilla_is_bottleneck;
          Alcotest.test_case "rejects overlap" `Quick test_schedule_validate_rejects_overlap;
          Alcotest.test_case "render + csv" `Quick test_schedule_render_and_csv ] ) ]
