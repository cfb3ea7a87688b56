(* Tests for the facade: module hierarchies and the experiment index. *)

let test_hierarchies_validate () =
  List.iter Hierarchy.validate
    [ Hierarchy.distillation ();
      Hierarchy.surface_code_memory 3;
      Hierarchy.universal_error_correction ();
      Hierarchy.code_teleportation () ]

let test_distillation_structure () =
  let t = Hierarchy.distillation () in
  Alcotest.(check int) "four cells" 4 (List.length (Hierarchy.cells t));
  Alcotest.(check int) "device count" 8 (Hierarchy.device_count t);
  (* 3 registers x 11 + parcheck x 2 *)
  Alcotest.(check int) "qubit capacity" 35 (Hierarchy.qubit_capacity t)

let test_surface_memory_structure () =
  let t = Hierarchy.surface_code_memory 3 in
  (* d^2 - 1 ParCheck cells *)
  Alcotest.(check int) "8 parcheck cells" 8 (List.length (Hierarchy.cells t))

let test_ct_structure () =
  let t = Hierarchy.code_teleportation () in
  (* distillation (4) + 2 seqop + 2 usc *)
  Alcotest.(check int) "eight cells" 8 (List.length (Hierarchy.cells t));
  Alcotest.(check bool) "capacity covers 30-qubit codes twice" true
    (Hierarchy.qubit_capacity t >= 60)

let test_footprint_and_control () =
  let t = Hierarchy.distillation () in
  Alcotest.(check bool) "positive footprint" true (Hierarchy.footprint_mm2 t > 0.);
  Alcotest.(check bool) "control lines counted" true (Hierarchy.control_lines t >= 4)

let test_render () =
  let s = Hierarchy.render (Hierarchy.distillation ()) in
  Alcotest.(check bool) "mentions module" true
    (String.length s > 0
    && String.split_on_char '\n' s |> List.exists (fun l ->
           String.length l > 0 && l.[0] = '+'))

let test_bad_distance_rejected () =
  Alcotest.(check bool) "d=1 rejected" true
    (try
       ignore (Hierarchy.surface_code_memory 1);
       false
     with Invalid_argument _ -> true)

let test_experiment_index () =
  Alcotest.(check int) "ten experiments" 10 (List.length Hetarch.experiments);
  List.iter
    (fun id ->
      match Hetarch.find_experiment id with
      | Some e -> Alcotest.(check string) "id round-trips" id e.Hetarch.id
      | None -> Alcotest.failf "experiment %s missing" id)
    [ "devices"; "cells"; "fig3"; "fig4"; "fig6"; "fig7"; "fig9"; "table3";
      "fig12"; "table4" ];
  Alcotest.(check bool) "unknown is None" true (Hetarch.find_experiment "fig99" = None)

let test_version () =
  Alcotest.(check bool) "semver-ish" true (String.length Hetarch.version >= 5)

let () =
  Alcotest.run "hetarch"
    [ ( "hierarchy",
        [ Alcotest.test_case "validate" `Quick test_hierarchies_validate;
          Alcotest.test_case "distillation" `Quick test_distillation_structure;
          Alcotest.test_case "surface memory" `Quick test_surface_memory_structure;
          Alcotest.test_case "code teleportation" `Quick test_ct_structure;
          Alcotest.test_case "footprint/control" `Quick test_footprint_and_control;
          Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "bad distance" `Quick test_bad_distance_rejected ] );
      ( "experiments",
        [ Alcotest.test_case "index" `Quick test_experiment_index;
          Alcotest.test_case "version" `Quick test_version ] ) ]
