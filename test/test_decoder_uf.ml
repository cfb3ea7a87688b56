(* Union-find decoder: differential checks against the unit-round decoder
   ([Uf_rounds]) on random weighted graphs, on tie-heavy graphs and on
   surface-code batches; oracle-free validity of the correction and its
   weight against an exact minimum-weight matching ([Mwpm]); the
   non-convergence error and mis-sized syndromes. *)

(* ------------------------------------------------------- random graphs --- *)

type case = {
  nodes : int;
  edges : (int * int * int * bool) list;
  syndrome : bool array;
}

(* [nodes] nodes with [nodes .. 3 * nodes] edges (so mean degree up to 6),
   weights [1 .. wmax], a quarter of the edges to the boundary, up to
   [nparallel] edges duplicated (parallel edges) and defect density up to
   0.5.  Random endpoints leave some nodes at degree 0, so some cases have
   a defect that no correction can pair. *)
let gen_graph ~max_nodes ~wmax ~nparallel =
  QCheck.Gen.(
    int_range 1 max_nodes >>= fun nodes ->
    let edge =
      int_bound (nodes - 1) >>= fun u ->
      frequency
        [ (1, return Decoder_uf.boundary);
          (3, int_bound (nodes - 1) >|= fun v -> if v = u then Decoder_uf.boundary else v) ]
      >>= fun v ->
      map2 (fun w l -> (u, v, w, l)) (int_range 1 wmax) bool
    in
    list_size (int_range nodes (3 * nodes)) edge >>= fun edges ->
    list_size (int_bound nparallel) (oneofl edges)
    >>= fun parallel ->
    float_range 0. 0.5 >>= fun density ->
    array_size (return nodes) (float_bound_exclusive 1. >|= fun x -> x < density)
    >|= fun syndrome -> { nodes; edges = edges @ parallel; syndrome })

(* Up to 40 nodes, weights 1..12, up to four parallel edges. *)
let gen_case = gen_graph ~max_nodes:40 ~wmax:12 ~nparallel:4

(* Weights 1..3 and many parallel edges: equal-time fulls across several
   clusters, and rate-2 edges fulling at their second visit, are common. *)
let gen_ties = gen_graph ~max_nodes:30 ~wmax:3 ~nparallel:12

let print_case c =
  Printf.sprintf "nodes=%d edges=[%s] syndrome=[%s]" c.nodes
    (String.concat "; "
       (List.map (fun (u, v, w, l) -> Printf.sprintf "%d-%d w%d%s" u v w (if l then " L" else "")) c.edges))
    (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") c.syndrome)))

let arb_case = QCheck.make ~print:print_case gen_case
let arb_ties = QCheck.make ~print:print_case gen_ties

let syndrome_of c =
  let s = Bitvec.create c.nodes in
  Array.iteri (fun i b -> if b then Bitvec.set s i true) c.syndrome;
  s

let outcome f = match f () with v -> Ok v | exception Failure msg -> Error msg

let matches_oracle c =
  let g = Decoder_uf.weighted_graph ~nodes:c.nodes ~edges:c.edges in
  let o = Uf_rounds.create ~nodes:c.nodes (Array.of_list c.edges) in
  let s = syndrome_of c in
  let want = outcome (fun () -> Uf_rounds.decode_correction o s) in
  outcome (fun () -> Decoder_uf.decode g s) = Result.map fst want
  && outcome (fun () -> Decoder_uf.decode_correction g s) = Result.map snd want

let prop_matches_oracle =
  QCheck.Test.make ~name:"decode, decode_correction = oracle" ~count:2000 arb_case
    matches_oracle

let prop_ties_match_oracle =
  QCheck.Test.make ~name:"tie-heavy decode, decode_correction = oracle" ~count:2000
    arb_ties matches_oracle

(* Every edge of a complete graph fulls in round 1 when every node is a
   defect: far more fulls in one round than the graph has nodes. *)
let test_dense_round () =
  let nodes = 12 in
  let edges =
    List.concat
      (List.init nodes (fun u ->
           (u, Decoder_uf.boundary, 1, u = 0)
           :: List.init (nodes - 1 - u) (fun i -> (u, u + 1 + i, 1, i mod 3 = 0))))
  in
  List.iter
    (fun density ->
      let c =
        { nodes; edges; syndrome = Array.init nodes (fun i -> i mod density = 0) }
      in
      Alcotest.(check bool) (Printf.sprintf "every %d-th node a defect" density)
        true (matches_oracle c))
    [ 1; 2; 3 ]

(* Whether some boundary-free connected component holds an odd number of
   defects, which no correction can pair up. *)
let undecodable c =
  let comp = Array.init (c.nodes + 1) (fun v -> v) in
  let rec find v = if comp.(v) = v then v else find comp.(v) in
  List.iter
    (fun (u, v, _, _) ->
      let v = if v = Decoder_uf.boundary then c.nodes else v in
      comp.(find u) <- find v)
    c.edges;
  let odd = Array.make (c.nodes + 1) false in
  Array.iteri (fun i b -> if b then odd.(find i) <- not odd.(find i)) c.syndrome;
  let bad = ref false in
  Array.iteri (fun r o -> if o && r <> find c.nodes then bad := true) odd;
  !bad

(* The correction's edge endpoints, XORed with the boundary dropped,
   reproduce the syndrome. *)
let reproduces c corr =
  let edges = Array.of_list c.edges in
  let flipped = Array.make c.nodes false in
  let toggle v = if v <> Decoder_uf.boundary then flipped.(v) <- not flipped.(v) in
  List.iter (fun eid -> let u, v, _, _ = edges.(eid) in toggle u; toggle v) corr;
  flipped = c.syndrome

(* Oracle-free: the correction reproduces the syndrome, and the decoder
   fails exactly when no correction exists. *)
let prop_correction_valid =
  QCheck.Test.make ~name:"correction reproduces the syndrome" ~count:2000 arb_case
    (fun c ->
      let g = Decoder_uf.weighted_graph ~nodes:c.nodes ~edges:c.edges in
      match Decoder_uf.decode_correction g (syndrome_of c) with
      | exception Failure _ -> undecodable c
      | corr -> (not (undecodable c)) && reproduces c corr)

(* At most 12 defects: the syndrome keeps only its first 12 set bits. *)
let arb_small =
  let cap c =
    let seen = ref 0 in
    let syndrome =
      Array.map (fun b -> if b then incr seen; b && !seen <= 12) c.syndrome
    in
    { c with syndrome }
  in
  QCheck.make ~print:print_case (QCheck.Gen.map cap (gen_graph ~max_nodes:24 ~wmax:12 ~nparallel:4))

(* Union-find is not a minimum-weight matcher, but its correction is a
   valid one, so its weight can never beat the exact optimum. *)
let prop_weight_vs_mwpm =
  QCheck.Test.make ~name:"correction weight >= MWPM weight" ~count:1000 arb_small
    (fun c ->
      let g = Decoder_uf.weighted_graph ~nodes:c.nodes ~edges:c.edges in
      let best = Mwpm.weight ~nodes:c.nodes c.edges c.syndrome in
      match (Decoder_uf.decode_correction g (syndrome_of c), best) with
      | exception Failure _ -> best = None
      | _, None -> false
      | corr, Some w ->
          let edges = Array.of_list c.edges in
          let total = List.fold_left (fun acc eid -> let _, _, x, _ = edges.(eid) in acc + x) 0 corr in
          reproduces c corr && total >= w)

(* The oracle itself: on a path 0 - 1 - 2 - boundary with weights 1, 5, 1,
   defects {0, 2} pair through the boundary-free path (weight 6) only if
   that beats 0's and 2's boundary distances (7 and 1): 6 < 8. *)
let test_mwpm_path () =
  let edges = [ (0, 1, 1, false); (1, 2, 5, false); (2, Decoder_uf.boundary, 1, true) ] in
  Alcotest.(check (option int)) "pair" (Some 6) (Mwpm.weight ~nodes:3 edges [| true; false; true |]);
  Alcotest.(check (option int)) "single" (Some 7) (Mwpm.weight ~nodes:3 edges [| true; false; false |]);
  Alcotest.(check (option int)) "none" (Some 0) (Mwpm.weight ~nodes:3 edges [| false; false; false |]);
  Alcotest.(check (option int)) "unpairable" None
    (Mwpm.weight ~nodes:4 edges [| false; false; false; true |])

(* Union-find against exact matching on the same weighted graph, at the
   paper's noise (Surface_circuit.default: Tcd = Tca = 100 us, 1% CX):
   over the shots with at most 14 defects (the matcher's limit), UF may
   fail at most 15% more of them.  Returns the shots counted and both
   failure counts. *)
let uf_vs_exact ~distance ~nshots =
  let exp = Surface_circuit.build (Surface_circuit.default ~distance) in
  let g = exp.Surface_circuit.graph in
  let nodes = Decoder_uf.num_nodes g and edges = Array.to_list (Decoder_uf.edge_list g) in
  let b = Dem_sampler.sample exp.Surface_circuit.sampler (Rng.create 2023) ~nshots in
  let uf = Decoder_uf.decode_batch g ~detectors:b.Frame_batch.detectors ~nshots in
  let counted = ref 0 and uf_fails = ref 0 and exact_fails = ref 0 in
  for s = 0 to nshots - 1 do
    let dets, obs = Frame_batch.shot b s in
    if Bitvec.popcount dets <= 14 then begin
      incr counted;
      let actual = Bitvec.get obs 0 in
      if Bitvec.get uf s <> actual then incr uf_fails;
      match Mwpm.decode ~nodes edges (Array.init nodes (Bitvec.get dets)) with
      | Some (_, flip) -> if flip <> actual then incr exact_fails
      | None -> Alcotest.failf "d=%d shot %d: exact matching found no pairing" distance s
    end
  done;
  (!counted, !uf_fails, !exact_fails)

let test_accuracy_vs_exact distance nshots () =
  let counted, uf, exact = uf_vs_exact ~distance ~nshots in
  let msg = Printf.sprintf "d=%d: %d shots counted, UF fails %d, exact %d" distance counted uf exact in
  Alcotest.(check bool) (msg ^ ": enough failures to compare") true (exact >= 50);
  Alcotest.(check bool) (msg ^ ": UF within 15% of exact") true (100 * uf <= 115 * exact)

(* ----------------------------------------------------- surface batches --- *)

let check_surface_batch msg p ~nshots =
  let exp = Surface_circuit.build p in
  let g = exp.Surface_circuit.graph in
  let o = Uf_rounds.create ~nodes:(Decoder_uf.num_nodes g) (Decoder_uf.edge_list g) in
  let b = Dem_sampler.sample exp.Surface_circuit.sampler (Rng.create 2023) ~nshots in
  let batch = Decoder_uf.decode_batch g ~detectors:b.Frame_batch.detectors ~nshots in
  let mismatches = ref 0 in
  for s = 0 to nshots - 1 do
    let dets, _ = Frame_batch.shot b s in
    let flip, corr = Uf_rounds.decode_correction o dets in
    if Bitvec.get batch s <> flip then incr mismatches;
    if s < 64 then
      Alcotest.(check (list int))
        (Printf.sprintf "%s shot %d correction" msg s)
        corr
        (Decoder_uf.decode_correction g dets)
  done;
  Alcotest.(check int) (msg ^ ": batch rows = oracle") 0 !mismatches

let test_surface_matches_oracle distance () =
  check_surface_batch (Printf.sprintf "d=%d" distance)
    { (Surface_circuit.default ~distance) with t_data = 5e-4 }
    ~nshots:512

(* The Fig 6 alpha = 1 point: d = 13, both coherence times 100 us. *)
let test_fig6_point_matches_oracle () =
  check_surface_batch "fig6 d=13"
    { (Surface_circuit.default ~distance:13) with t_data = 1e-4; t_anc = 1e-4 }
    ~nshots:256

(* The decoder's work counters at the Fig 6 alpha = 1 point, 512 shots of
   [Rng.create 2023], pinned exactly: they are deterministic, so a change
   that moves one shows here without timing noise.  The counts of the
   decoder this one replaced, by the same definitions, were 120440
   activations, 1316294 slot scans, 297067 queue entries, 127026 + 8756
   dead pops (the second count: cursor pops at a round their restart had
   moved) and 80413 merges. *)
let test_fig6_work_counts () =
  let exp =
    Surface_circuit.build
      { (Surface_circuit.default ~distance:13) with t_data = 1e-4; t_anc = 1e-4 }
  in
  let nshots = 512 in
  let b = Dem_sampler.sample exp.Surface_circuit.sampler (Rng.create 2023) ~nshots in
  let names =
    [ "decode_shots"; "activations"; "slot_scans"; "queue_entries"; "dead_pops"; "merges" ]
  in
  let values () =
    List.map (fun n -> Obs.Counter.value (Obs.Counter.create ("qec.uf_" ^ n ^ "_total"))) names
  in
  let before = values () in
  Decoder_uf.decode_batch_into exp.Surface_circuit.graph ~detectors:b.Frame_batch.detectors
    ~nshots ~out:(Bitvec.create nshots);
  Alcotest.(check (list (pair string int)))
    "work counts"
    (List.combine names [ 512; 120440; 946911; 284058; 36270; 80413 ])
    (List.combine names (List.map2 ( - ) (values ()) before))

(* --------------------------------------------------- non-convergence --- *)

let syn n bits =
  let s = Bitvec.create n in
  List.iter (fun i -> Bitvec.set s i true) bits;
  s

let test_degree0_defect_fails () =
  (* node 2 has no edges: a defect there can never be paired *)
  let g =
    Decoder_uf.weighted_graph ~nodes:3
      ~edges:[ (0, 1, 2, false); (1, Decoder_uf.boundary, 3, true) ]
  in
  let syn = syn 3 in
  Alcotest.(check bool) "warm-up decode" true (Decoder_uf.decode g (syn [ 0 ]));
  let arenas = Obs.Counter.create "qec.uf_arenas_total" in
  let before = Obs.Counter.value arenas in
  Alcotest.check_raises "degree-0 defect"
    (Failure "Decoder_uf: growth failed to converge")
    (fun () -> ignore (Decoder_uf.decode g (syn [ 0; 2 ])));
  (* the failed arena is dropped, so the next decode builds a fresh one *)
  Alcotest.(check bool) "decode after failure" true (Decoder_uf.decode g (syn [ 0 ]));
  Alcotest.(check int) "failed arena not pooled" (before + 1) (Obs.Counter.value arenas);
  Alcotest.(check bool) "pair after failure" false (Decoder_uf.decode g (syn [ 0; 1 ]));
  Alcotest.(check (list int)) "correction after failure" [ 1 ]
    (Decoder_uf.decode_correction g (syn [ 1 ]))

(* A syndrome must have one bit per node: a longer one used to drop its
   defects past the last node, decoding {1, 4} on two nodes as {1}. *)
let test_missized_syndrome () =
  let g = Decoder_uf.graph ~nodes:2 ~edges:[ (0, 1, false); (1, Decoder_uf.boundary, true) ] in
  List.iter
    (fun (what, s) ->
      Alcotest.check_raises (what ^ " decode")
        (Invalid_argument "Decoder_uf.decode: syndrome length mismatch")
        (fun () -> ignore (Decoder_uf.decode g s));
      Alcotest.check_raises (what ^ " decode_correction")
        (Invalid_argument "Decoder_uf.decode: syndrome length mismatch")
        (fun () -> ignore (Decoder_uf.decode_correction g s)))
    [ ("longer", syn 5 [ 1; 4 ]); ("shorter", syn 1 [ 0 ]) ];
  Alcotest.(check bool) "right length" true (Decoder_uf.decode g (syn 2 [ 1 ]))

let () =
  Alcotest.run "decoder_uf"
    [ ( "oracle",
        [ QCheck_alcotest.to_alcotest prop_matches_oracle;
          QCheck_alcotest.to_alcotest prop_ties_match_oracle;
          Alcotest.test_case "dense round" `Quick test_dense_round;
          Alcotest.test_case "d=3 surface batch" `Quick (test_surface_matches_oracle 3);
          Alcotest.test_case "d=5 surface batch" `Quick (test_surface_matches_oracle 5);
          Alcotest.test_case "d=7 surface batch" `Quick (test_surface_matches_oracle 7);
          Alcotest.test_case "d=9 surface batch" `Quick (test_surface_matches_oracle 9);
          Alcotest.test_case "fig6 d=13 point" `Quick test_fig6_point_matches_oracle;
          Alcotest.test_case "fig6 d=13 work counts" `Quick test_fig6_work_counts ] );
      ( "validity",
        [ QCheck_alcotest.to_alcotest prop_correction_valid;
          Alcotest.test_case "degree-0 defect fails" `Quick test_degree0_defect_fails;
          Alcotest.test_case "mis-sized syndrome" `Quick test_missized_syndrome ] );
      ( "mwpm",
        [ Alcotest.test_case "path oracle" `Quick test_mwpm_path;
          QCheck_alcotest.to_alcotest prop_weight_vs_mwpm;
          Alcotest.test_case "d=3 accuracy vs exact" `Quick (test_accuracy_vs_exact 3 20000);
          Alcotest.test_case "d=5 accuracy vs exact" `Quick (test_accuracy_vs_exact 5 6000) ] ) ]
