(* Union-find decoder: differential checks against the half-edge-list
   oracle ([Uf_oracle]) on random weighted graphs and on surface-code
   batches, an oracle-free validity property of the correction, and the
   non-convergence error. *)

(* ------------------------------------------------------- random graphs --- *)

type case = {
  nodes : int;
  edges : (int * int * int * bool) list;
  syndrome : bool array;
}

(* Up to 40 nodes with 1 to 3 edges per node, weights 1..12, a quarter of
   the edges to the boundary and up to four edges duplicated (parallel
   edges).  Random endpoints leave some nodes at degree 0, so about one
   case in six has a defect that no correction can pair. *)
let gen_case =
  QCheck.Gen.(
    int_range 1 40 >>= fun nodes ->
    let edge =
      int_bound (nodes - 1) >>= fun u ->
      frequency
        [ (1, return Decoder_uf.boundary);
          (3, int_bound (nodes - 1) >|= fun v -> if v = u then Decoder_uf.boundary else v) ]
      >>= fun v ->
      map2 (fun w l -> (u, v, w, l)) (int_range 1 12) bool
    in
    list_size (int_range nodes (3 * nodes)) edge >>= fun edges ->
    list_size (int_bound 4) (oneofl edges)
    >>= fun parallel ->
    float_range 0. 0.5 >>= fun density ->
    array_size (return nodes) (float_bound_exclusive 1. >|= fun x -> x < density)
    >|= fun syndrome -> { nodes; edges = edges @ parallel; syndrome })

let print_case c =
  Printf.sprintf "nodes=%d edges=[%s] syndrome=[%s]" c.nodes
    (String.concat "; "
       (List.map (fun (u, v, w, l) -> Printf.sprintf "%d-%d w%d%s" u v w (if l then " L" else "")) c.edges))
    (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") c.syndrome)))

let arb_case = QCheck.make ~print:print_case gen_case

let syndrome_of c =
  let s = Bitvec.create c.nodes in
  Array.iteri (fun i b -> if b then Bitvec.set s i true) c.syndrome;
  s

let outcome f = match f () with v -> Ok v | exception Failure msg -> Error msg

let prop_matches_oracle =
  QCheck.Test.make ~name:"decode, decode_correction = oracle" ~count:2000 arb_case
    (fun c ->
      let g = Decoder_uf.weighted_graph ~nodes:c.nodes ~edges:c.edges in
      let o = Uf_oracle.create ~nodes:c.nodes (Array.of_list c.edges) in
      let s = syndrome_of c in
      let want = outcome (fun () -> Uf_oracle.decode_correction o s) in
      outcome (fun () -> Decoder_uf.decode g s) = Result.map fst want
      && outcome (fun () -> Decoder_uf.decode_correction g s) = Result.map snd want)

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

(* Oracle-free: the correction's edge endpoints, XORed with the boundary
   dropped, reproduce the syndrome; the decoder fails exactly when no
   correction exists. *)
let prop_correction_valid =
  QCheck.Test.make ~name:"correction reproduces the syndrome" ~count:2000 arb_case
    (fun c ->
      let g = Decoder_uf.weighted_graph ~nodes:c.nodes ~edges:c.edges in
      match Decoder_uf.decode_correction g (syndrome_of c) with
      | exception Failure _ -> undecodable c
      | corr ->
          let edges = Decoder_uf.edge_list g in
          let flipped = Array.make c.nodes false in
          let toggle v = if v <> Decoder_uf.boundary then flipped.(v) <- not flipped.(v) in
          List.iter (fun eid -> let u, v, _, _ = edges.(eid) in toggle u; toggle v) corr;
          (not (undecodable c)) && flipped = c.syndrome)

(* ----------------------------------------------------- surface batches --- *)

let check_surface_batch msg p ~nshots =
  let exp = Surface_circuit.build p in
  let g = exp.Surface_circuit.graph in
  let o = Uf_oracle.create ~nodes:(Decoder_uf.num_nodes g) (Decoder_uf.edge_list g) in
  let b = Dem_sampler.sample exp.Surface_circuit.sampler (Rng.create 2023) ~nshots in
  let batch = Decoder_uf.decode_batch g ~detectors:b.Frame_batch.detectors ~nshots in
  let mismatches = ref 0 in
  for s = 0 to nshots - 1 do
    let dets, _ = Frame_batch.shot b s in
    if Bitvec.get batch s <> Uf_oracle.decode o dets then incr mismatches;
    if s < 64 then
      Alcotest.(check (list int))
        (Printf.sprintf "%s shot %d correction" msg s)
        (snd (Uf_oracle.decode_correction o dets))
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

(* --------------------------------------------------- non-convergence --- *)

let test_degree0_defect_fails () =
  (* node 2 has no edges: a defect there can never be paired *)
  let g =
    Decoder_uf.weighted_graph ~nodes:3
      ~edges:[ (0, 1, 2, false); (1, Decoder_uf.boundary, 3, true) ]
  in
  let syn bits =
    let s = Bitvec.create 3 in
    List.iter (fun i -> Bitvec.set s i true) bits;
    s
  in
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

let () =
  Alcotest.run "decoder_uf"
    [ ( "oracle",
        [ QCheck_alcotest.to_alcotest prop_matches_oracle;
          Alcotest.test_case "d=3 surface batch" `Quick (test_surface_matches_oracle 3);
          Alcotest.test_case "d=5 surface batch" `Quick (test_surface_matches_oracle 5);
          Alcotest.test_case "d=7 surface batch" `Quick (test_surface_matches_oracle 7);
          Alcotest.test_case "d=9 surface batch" `Quick (test_surface_matches_oracle 9);
          Alcotest.test_case "fig6 d=13 point" `Quick test_fig6_point_matches_oracle ] );
      ( "validity",
        [ QCheck_alcotest.to_alcotest prop_correction_valid;
          Alcotest.test_case "degree-0 defect fails" `Quick test_degree0_defect_fails ] ) ]
