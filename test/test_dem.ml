(* Tests for detector-error-model extraction: mechanism signatures must match
   both hand-derived propagation and the frame sampler's statistics. *)

let find_mechanism mechanisms ~detectors ~obs =
  List.find_opt
    (fun m ->
      m.Dem.detectors = Array.of_list detectors && m.Dem.obs_mask = obs)
    mechanisms

let test_single_qubit_x_before_measure () =
  let b = Circuit.builder 1 in
  Circuit.add b (Circuit.Noise1 { px = 0.1; py = 0.; pz = 0.; q = 0 });
  let m = Circuit.measure b 0 in
  Circuit.add_detector b [ m ];
  Circuit.add_observable b [ m ];
  let c = Circuit.finish b in
  let dem = Dem.of_circuit c in
  Alcotest.(check int) "one mechanism" 1 (List.length dem);
  match dem with
  | [ m ] ->
      Alcotest.(check (float 1e-12)) "probability" 0.1 m.Dem.p;
      Alcotest.(check (array int)) "flips detector 0" [| 0 |] m.Dem.detectors;
      Alcotest.(check int) "flips observable" 1 m.Dem.obs_mask
  | _ -> Alcotest.fail "unexpected DEM"

let test_z_noise_invisible () =
  let b = Circuit.builder 1 in
  Circuit.add b (Circuit.Noise1 { px = 0.; py = 0.; pz = 0.3; q = 0 });
  let m = Circuit.measure b 0 in
  Circuit.add_detector b [ m ];
  let c = Circuit.finish b in
  Alcotest.(check int) "no visible mechanism" 0 (List.length (Dem.of_circuit c))

let test_h_conjugation () =
  (* Z before H acts as X at the measurement. *)
  let b = Circuit.builder 1 in
  Circuit.add b (Circuit.Noise1 { px = 0.; py = 0.; pz = 0.2; q = 0 });
  Circuit.add b (Circuit.H 0);
  let m = Circuit.measure b 0 in
  Circuit.add_detector b [ m ];
  let c = Circuit.finish b in
  let dem = Dem.of_circuit c in
  Alcotest.(check int) "one mechanism" 1 (List.length dem);
  Alcotest.(check bool) "flips the detector" true
    (find_mechanism dem ~detectors:[ 0 ] ~obs:0 <> None)

let test_cx_propagation () =
  (* X on the control before CX flips both final measurements. *)
  let b = Circuit.builder 2 in
  Circuit.add b (Circuit.Noise1 { px = 0.05; py = 0.; pz = 0.; q = 0 });
  Circuit.add b (Circuit.CX (0, 1));
  let m0 = Circuit.measure b 0 in
  let m1 = Circuit.measure b 1 in
  Circuit.add_detector b [ m0 ];
  Circuit.add_detector b [ m1 ];
  let c = Circuit.finish b in
  let dem = Dem.of_circuit c in
  Alcotest.(check bool) "double detector signature" true
    (find_mechanism dem ~detectors:[ 0; 1 ] ~obs:0 <> None)

let test_reset_erases () =
  let b = Circuit.builder 1 in
  Circuit.add b (Circuit.Noise1 { px = 0.4; py = 0.; pz = 0.; q = 0 });
  Circuit.add b (Circuit.R 0);
  let m = Circuit.measure b 0 in
  Circuit.add_detector b [ m ];
  let c = Circuit.finish b in
  Alcotest.(check int) "reset erases the error" 0 (List.length (Dem.of_circuit c))

let test_merging_probabilities () =
  (* Two independent X sources on the same qubit merge into one mechanism
     with XOR-combined probability. *)
  let b = Circuit.builder 1 in
  Circuit.add b (Circuit.Noise1 { px = 0.1; py = 0.; pz = 0.; q = 0 });
  Circuit.add b (Circuit.Noise1 { px = 0.2; py = 0.; pz = 0.; q = 0 });
  let m = Circuit.measure b 0 in
  Circuit.add_detector b [ m ];
  let c = Circuit.finish b in
  let dem = Dem.of_circuit c in
  Alcotest.(check int) "merged" 1 (List.length dem);
  match dem with
  | [ m ] ->
      Alcotest.(check (float 1e-12)) "p1(1-p2)+p2(1-p1)"
        ((0.1 *. (1. -. 0.2)) +. (0.2 *. (1. -. 0.1)))
        m.Dem.p
  | _ -> Alcotest.fail "unexpected"

let test_depol2_components () =
  let b = Circuit.builder 2 in
  Circuit.add b (Circuit.Depol2 { p = 0.15; a = 0; b = 1 });
  let m0 = Circuit.measure b 0 in
  let m1 = Circuit.measure b 1 in
  Circuit.add_detector b [ m0 ];
  Circuit.add_detector b [ m1 ];
  let c = Circuit.finish b in
  let dem = Dem.of_circuit c in
  (* Visible signatures: {d0}, {d1}, {d0,d1} — X/Y components on either or
     both qubits; Z-only components are invisible. *)
  Alcotest.(check int) "three signatures" 3 (List.length dem);
  (* each signature collects 4 of the 15 components — e.g. {d0} gets
     (X|Y on 0) x (I|Z on 1) — XOR-combined, not summed *)
  let xor_combine p q = (p *. (1. -. q)) +. (q *. (1. -. p)) in
  let expected =
    let comp = 0.15 /. 15. in
    List.fold_left xor_combine 0. [ comp; comp; comp; comp ]
  in
  List.iter
    (fun m -> Alcotest.(check (float 1e-9)) "4 components combined" expected m.Dem.p)
    dem

let test_dem_matches_frame_statistics () =
  (* Detector marginals predicted by the DEM must match frame sampling on a
     small noisy circuit (single-detector mechanisms only). *)
  let b = Circuit.builder 2 in
  Circuit.add b (Circuit.Noise1 { px = 0.08; py = 0.; pz = 0.; q = 0 });
  Circuit.add b (Circuit.CX (0, 1));
  Circuit.add b (Circuit.Noise1 { px = 0.12; py = 0.; pz = 0.; q = 1 });
  let m0 = Circuit.measure b 0 in
  let m1 = Circuit.measure b 1 in
  Circuit.add_detector b [ m0 ];
  Circuit.add_detector b [ m1 ];
  let c = Circuit.finish b in
  let dem = Dem.of_circuit c in
  (* detector 1 fires when: X(q0) (propagates to both) xor X(q1).
     P(d1) = p0(1-p1) + p1(1-p0) *)
  let p_d1_pred = (0.08 *. 0.88) +. (0.12 *. 0.92) in
  let rng = Rng.create 9 in
  let shots = 40_000 in
  let fires = ref 0 in
  for _ = 1 to shots do
    let s = Frame.sample_shot c rng in
    if Bitvec.get s.Frame.detectors 1 then incr fires
  done;
  let measured = float_of_int !fires /. float_of_int shots in
  Alcotest.(check bool)
    (Printf.sprintf "frame %.4f vs dem-predicted %.4f" measured p_d1_pred)
    true
    (Float.abs (measured -. p_d1_pred) < 0.01);
  Alcotest.(check bool) "graphlike" true (Dem.check_graphlike dem)

let test_surface_code_dem_mostly_graphlike () =
  let dem =
    Dem.of_circuit (Surface_circuit.circuit (Surface_circuit.default ~distance:3))
  in
  let bad = Dem_graph.non_graphlike_count dem in
  let total = List.length dem in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d mechanisms non-graphlike" bad total)
    true
    (float_of_int bad < 0.12 *. float_of_int total)

let test_surface_code_dem_probabilities_positive () =
  let dem =
    Dem.of_circuit (Surface_circuit.circuit (Surface_circuit.default ~distance:3))
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "p in (0, 0.5]" true (m.Dem.p > 0. && m.Dem.p <= 0.5))
    dem

(* --------------------------------------------- differential vs. oracle --- *)

(* The string-keyed single-pass compiler the structure/weight split
   replaced, kept only as an oracle: every component is merged into a
   hashtable keyed on its rendered signature as the walk reaches it. *)
let oracle_of_circuit (c : Circuit.t) =
  let ndet = Array.length c.Circuit.detectors in
  let nobs = Array.length c.Circuit.observables in
  let width = ndet + nobs in
  if width = 0 then []
  else begin
    let meas_sig = Array.init (max 1 c.Circuit.nmeas) (fun _ -> Bitvec.create width) in
    Array.iteri
      (fun di meas -> Array.iter (fun m -> Bitvec.flip meas_sig.(m) di) meas)
      c.Circuit.detectors;
    Array.iteri
      (fun oi meas -> Array.iter (fun m -> Bitvec.flip meas_sig.(m) (ndet + oi)) meas)
      c.Circuit.observables;
    let n = c.Circuit.nqubits in
    let sens_x = Array.init n (fun _ -> Bitvec.create width) in
    let sens_z = Array.init n (fun _ -> Bitvec.create width) in
    let table : (string, float ref) Hashtbl.t = Hashtbl.create 1024 in
    let sigs : (string, int list * int) Hashtbl.t = Hashtbl.create 1024 in
    let record p sig_bits =
      if p > 0. && not (Bitvec.is_zero sig_bits) then begin
        let dets = ref [] and obs = ref 0 in
        Bitvec.iter_set sig_bits (fun i ->
            if i < ndet then dets := i :: !dets else obs := !obs lor (1 lsl (i - ndet)));
        let dets = List.rev !dets in
        let key =
          String.concat "," (List.map string_of_int dets) ^ "|" ^ string_of_int !obs
        in
        match Hashtbl.find_opt table key with
        | Some r -> r := (!r *. (1. -. p)) +. (p *. (1. -. !r))
        | None ->
            Hashtbl.add table key (ref p);
            Hashtbl.add sigs key (dets, !obs)
      end
    in
    let xor_of a b =
      let v = Bitvec.copy a in
      Bitvec.xor_into ~dst:v b;
      v
    in
    let mi = ref c.Circuit.nmeas in
    for i = Array.length c.Circuit.ops - 1 downto 0 do
      match c.Circuit.ops.(i) with
      | Circuit.H q ->
          let t = sens_x.(q) in
          sens_x.(q) <- sens_z.(q);
          sens_z.(q) <- t
      | Circuit.S q -> Bitvec.xor_into ~dst:sens_x.(q) sens_z.(q)
      | Circuit.X _ | Circuit.Y _ | Circuit.Z _ -> ()
      | Circuit.CX (a, b) ->
          Bitvec.xor_into ~dst:sens_x.(a) sens_x.(b);
          Bitvec.xor_into ~dst:sens_z.(b) sens_z.(a)
      | Circuit.CZ (a, b) ->
          Bitvec.xor_into ~dst:sens_x.(a) sens_z.(b);
          Bitvec.xor_into ~dst:sens_x.(b) sens_z.(a)
      | Circuit.SWAP (a, b) ->
          let tx = sens_x.(a) and tz = sens_z.(a) in
          sens_x.(a) <- sens_x.(b);
          sens_z.(a) <- sens_z.(b);
          sens_x.(b) <- tx;
          sens_z.(b) <- tz
      | Circuit.M q ->
          decr mi;
          Bitvec.xor_into ~dst:sens_x.(q) meas_sig.(!mi)
      | Circuit.R q ->
          Bitvec.clear sens_x.(q);
          Bitvec.clear sens_z.(q)
      | Circuit.Noise1 { px; py; pz; q } ->
          record px sens_x.(q);
          record pz sens_z.(q);
          record py (xor_of sens_x.(q) sens_z.(q))
      | Circuit.Depol2 { p; a; b } ->
          let comp = p /. 15. in
          let sigs1 q =
            [| None; Some sens_x.(q); Some (xor_of sens_x.(q) sens_z.(q)); Some sens_z.(q) |]
          in
          let sa = sigs1 a and sb = sigs1 b in
          for pa = 0 to 3 do
            for pb = 0 to 3 do
              if pa <> 0 || pb <> 0 then
                record comp
                  (match (sa.(pa), sb.(pb)) with
                  | None, None -> assert false
                  | Some x, None -> Bitvec.copy x
                  | None, Some y -> Bitvec.copy y
                  | Some x, Some y -> xor_of x y)
            done
          done
    done;
    assert (!mi = 0);
    Hashtbl.fold
      (fun key pref acc ->
        let dets, obs_mask = Hashtbl.find sigs key in
        { Dem.p = !pref; detectors = Array.of_list dets; obs_mask } :: acc)
      table []
  end

(* Order-free, bit-exact view of a mechanism list. *)
let canonical mechanisms =
  List.sort compare
    (List.map
       (fun m ->
         (Array.to_list m.Dem.detectors, m.Dem.obs_mask, Int64.bits_of_float m.Dem.p))
       mechanisms)

let same_as_oracle c = canonical (Dem.of_circuit c) = canonical (oracle_of_circuit c)

let check_oracle msg c =
  Alcotest.(check bool) (msg ^ ": bit-identical to the oracle") true (same_as_oracle c)

(* Random small noisy Clifford circuits: H, S, CX, CZ, SWAP, M, R, Noise1
   and Depol2 over 2-5 qubits, a quarter of the noise components zero, and
   detectors/observables drawn from the measurements. *)
let gen_circuit =
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    let qubit = int_bound (n - 1) in
    let pair =
      qubit >>= fun a ->
      int_bound (n - 2) >|= fun k -> (a, if k >= a then k + 1 else k)
    in
    let prob = frequency [ (1, return 0.); (3, float_range 1e-4 0.2) ] in
    let op =
      frequency
        [ (2, qubit >|= fun q -> Circuit.H q);
          (1, qubit >|= fun q -> Circuit.S q);
          (2, pair >|= fun (a, b) -> Circuit.CX (a, b));
          (1, pair >|= fun (a, b) -> Circuit.CZ (a, b));
          (1, pair >|= fun (a, b) -> Circuit.SWAP (a, b));
          (2, qubit >|= fun q -> Circuit.M q);
          (1, qubit >|= fun q -> Circuit.R q);
          ( 3,
            map2
              (fun q (px, py, pz) -> Circuit.Noise1 { px; py; pz; q })
              qubit (triple prob prob prob) );
          (2, map2 (fun (a, b) p -> Circuit.Depol2 { p; a; b }) pair prob) ]
    in
    list_size (int_range 1 40) op >>= fun ops ->
    let nmeas = List.length (List.filter (function Circuit.M _ -> true | _ -> false) ops) in
    let groups k =
      if nmeas = 0 then return []
      else list_size (int_range 0 k) (list_size (int_range 1 3) (int_bound (nmeas - 1)))
    in
    map2
      (fun detectors observables ->
        let b = Circuit.builder n in
        List.iter (Circuit.add b) ops;
        List.iter (Circuit.add_detector b) detectors;
        List.iter (Circuit.add_observable b) observables;
        Circuit.finish b)
      (groups 6) (groups 2))

let print_circuit (c : Circuit.t) =
  let op = function
    | Circuit.H q -> Printf.sprintf "H%d" q
    | Circuit.S q -> Printf.sprintf "S%d" q
    | Circuit.X q -> Printf.sprintf "X%d" q
    | Circuit.Y q -> Printf.sprintf "Y%d" q
    | Circuit.Z q -> Printf.sprintf "Z%d" q
    | Circuit.CX (a, b) -> Printf.sprintf "CX%d,%d" a b
    | Circuit.CZ (a, b) -> Printf.sprintf "CZ%d,%d" a b
    | Circuit.SWAP (a, b) -> Printf.sprintf "SWAP%d,%d" a b
    | Circuit.M q -> Printf.sprintf "M%d" q
    | Circuit.R q -> Printf.sprintf "R%d" q
    | Circuit.Noise1 { px; py; pz; q } -> Printf.sprintf "N%d(%g,%g,%g)" q px py pz
    | Circuit.Depol2 { p; a; b } -> Printf.sprintf "D%d,%d(%g)" a b p
  in
  let groups g =
    String.concat " "
      (Array.to_list
         (Array.map (fun ms -> String.concat "," (Array.to_list (Array.map string_of_int ms))) g))
  in
  Printf.sprintf "q=%d ops=[%s] dets=[%s] obs=[%s]" c.Circuit.nqubits
    (String.concat " " (Array.to_list (Array.map op c.Circuit.ops)))
    (groups c.Circuit.detectors) (groups c.Circuit.observables)

let prop_matches_oracle =
  QCheck.Test.make ~name:"of_circuit = string-keyed oracle (bit-exact p)" ~count:500
    (QCheck.make ~print:print_circuit gen_circuit)
    same_as_oracle

let surface ~distance ~sigma seed =
  Surface_circuit.circuit ~variability:(sigma, Rng.create seed)
    (Surface_circuit.default ~distance)

let test_reweight_matches_oracle () =
  (* Same d=5 shape, new coherences: the reused structure reweights. *)
  let sigmas = [ 0.; 0.3; 0.6; 1.0; 0.3 ] in
  List.iteri
    (fun i sigma -> check_oracle (Printf.sprintf "d=5 sigma=%g" sigma) (surface ~distance:5 ~sigma i))
    sigmas;
  (* The same through the explicit passes, with no slot involved. *)
  let s = Dem.structure (surface ~distance:5 ~sigma:0.2 9) in
  List.iteri
    (fun i sigma ->
      let c = surface ~distance:5 ~sigma i in
      Alcotest.(check bool)
        (Printf.sprintf "weigh d=5 sigma=%g = oracle" sigma)
        true
        (canonical (Dem.weigh s c) = canonical (oracle_of_circuit c)))
    sigmas;
  Alcotest.check_raises "weigh rejects another shape"
    (Invalid_argument "Dem.weigh: circuit shape differs") (fun () ->
      ignore (Dem.weigh s (surface ~distance:3 ~sigma:0. 0)))

(* ----------------------------------------- surface shapes and tables --- *)

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let same_gate (g : Circuit.gate) (h : Circuit.gate) =
  match (g, h) with
  | Circuit.Noise1 a, Circuit.Noise1 b ->
      a.q = b.q && same_bits a.px b.px && same_bits a.py b.py && same_bits a.pz b.pz
  | Circuit.Depol2 a, Circuit.Depol2 b -> a.a = b.a && a.b = b.b && same_bits a.p b.p
  | _ -> g = h

(* Op for op, probabilities by IEEE bits. *)
let same_circuit (a : Circuit.t) (b : Circuit.t) =
  a.Circuit.nqubits = b.Circuit.nqubits
  && a.Circuit.nmeas = b.Circuit.nmeas
  && Array.length a.Circuit.ops = Array.length b.Circuit.ops
  && Array.for_all2 same_gate a.Circuit.ops b.Circuit.ops
  && a.Circuit.detectors = b.Circuit.detectors
  && a.Circuit.observables = b.Circuit.observables

let same_mechanisms (a : Dem.mechanism array) (b : Dem.mechanism array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Dem.mechanism) (y : Dem.mechanism) ->
         same_bits x.Dem.p y.Dem.p && x.Dem.detectors = y.Dem.detectors
         && x.Dem.obs_mask = y.Dem.obs_mask)
       a b

(* The points the shape and table path must reproduce: every distance the
   figures use, fabrication variability, and each way a point can change
   the circuit's ops (p2 = 0, t_1q = 0) or only which of its noise is
   positive (a subnormal p2, whose p2/15 rounds to 0; an infinite data
   coherence, whose idles are all 0). *)
let surface_points =
  let d = Surface_circuit.default in
  [ ("d=3", d ~distance:3, None);
    ("d=5", d ~distance:5, None);
    ("d=7", d ~distance:7, None);
    ("d=13", d ~distance:13, None);
    ("d=5 sigma=0.4", d ~distance:5, Some (0.4, 11));
    ("d=7 sigma=1.0", d ~distance:7, Some (1.0, 12));
    ("d=5 p2=0", { (d ~distance:5) with p2 = 0. }, None);
    ("d=5 p2 subnormal", { (d ~distance:5) with p2 = 1e-323 }, None);
    ("d=5 t_1q=0", { (d ~distance:5) with t_1q = 0. }, None);
    ("d=5 t_data=inf", { (d ~distance:5) with t_data = infinity }, None);
    ("d=3 Tca x5", { (d ~distance:3) with t_anc = 5e-4 }, None) ]

let variability = Option.map (fun (sigma, seed) -> (sigma, Rng.create seed))

let build_point p v =
  match v with
  | None -> Surface_circuit.build p
  | Some (sigma, seed) -> Surface_circuit.build_varied ~sigma (Rng.create seed) p

let test_circuit_matches_oracle () =
  List.iter
    (fun (name, p, v) ->
      Alcotest.(check bool)
        (name ^ ": circuit = oracle, op for op")
        true
        (same_circuit
           (Surface_circuit.circuit ?variability:(variability v) p)
           (Surface_oracle.circuit ?variability:(variability v) p)))
    surface_points

(* The graph [weighted_graph] built before it was split into an incidence
   and a reweight, kept as the field-for-field oracle of every graph. *)
let csr_oracle ~nodes edges =
  let edges = Array.of_list edges in
  let nv = nodes + 1 and ne = Array.length edges in
  let e_u = Array.map (fun (u, _, _, _) -> u) edges in
  let e_v = Array.map (fun (_, v, _, _) -> if v = Decoder_uf.boundary then nodes else v) edges in
  let e_w = Array.map (fun (_, _, w, _) -> w) edges in
  let off = Array.make (nv + 1) 0 in
  Array.iteri
    (fun i u ->
      off.(u + 1) <- off.(u + 1) + 1;
      off.(e_v.(i) + 1) <- off.(e_v.(i) + 1) + 1)
    e_u;
  for w = 1 to nv do
    off.(w) <- off.(w) + off.(w - 1)
  done;
  let sl = Array.make (4 * ne) 0 and twin = Array.make (2 * ne) 0 in
  let fill = Array.sub off 0 nv in
  for i = 0 to ne - 1 do
    let u = e_u.(i) and v = e_v.(i) and w = e_w.(i) in
    let ku = fill.(u) and kv = fill.(v) in
    fill.(u) <- ku + 1;
    fill.(v) <- kv + 1;
    sl.(2 * ku) <- (v lsl 32) lor (2 * w);
    sl.((2 * ku) + 1) <- (u lsl 32) lor i;
    sl.(2 * kv) <- (u lsl 32) lor (2 * w);
    sl.((2 * kv) + 1) <- (v lsl 32) lor i;
    twin.(ku) <- kv;
    twin.(kv) <- ku
  done;
  let srt = Array.init (2 * ne) Fun.id in
  for w = 0 to nodes do
    for j = off.(w) + 1 to off.(w + 1) - 1 do
      let k = srt.(j) in
      let i = ref (j - 1) in
      while !i >= off.(w) && sl.(2 * srt.(!i)) land 0xFFFF_FFFF > sl.(2 * k) land 0xFFFF_FFFF do
        srt.(!i + 1) <- srt.(!i);
        decr i
      done;
      srt.(!i + 1) <- k
    done
  done;
  let kbits = ref 0 in
  while 1 lsl !kbits < 2 * ne do incr kbits done;
  let span = ref 1 in
  Array.iter (fun w -> while !span <= 2 * w do span := 2 * !span done) e_w;
  [ ("e_u", e_u); ("e_v", e_v); ("e_w", e_w);
    ("e_logical", Array.map (fun (_, _, _, l) -> Bool.to_int l) edges); ("off", off); ("sl", sl);
    ("twin", twin); ("srt", srt); ("n kbits mask", [| nodes; !kbits; !span - 1 |]) ]

let fields = Alcotest.(list (pair string (array int)))

let check_fields msg ~nodes g =
  Alcotest.check fields (msg ^ ": graph = weighted_graph oracle, field for field")
    (csr_oracle ~nodes (Array.to_list (Decoder_uf.edge_list g)))
    (Decoder_uf.arrays g)

(* A build reproduces the oracle circuit's compile: the same mechanisms
   (bits of p included), the same matching-graph edges, and a graph equal
   field for field to the one weighted_graph built. *)
let test_build_matches_oracle () =
  List.iter
    (fun (name, p, v) ->
      let exp = build_point p v in
      let c = Surface_oracle.circuit ?variability:(variability v) p in
      let want = Dem_sampler.mechanisms (Dem_sampler.compile c) in
      Alcotest.(check bool)
        (name ^ ": mechanisms = oracle compile")
        true
        (same_mechanisms want (Dem_sampler.mechanisms exp.Surface_circuit.sampler));
      let nodes = Array.length c.Circuit.detectors in
      Alcotest.(check bool)
        (name ^ ": edge list = oracle graph")
        true
        (Decoder_uf.edge_list (Dem_graph.build ~nodes (Array.to_list want))
        = Decoder_uf.edge_list exp.Surface_circuit.graph);
      check_fields name ~nodes exp.Surface_circuit.graph)
    surface_points

let counted f =
  let s0 = Obs.Counter.value Dem.structures_total
  and p0 = Obs.Counter.value Dem_graph.plans_total in
  let x = f () in
  (x, Obs.Counter.value Dem.structures_total - s0, Obs.Counter.value Dem_graph.plans_total - p0)

let test_shape_changes_recompile () =
  (* Points of one d=5 shape in turn through the memo slot.  A subnormal p2
     or an infinite data coherence keeps the shape (the same ops) but
     zeroes what some ops record, so it needs a structure of its own, and
     the base after it needs the base's again; t_1q = 0 drops ops, a new
     shape.  Each point's compile equals the oracle's. *)
  let base = Surface_circuit.default ~distance:5 in
  ignore (Surface_circuit.build (Surface_circuit.default ~distance:3));
  List.iter
    (fun (msg, p, structures) ->
      let exp, s, pl = counted (fun () -> Surface_circuit.build p) in
      let want = Dem_sampler.mechanisms (Dem_sampler.compile (Surface_oracle.circuit p)) in
      Alcotest.(check bool) (msg ^ ": mechanisms = oracle") true
        (same_mechanisms want (Dem_sampler.mechanisms exp.Surface_circuit.sampler));
      Alcotest.(check (pair int int)) (msg ^ ": structures and plans built") (structures, structures)
        (s, pl))
    [ ("base", base, 1);
      ("base again", base, 0);
      ("p2 subnormal", { base with p2 = 1e-323 }, 1);
      ("base after subnormal p2", base, 1);
      ("t_data = inf", { base with t_data = infinity }, 1);
      ("base after t_data = inf", base, 1);
      ("Tcd x3, same pattern", { base with t_data = 3e-4 }, 0);
      ("t_1q = 0", { base with t_1q = 0. }, 1);
      ("base after t_1q = 0", base, 1) ]

let test_two_domains () =
  (* Two shapes built at once from two domains share the one slot: each
     evicts the other's shape, and every build still equals the oracle. *)
  let point d seed = (Surface_circuit.default ~distance:d, (0.4, seed)) in
  let want (p, (sigma, seed)) =
    Dem_sampler.mechanisms
      (Dem_sampler.compile (Surface_oracle.circuit ~variability:(sigma, Rng.create seed) p))
  in
  let worker pt () =
    let w = want pt in
    let p, (sigma, seed) = pt in
    List.for_all
      (fun _ ->
        same_mechanisms w
          (Dem_sampler.mechanisms
             (Surface_circuit.build_varied ~sigma (Rng.create seed) p).Surface_circuit.sampler))
      (List.init 8 Fun.id)
  in
  let d3 = Domain.spawn (worker (point 3 5)) and d5 = Domain.spawn (worker (point 5 6)) in
  Alcotest.(check bool) "d=3 from its domain" true (Domain.join d3);
  Alcotest.(check bool) "d=5 from its domain" true (Domain.join d5)

(* Minor words a weight pass may allocate per mechanism: the record and
   its boxed [p] (4 + 2 words), plus a constant; the probability and
   result arrays are major-heap sized.  Measured: 5303 words for the 883
   mechanisms of d=7. *)
let reweight_words_per_mechanism = 6
let reweight_words_constant = 64

let test_one_structure_per_shape () =
  ignore (Surface_circuit.build (Surface_circuit.default ~distance:3));
  let p = Surface_circuit.default ~distance:7 in
  let (), structures, plans =
    counted (fun () ->
        List.iter
          (fun seed -> ignore (Surface_circuit.build_varied ~sigma:0.3 (Rng.create seed) p))
          [ 1; 2; 3; 4; 5 ])
  in
  Alcotest.(check (pair int int)) "five same-shape d=7 builds: one structure, one plan" (1, 1)
    (structures, plans);
  let c = Surface_circuit.circuit p in
  let s = Dem.structure c and table = Dem.circuit_table c in
  let n = Array.length (Dem.weigh_table s table) in
  let words = Alloc.words (fun () -> ignore (Dem.weigh_table s table)) in
  Alcotest.(check bool)
    (Printf.sprintf "weight pass: %d words over %d mechanisms <= %d per mechanism + %d" words n
       reweight_words_per_mechanism reweight_words_constant)
    true
    (words <= (reweight_words_per_mechanism * n) + reweight_words_constant)

(* ------------------------------------ sparse pass vs. the Bitvec pass --- *)

(* The sparse structure pass against the dense one it replaced
   ([Dem_bitvec]): the same signatures in canonical order, and the same
   contributions (op, component) in the same order, each naming the same
   signature.  Equal contributions mean equal per-op counts. *)
let same_structure_as_bitvec c =
  let s = Dem.structure c in
  let mechs = Array.of_list (Dem.weigh s c) in
  let sigs = Array.map (fun m -> (m.Dem.detectors, m.Dem.obs_mask)) mechs in
  let o = Dem_bitvec.structure c in
  let oracle_sigs = Array.map2 (fun d m -> (d, m)) o.Dem_bitvec.detectors o.Dem_bitvec.obs_masks in
  let id = Hashtbl.create 64 in
  Array.iteri (fun k sg -> Hashtbl.replace id sg k) sigs;
  List.sort compare (Array.to_list oracle_sigs) = Array.to_list sigs
  && Array.map
       (fun (op, comp, oid) -> (op, comp, Hashtbl.find id oracle_sigs.(oid)))
       o.Dem_bitvec.contributions
     = Dem.contributions s

(* [Dem.of_circuit]'s order is the one [Dem_sampler.of_mechanisms] sorts
   into: the sort leaves every mechanism where it was. *)
let canonical_order c =
  let dem = Dem.of_circuit c in
  let sorted =
    Dem_sampler.mechanisms
      (Dem_sampler.of_mechanisms
         ~ndet:(Array.length c.Circuit.detectors)
         ~nobs:(Array.length c.Circuit.observables)
         dem)
  in
  Array.length sorted = List.length dem && List.for_all2 ( == ) (Array.to_list sorted) dem

let prop_matches_bitvec =
  QCheck.Test.make ~name:"structure = Bitvec pass; of_circuit order = of_mechanisms sort"
    ~count:500
    (QCheck.make ~print:print_circuit gen_circuit)
    (fun c -> same_structure_as_bitvec c && canonical_order c)

let test_surface_matches_bitvec () =
  List.iter
    (fun (distance, sigma) ->
      let c = surface ~distance ~sigma distance in
      let msg = Printf.sprintf "d=%d sigma=%g" distance sigma in
      Alcotest.(check bool) (msg ^ ": structure = Bitvec pass") true (same_structure_as_bitvec c);
      Alcotest.(check bool) (msg ^ ": canonical order") true (canonical_order c))
    [ (3, 0.); (5, 0.); (7, 0.); (9, 0.); (11, 0.); (13, 0.); (5, 0.3); (7, 1.0); (9, 0.6) ]

(* ------------------------------------------------------ matching graph --- *)

(* The graph construction the plan/fold split replaced, kept as an oracle:
   every link merges into a table keyed on its endpoint pair, and the edge
   list is the table's fold. *)
let table_graph ?(scale = 2.0) ?(max_weight = 40) ~nodes mechanisms =
  let table : (int * int, (float * bool * float) ref) Hashtbl.t = Hashtbl.create 256 in
  let add u v p logical =
    let key = if u <= v then (u, v) else (v, u) in
    match Hashtbl.find_opt table key with
    | Some r ->
        let total, flag, best = !r in
        let total = (total *. (1. -. p)) +. (p *. (1. -. total)) in
        let flag, best = if p > best then (logical, p) else (flag, best) in
        r := (total, flag, best)
    | None -> Hashtbl.add table key (ref (p, logical, p))
  in
  List.iter
    (fun (m : Dem.mechanism) ->
      let logical = m.Dem.obs_mask <> 0 in
      match m.Dem.detectors with
      | [||] -> ()
      | [| d |] -> add d Decoder_uf.boundary m.Dem.p logical
      | [| a; b |] -> add a b m.Dem.p logical
      | many ->
          let k = Array.length many in
          let i = ref 0 in
          while !i + 1 < k do
            add many.(!i) many.(!i + 1) m.Dem.p (logical && !i = 0);
            i := !i + 2
          done;
          if k mod 2 = 1 then add many.(k - 1) Decoder_uf.boundary m.Dem.p false)
    mechanisms;
  let weight_of p =
    if p <= 0. then max_weight
    else if p >= 0.5 then 1
    else max 1 (min max_weight (int_of_float (Float.round (scale *. log ((1. -. p) /. p)))))
  in
  Decoder_uf.edge_list
    (Decoder_uf.weighted_graph ~nodes
       ~edges:
         (Hashtbl.fold
            (fun (u, v) r acc ->
              let p, logical, _ = !r in
              let u, v = if u = Decoder_uf.boundary then (v, u) else (u, v) in
              (u, v, weight_of p, logical) :: acc)
            table []))

let edge = Alcotest.(array (pair (pair int int) (pair int bool)))
let view edges = Array.map (fun (u, v, w, l) -> ((u, v), (w, l))) edges

(* Checks a graph's edge list (order, weights, flags) against the table
   oracle, and its arrays against the weighted_graph oracle. *)
let check_graph msg ~nodes mechanisms g =
  Alcotest.check edge (msg ^ ": edge list = table oracle") (view (table_graph ~nodes mechanisms))
    (view (Decoder_uf.edge_list g));
  check_fields msg ~nodes g

let test_plan_reuse_across_reweights () =
  (* One plan of a structure's mechanisms serves every reweight of it. *)
  let c0 = surface ~distance:5 ~sigma:0.3 1 in
  let nodes = Array.length c0.Circuit.detectors in
  let s = Dem.structure c0 in
  let plan, _, plans = counted (fun () -> Dem_graph.plan ~nodes (Array.of_list (Dem.weigh s c0))) in
  Alcotest.(check int) "one plan" 1 plans;
  List.iter
    (fun (sigma, seed) ->
      let dem = Dem.weigh s (surface ~distance:5 ~sigma seed) in
      let g, _, plans = counted (fun () -> Dem_graph.weigh plan (Array.of_list dem)) in
      check_graph (Printf.sprintf "d=5 sigma=%g seed=%d" sigma seed) ~nodes dem g;
      Alcotest.(check int) "a reweight plans nothing" 0 plans)
    [ (0.3, 1); (0., 0); (0.6, 2); (1.0, 3); (0.3, 4) ]

let test_plan_flag_flips () =
  (* Two mechanisms on the edge (0, 1): whichever is likelier sets its
     logical flag, so swapping their probabilities on one plan flips it,
     and the reweighted graph still equals the oracle field for field. *)
  let d01 = [| 0; 1 |] and d1 = [| 1 |] in
  let dem p_plain p_logical =
    [ { Dem.p = 0.05; detectors = d1; obs_mask = 0 };
      { Dem.p = p_plain; detectors = d01; obs_mask = 0 };
      { Dem.p = p_logical; detectors = d01; obs_mask = 1 } ]
  in
  let plan = Dem_graph.plan ~nodes:2 (Array.of_list (dem 0.2 0.01)) in
  let flag msg dem =
    let g = Dem_graph.weigh plan (Array.of_list dem) in
    check_graph msg ~nodes:2 dem g;
    let _, _, _, l =
      List.find (fun (u, v, _, _) -> (u, v) = (0, 1)) (Array.to_list (Decoder_uf.edge_list g))
    in
    l
  in
  Alcotest.(check bool) "plain likelier: flag clear" false (flag "plain likelier" (dem 0.2 0.01));
  Alcotest.(check bool) "logical likelier: flag set" true (flag "logical likelier" (dem 0.01 0.2));
  (* A tie keeps the earlier mechanism's flag. *)
  Alcotest.(check bool) "tie: flag clear" false (flag "tie" (dem 0.1 0.1));
  (* The same arrays with another mask are another DEM, with a plan of its
     own. *)
  let unflagged = List.map (fun m -> { m with Dem.obs_mask = 0 }) (dem 0.01 0.2) in
  let g = Dem_graph.build ~nodes:2 unflagged in
  check_graph "masks cleared" ~nodes:2 unflagged g;
  Alcotest.(check bool) "masks cleared: flag clear" false
    (Array.exists (fun (_, _, _, l) -> l) (Decoder_uf.edge_list g))

let test_plan_not_reused_across_structures () =
  (* Nothing is reused implicitly: every build plans its own graph, and a
     plan refuses mechanisms that are not its structure's. *)
  let c = surface ~distance:5 ~sigma:0.3 1 in
  let nodes = Array.length c.Circuit.detectors in
  let a = Dem.structure c and b = Dem.structure c in
  let c3 = surface ~distance:3 ~sigma:0.3 1 in
  List.iter
    (fun (msg, nodes, dem) ->
      let g, _, plans = counted (fun () -> Dem_graph.build ~nodes dem) in
      check_graph msg ~nodes dem g;
      Alcotest.(check int) (msg ^ ": plans built") 1 plans)
    [ ("structure a", nodes, Dem.weigh a c);
      ("structure a again", nodes, Dem.weigh a c);
      ("structure b, same shape", nodes, Dem.weigh b c);
      ("a's mechanisms less the last", nodes, List.rev (List.tl (List.rev (Dem.weigh a c))));
      ("d=3", Array.length c3.Circuit.detectors, Dem.of_circuit c3) ];
  let plan = Dem_graph.plan ~nodes (Array.of_list (Dem.weigh a c)) in
  Alcotest.check_raises "a plan rejects another structure's mechanisms"
    (Invalid_argument "Dem_graph.weigh: not the plan's mechanisms") (fun () ->
      ignore (Dem_graph.weigh plan (Array.of_list (Dem.of_circuit c3))))

let test_reweight_checks () =
  (* A reweight keeps weighted_graph's weight checks. *)
  let inc = Decoder_uf.incidence ~nodes:2 ~edges:[| (0, 1); (1, Decoder_uf.boundary) |] in
  let logical = [| false; true |] in
  List.iter
    (fun (msg, weights, err) ->
      Alcotest.check_raises msg (Invalid_argument err) (fun () ->
          ignore (Decoder_uf.reweight inc ~weights ~logical)))
    [ ("weight 0", [| 0; 1 |], "Decoder_uf.graph: weight must be >= 1");
      ("weight 2^30", [| 1; 1 lsl 30 |], "Decoder_uf.graph: weight too large");
      ("one weight short", [| 1 |], "Decoder_uf.reweight: one weight and one flag per edge") ];
  Alcotest.check_raises "self-loop" (Invalid_argument "Decoder_uf.graph: self-loop") (fun () ->
      ignore (Decoder_uf.incidence ~nodes:2 ~edges:[| (1, 1) |]));
  let g = Decoder_uf.reweight inc ~weights:[| 3; 7 |] ~logical in
  Alcotest.check fields "reweight = weighted_graph"
    (Decoder_uf.arrays
       (Decoder_uf.weighted_graph ~nodes:2
          ~edges:[ (0, 1, 3, false); (1, Decoder_uf.boundary, 7, true) ]))
    (Decoder_uf.arrays g)

let () =
  Alcotest.run "dem"
    [ ( "mechanisms",
        [ Alcotest.test_case "x before measure" `Quick test_single_qubit_x_before_measure;
          Alcotest.test_case "z invisible" `Quick test_z_noise_invisible;
          Alcotest.test_case "h conjugation" `Quick test_h_conjugation;
          Alcotest.test_case "cx propagation" `Quick test_cx_propagation;
          Alcotest.test_case "reset erases" `Quick test_reset_erases;
          Alcotest.test_case "merging" `Quick test_merging_probabilities;
          Alcotest.test_case "depol2 components" `Quick test_depol2_components ] );
      ( "integration",
        [ Alcotest.test_case "matches frame stats" `Slow test_dem_matches_frame_statistics;
          Alcotest.test_case "surface DEM graphlike" `Quick test_surface_code_dem_mostly_graphlike;
          Alcotest.test_case "surface DEM probs" `Quick test_surface_code_dem_probabilities_positive ] );
      ( "structure reuse",
        [ QCheck_alcotest.to_alcotest prop_matches_oracle;
          Alcotest.test_case "reweight = oracle" `Quick test_reweight_matches_oracle;
          Alcotest.test_case "shape changes recompile" `Quick test_shape_changes_recompile;
          Alcotest.test_case "two domains" `Quick test_two_domains;
          Alcotest.test_case "one structure per shape" `Quick test_one_structure_per_shape ] );
      ( "sparse pass",
        [ QCheck_alcotest.to_alcotest prop_matches_bitvec;
          Alcotest.test_case "surface = Bitvec pass" `Quick test_surface_matches_bitvec ] );
      ( "graph plan",
        [ Alcotest.test_case "reuse across reweights" `Quick test_plan_reuse_across_reweights;
          Alcotest.test_case "flag flips" `Quick test_plan_flag_flips;
          Alcotest.test_case "no reuse across structures" `Quick
            test_plan_not_reused_across_structures;
          Alcotest.test_case "reweight checks" `Quick test_reweight_checks ] );
      ( "surface shape",
        [ Alcotest.test_case "circuit = oracle" `Quick test_circuit_matches_oracle;
          Alcotest.test_case "build = oracle compile" `Quick test_build_matches_oracle ] ) ]
