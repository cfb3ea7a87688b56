(* Circuit-level memory experiments for CSS codes on the serialized USC
   architecture — the detailed end of the paper's simulation hierarchy,
   kept as the oracle that validates the phenomenological module model of
   [Uec].

   One readout ancilla serially extracts every stabilizer each round (Z
   checks as CX(data->anc), X checks Hadamard-conjugated), data qubits idle
   at the storage coherence between their turns and at the compute
   coherence while swapped out, and each CX carries the configured
   depolarizing error.  Detectors compare consecutive ancilla readings; the
   experiment is memory-Z (prepared |0...0>, final transversal Z
   measurement, logical Z observable). *)

type params = {
  ts : float;
  tc : float;
  p2 : float;
  t_2q : float;
  t_swap : float;
  t_readout : float;
}

(* Paper §4.2 settings with the given storage coherence. *)
let default ~ts =
  { ts; tc = 0.5e-3; p2 = 1e-2; t_2q = 100e-9; t_swap = 100e-9; t_readout = 1e-6 }

(* Build the circuit plus, per Z stabilizer, the detector indices whose XOR
   telescopes to the final residual syndrome bit. *)
let build p (code : Code.t) ~rounds =
  if rounds < 1 then invalid_arg "Stab_circuit.memory_z: rounds >= 1";
  let n = code.Code.n in
  let anc = n in
  let b = Circuit.builder (n + 1) in
  let nz = Array.length code.Code.z_stabs in
  let nx = Array.length code.Code.x_stabs in
  let meas = Array.make_matrix rounds (nz + nx) 0 in
  let stab_kindsupp =
    Array.append
      (Array.map (fun s -> (`Z, s)) code.Code.z_stabs)
      (Array.map (fun s -> (`X, s)) code.Code.x_stabs)
  in
  for r = 0 to rounds - 1 do
    Array.iteri
      (fun k (kind, supp) ->
        let w = Array.length supp in
        let duration =
          (float_of_int w *. p.t_2q)
          +. (2. *. float_of_int w *. p.t_swap)
          +. p.t_readout
        in
        (* parked data idles in storage for the whole check *)
        for q = 0 to n - 1 do
          if not (Array.mem q supp) then
            Circuit.idle_noise b ~t1:p.ts ~t2:p.ts ~dt:duration q
        done;
        (* participants: storage idle for the rest of the check plus a
           compute excursion for their swaps and gate *)
        let excursion = (2. *. p.t_swap) +. p.t_2q in
        Array.iter
          (fun q ->
            Circuit.idle_noise b ~t1:p.ts ~t2:p.ts ~dt:(Float.max 0. (duration -. excursion)) q;
            Circuit.idle_noise b ~t1:p.tc ~t2:p.tc ~dt:excursion q)
          supp;
        Circuit.add b (Circuit.R anc);
        if kind = `X then Circuit.add b (Circuit.H anc);
        Array.iter
          (fun q ->
            (match kind with
            | `Z -> Circuit.add b (Circuit.CX (q, anc))
            | `X -> Circuit.add b (Circuit.CX (anc, q)));
            if p.p2 > 0. then Circuit.add b (Circuit.Depol2 { p = p.p2; a = q; b = anc }))
          supp;
        if kind = `X then Circuit.add b (Circuit.H anc);
        meas.(r).(k) <- Circuit.measure b anc)
      stab_kindsupp
  done;
  (* Detectors: Z checks compare with the deterministic |0...0> preparation
     at round 0; X checks only round-to-round. *)
  let z_dets = Array.make nz [] in
  let det_count = ref 0 in
  let add_det idxs =
    Circuit.add_detector b idxs;
    let d = !det_count in
    incr det_count;
    d
  in
  for r = 0 to rounds - 1 do
    for s = 0 to nz - 1 do
      let d =
        if r = 0 then add_det [ meas.(0).(s) ]
        else add_det [ meas.(r - 1).(s); meas.(r).(s) ]
      in
      z_dets.(s) <- d :: z_dets.(s)
    done;
    for x = 0 to nx - 1 do
      if r > 0 then
        ignore (add_det [ meas.(r - 1).(nz + x); meas.(r).(nz + x) ])
    done
  done;
  let data_meas = Array.init n (fun q -> Circuit.measure b q) in
  Array.iteri
    (fun s supp ->
      let d =
        add_det (meas.(rounds - 1).(s) :: Array.to_list (Array.map (fun q -> data_meas.(q)) supp))
      in
      z_dets.(s) <- d :: z_dets.(s))
    code.Code.z_stabs;
  Circuit.add_observable b
    (Array.to_list (Array.map (fun q -> data_meas.(q)) code.Code.logical_z.(0)));
  let circuit = Circuit.finish b in
  Circuit.validate circuit;
  (circuit, z_dets)

let memory_z ?params:(p = default ~ts:10e-3) code ~rounds = fst (build p code ~rounds)

(* Logical-Z error per shot: frame-sample the circuit, fold the telescoping
   detector parities into the final-residual syndrome (ancilla measurement
   errors cancel), decode with the code's lookup table, and compare against
   the logical-Z observable. *)
let logical_z_error_rate ?params:(p = default ~ts:10e-3) code ~rounds ~shots rng =
  if shots < 1 then invalid_arg "Stab_circuit.logical_z_error_rate: shots >= 1";
  let circuit, z_dets = build p code ~rounds in
  let decoder = Decoder_lookup.create code in
  let failures = ref 0 in
  for _ = 1 to shots do
    let shot = Frame.sample_shot circuit rng in
    let syndrome =
      Array.map
        (fun dets ->
          let parity =
            List.fold_left
              (fun acc d -> if Bitvec.get shot.Frame.detectors d then 1 - acc else acc)
              0 dets
          in
          parity)
        z_dets
    in
    let correction = Decoder_lookup.decode_x decoder syndrome in
    let corr_flips =
      List.fold_left
        (fun acc q -> if Array.mem q code.Code.logical_z.(0) then not acc else acc)
        false correction
    in
    let actual_flip = Bitvec.get shot.Frame.observables 0 in
    if corr_flips <> actual_flip then incr failures
  done;
  float_of_int !failures /. float_of_int shots

(* 1 - (1 - P)^(1/rounds). *)
let per_round ~shot_rate ~rounds =
  if shot_rate >= 1. then 1.
  else 1. -. ((1. -. shot_rate) ** (1. /. float_of_int rounds))
