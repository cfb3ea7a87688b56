type result = { accept_rate : float; error_given_accept : float; shots : int }

let circuit ~n ~p2 ~t_coh ~t_2q ~t_readout ~verify_checks =
  if n < 2 then invalid_arg "Cat_sim.circuit: need n >= 2";
  if verify_checks < 0 then invalid_arg "Cat_sim.circuit: verify_checks >= 0";
  let anc = n in
  let b = Circuit.builder (n + 1) in
  let idle_all dt =
    for q = 0 to n - 1 do
      Circuit.idle_noise b ~t1:t_coh ~t2:t_coh ~dt q
    done
  in
  (* Growth: |+> on the head, then a serial CNOT chain. *)
  Circuit.add b (Circuit.H 0);
  for i = 0 to n - 2 do
    Circuit.add b (Circuit.CX (i, i + 1));
    if p2 > 0. then Circuit.add b (Circuit.Depol2 { p = p2; a = i; b = i + 1 });
    idle_all t_2q
  done;
  (* Verification: parity checks on pairs spread across the CAT. *)
  let detectors = ref [] in
  for c = 0 to verify_checks - 1 do
    let a = c * (n - 1) / max 1 verify_checks in
    let b_ = min (n - 1) (a + (n / 2)) in
    let b_ = if b_ = a then a + 1 else b_ in
    Circuit.add b (Circuit.R anc);
    Circuit.add b (Circuit.CX (a, anc));
    if p2 > 0. then Circuit.add b (Circuit.Depol2 { p = p2; a; b = anc });
    Circuit.add b (Circuit.CX (b_, anc));
    if p2 > 0. then Circuit.add b (Circuit.Depol2 { p = p2; a = b_; b = anc });
    let m = Circuit.measure b anc in
    detectors := [ m ] :: !detectors;
    idle_all (t_2q +. t_2q +. t_readout)
  done;
  List.iter (fun d -> Circuit.add_detector b d) (List.rev !detectors);
  (* Final transversal Z measurement; the n-1 pairwise parities are the
     quality observables of the CAT. *)
  let meas = Array.init n (fun q -> Circuit.measure b q) in
  for i = 0 to n - 2 do
    Circuit.add_observable b [ meas.(i); meas.(i + 1) ]
  done;
  let c = Circuit.finish b in
  Circuit.validate c;
  c

(* Each Monte-Carlo chunk draws one DEM batch.  A shot is accepted when no
   verification detector fires, and is bad when it is accepted and some
   pairwise-parity observable flipped:
     accepted = nshots - |any detector|
     bad      = |any observable| - |any observable & any detector|. *)
let run ~n ~p2 ~t_coh ?(t_2q = 100e-9) ?(t_readout = 1e-6) ?(verify_checks = 2)
    ~shots rng =
  if shots < 1 then invalid_arg "Cat_sim.run: shots >= 1";
  let sampler =
    Dem_sampler.compile (circuit ~n ~p2 ~t_coh ~t_2q ~t_readout ~verify_checks)
  in
  let any rows nshots =
    let acc = Bitvec.create nshots in
    Array.iter (fun row -> Bitvec.or_into ~dst:acc row) rows;
    acc
  in
  let accepted, bad =
    Parallel.monte_carlo ~rng ~shots ~init:(0, 0)
      ~merge:(fun (a, b) (a', b') -> (a + a', b + b'))
      (fun rng nshots ->
        let b = Dem_sampler.sample sampler rng ~nshots in
        let det = any b.Dem_sampler.detectors nshots in
        let obs = any b.Dem_sampler.observables nshots in
        ( nshots - Bitvec.popcount det,
          Bitvec.popcount obs - Bitvec.and_popcount obs det ))
  in
  { accept_rate = float_of_int accepted /. float_of_int shots;
    error_given_accept =
      (if accepted = 0 then 1. else float_of_int bad /. float_of_int accepted);
    shots }
