(* Circuit-level Pauli-frame samplers: the test oracles for the DEM-direct
   production sampler ([Dem_sampler]).

   Instead of simulating quantum state, track only the Pauli error frame
   relative to a noiseless reference execution (Stim's sampling strategy):
   exact for Clifford circuits with probabilistic Pauli noise.  Detector
   values are the noise-induced flips of the reference parities, so they
   feed a decoder directly.

   [sample_shot] simulates one shot with per-qubit byte flags and draws
   each noise channel as one categorical coin.  [sample] runs the same
   circuit on a whole batch at once in the transposed layout of
   [Dem_sampler.batch] (per qubit one X row and one Z row, bit s = shot s):
   every Clifford gate is a few whole-word XOR/AND operations, and each
   noise channel is a batched Bernoulli mask drawn by geometric gap
   sampling ([Bitvec.random_into]).  The two consume different random
   streams but sample the same distribution; noiseless circuits agree
   exactly.  [sample_flip_counts] chunks [sample] through
   [Parallel.monte_carlo], so its counts are seed-deterministic at any job
   count. *)

type shot = { detectors : Bitvec.t; observables : Bitvec.t }

(* Frame state: x.(q) / z.(q) say whether the accumulated error anticommutes
   with Z_q / X_q.  Gates conjugate the frame; noise XORs random Paulis in;
   a Z-basis measurement is flipped exactly when the frame has an X
   component on the measured qubit. *)

let sample_shot (c : Circuit.t) rng =
  let n = c.Circuit.nqubits in
  let fx = Bytes.make n '\000' and fz = Bytes.make n '\000' in
  let getx q = Bytes.unsafe_get fx q <> '\000' in
  let getz q = Bytes.unsafe_get fz q <> '\000' in
  let setx q b = Bytes.unsafe_set fx q (if b then '\001' else '\000') in
  let setz q b = Bytes.unsafe_set fz q (if b then '\001' else '\000') in
  let flips = Bitvec.create (max 1 c.Circuit.nmeas) in
  let mi = ref 0 in
  Array.iter
    (fun (gate : Circuit.gate) ->
      match gate with
      | Circuit.H q ->
          let t = getx q in
          setx q (getz q);
          setz q t
      | Circuit.S q -> setz q (getz q <> getx q)
      | Circuit.X _ | Circuit.Y _ | Circuit.Z _ -> ()
      | Circuit.CX (a, b) ->
          setx b (getx b <> getx a);
          setz a (getz a <> getz b)
      | Circuit.CZ (a, b) ->
          setz a (getz a <> getx b);
          setz b (getz b <> getx a)
      | Circuit.SWAP (a, b) ->
          let xa = getx a and za = getz a in
          setx a (getx b);
          setz a (getz b);
          setx b xa;
          setz b za
      | Circuit.M q ->
          if getx q then Bitvec.set flips !mi true;
          incr mi;
          (* The reference measurement dephases the qubit; the Z frame after
             measurement is irrelevant, randomize it as Stim does. *)
          setz q (Rng.bool rng)
      | Circuit.R q ->
          setx q false;
          setz q false
      | Circuit.Noise1 { px; py; pz; q } ->
          let u = Rng.uniform rng in
          if u < px then setx q (not (getx q))
          else if u < px +. py then begin
            setx q (not (getx q));
            setz q (not (getz q))
          end
          else if u < px +. py +. pz then setz q (not (getz q))
      | Circuit.Depol2 { p; a; b } ->
          if p > 0. && Rng.uniform rng < p then begin
            let which = 1 + Rng.int rng 15 in
            let pa = which lsr 2 and pb = which land 3 in
            if pa land 1 <> 0 then setx a (not (getx a));
            if pa land 2 <> 0 then setz a (not (getz a));
            if pb land 1 <> 0 then setx b (not (getx b));
            if pb land 2 <> 0 then setz b (not (getz b))
          end)
    c.Circuit.ops;
  let parity idxs =
    Array.fold_left (fun acc m -> acc <> Bitvec.get flips m) false idxs
  in
  let detectors = Bitvec.create (max 1 (Array.length c.Circuit.detectors)) in
  Array.iteri (fun i d -> Bitvec.set detectors i (parity d)) c.Circuit.detectors;
  let observables = Bitvec.create (max 1 (Array.length c.Circuit.observables)) in
  Array.iteri (fun i o -> Bitvec.set observables i (parity o)) c.Circuit.observables;
  { detectors; observables }

(* A single-qubit Pauli channel (px, py, pz) across the batch: three
   DISJOINT masks built by conditional thinning —
     m1 ~ B(px)                           X-only shots
     m2 ~ B(py / (1-px))      masked ~m1  Y shots
     m3 ~ B(pz / (1-px-py))   masked ~m1 & ~m2  Z-only shots
   Per bit the law is exactly the categorical (px, py, pz, rest): the
   thinning factor restores the unconditioned probability.  X flips on
   m1|m2, Z flips on m2|m3. *)
let apply_noise1 rng ~m1 ~m2 ~m3 ~fx ~fz ~px ~py ~pz =
  Bitvec.random_into rng m1 ~p:px;
  let rem1 = 1. -. px in
  Bitvec.random_into rng m2 ~p:(if rem1 <= 0. then 0. else min 1. (py /. rem1));
  Bitvec.andnot_into ~dst:m2 m1;
  let rem2 = 1. -. px -. py in
  Bitvec.random_into rng m3 ~p:(if rem2 <= 0. then 0. else min 1. (pz /. rem2));
  Bitvec.andnot_into ~dst:m3 m1;
  Bitvec.andnot_into ~dst:m3 m2;
  Bitvec.xor_into ~dst:fx m1;
  Bitvec.xor_into ~dst:fx m2;
  Bitvec.xor_into ~dst:fz m2;
  Bitvec.xor_into ~dst:fz m3

let sample (c : Circuit.t) rng ~nshots =
  if nshots < 1 then invalid_arg "Frame.sample: nshots must be >= 1";
  let n = c.Circuit.nqubits in
  let fx = Array.init n (fun _ -> Bitvec.create nshots) in
  let fz = Array.init n (fun _ -> Bitvec.create nshots) in
  let m1 = Bitvec.create nshots in
  let m2 = Bitvec.create nshots in
  let m3 = Bitvec.create nshots in
  let meas = Array.make (max 1 c.Circuit.nmeas) m1 (* placeholder, overwritten *) in
  let mi = ref 0 in
  Array.iter
    (fun (gate : Circuit.gate) ->
      match gate with
      | Circuit.H q ->
          let t = fx.(q) in
          fx.(q) <- fz.(q);
          fz.(q) <- t
      | Circuit.S q -> Bitvec.xor_into ~dst:fz.(q) fx.(q)
      | Circuit.X _ | Circuit.Y _ | Circuit.Z _ -> ()
      | Circuit.CX (a, b) ->
          Bitvec.xor_into ~dst:fx.(b) fx.(a);
          Bitvec.xor_into ~dst:fz.(a) fz.(b)
      | Circuit.CZ (a, b) ->
          Bitvec.xor_into ~dst:fz.(a) fx.(b);
          Bitvec.xor_into ~dst:fz.(b) fx.(a)
      | Circuit.SWAP (a, b) ->
          let tx = fx.(a) and tz = fz.(a) in
          fx.(a) <- fx.(b);
          fz.(a) <- fz.(b);
          fx.(b) <- tx;
          fz.(b) <- tz
      | Circuit.M q ->
          meas.(!mi) <- Bitvec.copy fx.(q);
          incr mi;
          (* Reference measurement dephases the qubit; scramble the Z frame
             with one fair coin per shot, as the scalar sampler does. *)
          Bitvec.random_into rng fz.(q) ~p:0.5
      | Circuit.R q ->
          Bitvec.clear fx.(q);
          Bitvec.clear fz.(q)
      | Circuit.Noise1 { px; py; pz; q } ->
          if px > 0. || py > 0. || pz > 0. then
            apply_noise1 rng ~m1 ~m2 ~m3 ~fx:fx.(q) ~fz:fz.(q) ~px ~py ~pz
      | Circuit.Depol2 { p; a; b } ->
          if p > 0. then begin
            (* Shots drawing a depolarising event are rare; enumerate them
               from a sparse mask and pick one of the 15 non-identity
               two-qubit Paulis per event, as the scalar sampler does. *)
            Bitvec.random_into rng m1 ~p;
            Bitvec.iter_set m1 (fun s ->
                let which = 1 + Rng.int rng 15 in
                let pa = which lsr 2 and pb = which land 3 in
                if pa land 1 <> 0 then Bitvec.flip fx.(a) s;
                if pa land 2 <> 0 then Bitvec.flip fz.(a) s;
                if pb land 1 <> 0 then Bitvec.flip fx.(b) s;
                if pb land 2 <> 0 then Bitvec.flip fz.(b) s)
          end)
    c.Circuit.ops;
  let parity_rows idxs =
    let row = Bitvec.create nshots in
    Array.iter (fun m -> Bitvec.xor_into ~dst:row meas.(m)) idxs;
    row
  in
  { Dem_sampler.nshots;
    detectors = Array.map parity_rows c.Circuit.detectors;
    observables = Array.map parity_rows c.Circuit.observables }

let sample_flip_counts ?jobs (c : Circuit.t) rng ~shots =
  let nobs = Array.length c.Circuit.observables in
  Parallel.monte_carlo ?jobs ~rng ~shots ~init:(Array.make nobs 0)
    ~merge:(fun acc part ->
      Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) part;
      acc)
    (fun rng nshots -> Dem_sampler.flip_counts (sample c rng ~nshots))
