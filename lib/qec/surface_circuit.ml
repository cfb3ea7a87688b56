type params = {
  distance : int;
  rounds : int;
  t_data : float;
  t_anc : float;
  p2 : float;
  t_1q : float;
  t_2q : float;
  t_meas : float;
}

let default ~distance =
  { distance;
    rounds = distance;
    t_data = 1e-4;
    t_anc = 1e-4;
    p2 = 1e-2;
    t_1q = 40e-9;
    t_2q = 100e-9;
    t_meas = 1e-6 }

type experiment = {
  circuit : Circuit.t;
  graph : Decoder_uf.graph;
  sampler : Dem_sampler.t;
  params : params;
  n_qubits : int;
  n_z_stabs : int;
}

type stab = {
  kind : [ `X | `Z ];
  (* corner data qubits in NW, NE, SW, SE order; None if outside the grid *)
  corners : int option array;
  anc : int;
}

(* Plaquette enumeration mirrors Codes.surface so the stabilizers here match
   the abstract code exactly. *)
let stabs_of_distance d =
  let q r c = (r * d) + c in
  let corner r c = if r >= 0 && r < d && c >= 0 && c < d then Some (q r c) else None in
  let acc = ref [] in
  let next_anc = ref (d * d) in
  for r = -1 to d - 1 do
    for c = -1 to d - 1 do
      let corners = [| corner r c; corner r (c + 1); corner (r + 1) c; corner (r + 1) (c + 1) |] in
      let weight = Array.fold_left (fun n o -> if o = None then n else n + 1) 0 corners in
      let is_x = ((r + c) mod 2 + 2) mod 2 = 0 in
      let top_or_bottom = r = -1 || r = d - 1 in
      let left_or_right = c = -1 || c = d - 1 in
      let keep =
        match weight with
        | 4 -> true
        | 2 ->
            (top_or_bottom && is_x)
            || (left_or_right && (not is_x) && not top_or_bottom)
        | _ -> false
      in
      if keep then begin
        let anc = !next_anc in
        incr next_anc;
        acc := { kind = (if is_x then `X else `Z); corners; anc } :: !acc
      end
    done
  done;
  (List.rev !acc, !next_anc)

let circuit_of ~coherence p =
  let d = p.distance in
  if d < 2 then invalid_arg "Surface_circuit.build: distance >= 2";
  if p.rounds < 1 then invalid_arg "Surface_circuit.build: rounds >= 1";
  let stabs, n_qubits = stabs_of_distance d in
  let n_data = d * d in
  let zs = List.filter (fun s -> s.kind = `Z) stabs in
  let xs = List.filter (fun s -> s.kind = `X) stabs in
  let n_z = List.length zs in
  let b = Circuit.builder n_qubits in
  (* Gates are coherence-limited (paper §4): every qubit, including gate
     participants, decoheres for the slot duration; CX adds its 1%
     depolarizing on top. *)
  let idle_all ~dt =
    for q = 0 to n_qubits - 1 do
      Circuit.idle_noise b ~t1:(coherence q) ~t2:(coherence q) ~dt q
    done
  in
  (* CX step order: Z stabilizers touch their corners in NW,NE,SW,SE order;
     X stabilizers in NW,SW,NE,SE — the standard zigzag that keeps the two
     interleaved schedules collision-free. *)
  let corner_at s step =
    match s.kind with
    | `Z -> s.corners.(step)
    | `X -> s.corners.([| 0; 2; 1; 3 |].(step))
  in
  let z_meas = Array.make_matrix p.rounds n_z 0 in
  for round = 0 to p.rounds - 1 do
    (* Slot 1: H on X ancillas. *)
    List.iter (fun s -> Circuit.add b (Circuit.H s.anc)) xs;
    idle_all ~dt:p.t_1q;
    (* Slots 2-5: CX layers. *)
    for step = 0 to 3 do
      List.iter
        (fun s ->
          match corner_at s step with
          | None -> ()
          | Some data ->
              (match s.kind with
              | `Z -> Circuit.add b (Circuit.CX (data, s.anc))
              | `X -> Circuit.add b (Circuit.CX (s.anc, data)));
              if p.p2 > 0. then
                Circuit.add b (Circuit.Depol2 { p = p.p2; a = data; b = s.anc }))
        stabs;
      idle_all ~dt:p.t_2q
    done;
    (* Slot 6: H on X ancillas again. *)
    List.iter (fun s -> Circuit.add b (Circuit.H s.anc)) xs;
    idle_all ~dt:p.t_1q;
    (* Slot 7: measure + reset every ancilla (1 us, error-free readout);
       data qubits idle through it. *)
    List.iteri
      (fun i s ->
        let m = Circuit.measure b s.anc in
        Circuit.add b (Circuit.R s.anc);
        z_meas.(round).(i) <- m)
      zs;
    List.iter
      (fun s ->
        let (_ : int) = Circuit.measure b s.anc in
        Circuit.add b (Circuit.R s.anc))
      xs;
    for q = 0 to n_data - 1 do
      Circuit.idle_noise b ~t1:(coherence q) ~t2:(coherence q) ~dt:p.t_meas q
    done
  done;
  (* Z detectors: first round compares against the deterministic |0...0>
     preparation; later rounds compare consecutive ancilla readings. *)
  for round = 0 to p.rounds - 1 do
    List.iteri
      (fun i _ ->
        if round = 0 then Circuit.add_detector b [ z_meas.(0).(i) ]
        else Circuit.add_detector b [ z_meas.(round - 1).(i); z_meas.(round).(i) ])
      zs
  done;
  (* Final transversal data measurement (error-free, as the readout noise is
     already in the idles); detectors close each Z stabilizer. *)
  let data_meas = Array.init n_data (fun q -> Circuit.measure b q) in
  List.iteri
    (fun i s ->
      let supp =
        Array.to_list s.corners
        |> List.filter_map (fun o -> Option.map (fun q -> data_meas.(q)) o)
      in
      Circuit.add_detector b (z_meas.(p.rounds - 1).(i) :: supp))
    zs;
  (* Logical Z = top row. *)
  Circuit.add_observable b (List.init d (fun c -> data_meas.(c)));
  let circuit = Circuit.finish b in
  Circuit.validate circuit;
  (circuit, n_qubits, n_z)

(* Every step of a build sits in a named span: the circuit itself, the
   store round trip (key, lookup, write-back) and, on a miss, the DEM
   compile and the matching-graph construction inside it.  None is on a
   per-shot path. *)
let build_with ~coherence p =
  Obs.Trace.with_span "qec.build" (fun () ->
      let circuit, n_qubits, n_z =
        Obs.Trace.with_span "qec.circuit" (fun () -> circuit_of ~coherence p)
      in
      (* Compiled DEM + decoding graph straight from the circuit's detector
         error model, so edge weights and logical flags reflect the exact
         noise (including hook errors and mid-cycle mechanisms).  Both are
         resolved through the ambient persistent store when one is installed
         (--cache-dir): a warm run skips the DEM compile and graph
         construction and decodes on a byte-identical deserialized graph. *)
      let sampler, graph =
        Dem_store.compile_cached circuit (fun () ->
            let sampler = Dem_sampler.compile circuit in
            let graph =
              Obs.Trace.with_span "qec.dem_graph" (fun () ->
                  Dem_graph.build
                    ~nodes:(Array.length circuit.Circuit.detectors)
                    (Array.to_list (Dem_sampler.mechanisms sampler)))
            in
            (sampler, graph))
      in
      { circuit; graph; sampler; params = p; n_qubits; n_z_stabs = n_z })

let nominal_coherence p ~n_data q = if q < n_data then p.t_data else p.t_anc

let build p =
  let n_data = p.distance * p.distance in
  build_with ~coherence:(nominal_coherence p ~n_data) p

let build_varied ~sigma rng p =
  if sigma < 0. then invalid_arg "Surface_circuit.build_varied: sigma >= 0";
  let _, n_qubits = stabs_of_distance p.distance in
  let n_data = p.distance * p.distance in
  (* Log-normal with unit mean: exp(sigma g - sigma^2 / 2). *)
  let factors =
    Array.init n_qubits (fun _ ->
        exp ((sigma *. Rng.gaussian rng) -. (sigma *. sigma /. 2.)))
  in
  build_with ~coherence:(fun q -> nominal_coherence p ~n_data q *. factors.(q)) p

let shots_total = Obs.Counter.create "qec.shots_total"

(* Fused estimation: every Monte-Carlo chunk draws one DEM-direct batch
   (skipping circuit re-simulation) and decodes it through the batch
   union-find API on a pooled arena — no per-shot transposition, decode
   allocation, or scalar decode calls anywhere on the hot path.  Chunk
   layout and merge order come from Parallel.monte_carlo, so counts stay
   bit-identical for a given seed at any --jobs. *)
let logical_error_count ?jobs exp rng ~shots =
  if shots <= 0 then
    invalid_arg "Surface_circuit.logical_error_count: shots must be positive";
  Obs.Counter.add shots_total shots;
  Obs.Trace.with_span "qec.logical_error_rate"
    ~attrs:
      [ ("distance", string_of_int exp.params.distance);
        ("shots", string_of_int shots) ]
    (fun () ->
      (* one span per Monte-Carlo chunk, never per shot *)
      Parallel.monte_carlo_count ?jobs ~rng ~shots (fun rng nshots ->
          let b =
            Obs.Trace.with_span "pauli.sample" (fun () ->
                Dem_sampler.sample exp.sampler rng ~nshots)
          in
          Obs.Trace.with_span "qec.decode" (fun () ->
              Decoder_uf.decode_batch_count exp.graph
                ~detectors:b.Frame_batch.detectors
                ~observable:b.Frame_batch.observables.(0) ~nshots)))

let logical_error_rate ?jobs exp rng ~shots =
  float_of_int (logical_error_count ?jobs exp rng ~shots) /. float_of_int shots

(* Campaign integration: identity covers the full noise/coherence model, so
   a DSE grid over (distance, Tcd, Tca, p2) resumes point-by-point from the
   ledger.  Circuit and matching graph are built on the first batch. *)
let collect_task p =
  let exp = lazy (build p) in
  Collect.Task.create ~kind:"qec.surface"
    ~fields:
      [ ("distance", string_of_int p.distance);
        ("rounds", string_of_int p.rounds);
        ("decoder", "uf");
        ("t_data", Printf.sprintf "%.17g" p.t_data);
        ("t_anc", Printf.sprintf "%.17g" p.t_anc);
        ("p2", Printf.sprintf "%.17g" p.p2);
        ("t_1q", Printf.sprintf "%.17g" p.t_1q);
        ("t_2q", Printf.sprintf "%.17g" p.t_2q);
        ("t_meas", Printf.sprintf "%.17g" p.t_meas) ]
    ~sample:(fun rng shots -> logical_error_count (Lazy.force exp) rng ~shots)

let per_cycle_rate ~shot_rate ~rounds =
  if shot_rate >= 1. then 1.
  else 1. -. ((1. -. shot_rate) ** (1. /. float_of_int rounds))
