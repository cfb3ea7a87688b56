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

let check_shape p =
  if p.distance < 2 then invalid_arg "Surface_circuit.build: distance >= 2";
  if p.rounds < 1 then invalid_arg "Surface_circuit.build: rounds >= 1"

let nominal_coherence p ~n_data q = if q < n_data then p.t_data else p.t_anc

let coherence ?variability p ~n_qubits =
  let n_data = p.distance * p.distance in
  match variability with
  | None -> nominal_coherence p ~n_data
  | Some (sigma, rng) ->
      if sigma < 0. then invalid_arg "Surface_circuit.build_varied: sigma >= 0";
      (* Log-normal with unit mean: exp(sigma g - sigma^2 / 2). *)
      let factors =
        Array.init n_qubits (fun _ ->
            exp ((sigma *. Rng.gaussian rng) -. (sigma *. sigma /. 2.)))
      in
      fun q -> nominal_coherence p ~n_data q *. factors.(q)

(* ------------------------------------------------------- noise table --- *)

(* A point's noise, one float array: for each schedule slot duration (the
   1q slots, the CX slots, the readout) and each qubit, the (px, py, pz)
   of its coherence-limited idle at [entry], then the CX depolarizing p2
   and p2/15 (what a Depol2 records).  Entries no op reads (a slot of
   duration <= 0, an ancilla through readout, p2 <= 0) stay 0, so two
   points with the same circuit have the same table.  O(qubits) to fill. *)
let slot_1q = 0
let slot_2q = 1
let slot_meas = 2
let[@inline] entry ~n_qubits slot q = 3 * ((slot * n_qubits) + q)
let p2_at ~n_qubits = 9 * n_qubits
let depol_at ~n_qubits = (9 * n_qubits) + 1

let noise_table ?variability p ~n_qubits =
  let coherence = coherence ?variability p ~n_qubits in
  let n_data = p.distance * p.distance in
  let t = Array.make ((9 * n_qubits) + 2) 0. in
  List.iter
    (fun (slot, dt, nq) ->
      if dt > 0. then
        for q = 0 to nq - 1 do
          let c = coherence q in
          let p1, pz = Circuit.idle_probs ~t1:c ~t2:c ~dt in
          Circuit.check_noise1 ~px:p1 ~py:p1 ~pz;
          let e = entry ~n_qubits slot q in
          t.(e) <- p1;
          t.(e + 1) <- p1;
          t.(e + 2) <- pz
        done)
    [ (slot_1q, p.t_1q, n_qubits); (slot_2q, p.t_2q, n_qubits); (slot_meas, p.t_meas, n_data) ];
  if p.p2 > 0. then begin
    Circuit.check_depol2 p.p2;
    t.(p2_at ~n_qubits) <- p.p2;
    t.(depol_at ~n_qubits) <- p.p2 /. 15.
  end;
  t

(* Which entries are positive: all a structure pass reads of the
   probabilities.  A Depol2 records p2/15, so a subnormal p2 counts as 0
   and the raw p2 entry is left out. *)
let positivity t ~n_qubits =
  let raw = p2_at ~n_qubits in
  Bytes.init (Array.length t) (fun i -> if i <> raw && t.(i) > 0. then '\001' else '\000')

(* -------------------------------------------------------- generator --- *)

(* The noisy memory-Z circuit of [p] with the noise of [table].  With
   [~record:true] it also returns each op's table offset (the ones a noise
   op reads; 0 elsewhere), the index {!Dem.structure} and
   {!Dem_store.skeleton_hash} take. *)
let emit ?(record = false) p ~n_qubits table =
  let d = p.distance in
  let stabs, _ = stabs_of_distance d in
  let n_data = d * d in
  let zs = List.filter (fun s -> s.kind = `Z) stabs in
  let xs = List.filter (fun s -> s.kind = `X) stabs in
  let n_z = List.length zs in
  let b = Circuit.builder n_qubits in
  let nops = ref 0 and index = ref [||] in
  let add g =
    Circuit.add b g;
    incr nops
  in
  let measure q =
    incr nops;
    Circuit.measure b q
  in
  let noise e g =
    if record then begin
      if !nops >= Array.length !index then begin
        let grown = Array.make (max 4096 (2 * !nops)) 0 in
        Array.blit !index 0 grown 0 (Array.length !index);
        index := grown
      end;
      !index.(!nops) <- e
    end;
    add g
  in
  (* One gate per table entry, shared by every op that reads it: a qubit
     idles through the same slot kind with the same channel every time. *)
  let idle_gates slot dt nq =
    if dt > 0. then
      Array.init nq (fun q ->
          let e = entry ~n_qubits slot q in
          (e, Circuit.Noise1 { px = table.(e); py = table.(e + 1); pz = table.(e + 2); q }))
    else [||]
  in
  let idle_1q = idle_gates slot_1q p.t_1q n_qubits
  and idle_2q = idle_gates slot_2q p.t_2q n_qubits
  and idle_meas = idle_gates slot_meas p.t_meas n_data in
  (* Gates are coherence-limited (paper §4): every qubit, including gate
     participants, decoheres for the slot duration; CX adds its 1%
     depolarizing on top. *)
  let idle_all gates = Array.iter (fun (e, g) -> noise e g) gates in
  let depol = depol_at ~n_qubits in
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
    List.iter (fun s -> add (Circuit.H s.anc)) xs;
    idle_all idle_1q;
    (* Slots 2-5: CX layers. *)
    for step = 0 to 3 do
      List.iter
        (fun s ->
          match corner_at s step with
          | None -> ()
          | Some data ->
              (match s.kind with
              | `Z -> add (Circuit.CX (data, s.anc))
              | `X -> add (Circuit.CX (s.anc, data)));
              if p.p2 > 0. then noise depol (Circuit.Depol2 { p = p.p2; a = data; b = s.anc }))
        stabs;
      idle_all idle_2q
    done;
    (* Slot 6: H on X ancillas again. *)
    List.iter (fun s -> add (Circuit.H s.anc)) xs;
    idle_all idle_1q;
    (* Slot 7: measure + reset every ancilla (1 us, error-free readout);
       data qubits idle through it. *)
    List.iteri
      (fun i s ->
        let m = measure s.anc in
        add (Circuit.R s.anc);
        z_meas.(round).(i) <- m)
      zs;
    List.iter
      (fun s ->
        let (_ : int) = measure s.anc in
        add (Circuit.R s.anc))
      xs;
    idle_all idle_meas
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
  let data_meas = Array.init n_data (fun q -> measure q) in
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
  let index =
    if record then Array.init !nops (fun i -> if i < Array.length !index then !index.(i) else 0)
    else [||]
  in
  (circuit, n_z, index)

let n_qubits_of p = snd (stabs_of_distance p.distance)

let circuit ?variability p =
  check_shape p;
  let n_qubits = n_qubits_of p in
  let c, _, _ = emit p ~n_qubits (noise_table ?variability p ~n_qubits) in
  c

(* -------------------------------------------------------------- shape --- *)

(* What every point of one shape shares.  A shape is fixed by distance,
   rounds and which of the slot durations and p2 are positive (which ops
   the circuit has); its skeleton hash is the first half of a point's
   store key.  The structure pass and the graph plan also depend on which
   table entries are positive, so [compiled] records the pattern it was
   built for and is rebuilt when a point's differs.  [pending] is the
   circuit the shape was laid out from, with its index and pattern, kept
   only until a structure is built from it or the point that laid it out
   is done, so concurrent first points lay out one circuit between them.
   Both mutable fields are guarded by [lock]. *)
type compiled = { positive : Bytes.t; structure : Dem.structure; plan : Dem_graph.plan }

type shape = {
  key : int * int * int;
  n_qubits : int;
  n_z : int;
  hash : string;
  mutable pending : (Circuit.t * int array * Bytes.t) option;
  mutable compiled : compiled option;
}

let shape_key p =
  let bit b i = if b then 1 lsl i else 0 in
  ( p.distance,
    p.rounds,
    bit (p.t_1q > 0.) 0 lor bit (p.t_2q > 0.) 1 lor bit (p.t_meas > 0.) 2 lor bit (p.p2 > 0.) 3 )

(* The one memo slot: the last shape laid out.  A miss is single-flight:
   the domains of a sweep reach their first point together, and the
   second waits for the first's shape instead of laying out its own. *)
let slot : shape option Atomic.t = Atomic.make None
let lock = Mutex.create ()

(* The shape of [p], and whether this call laid it out. *)
let shape_for p ~n_qubits table =
  let key = shape_key p in
  match Atomic.get slot with
  | Some s when s.key = key -> (s, false)
  | _ ->
      Mutex.protect lock (fun () ->
          match Atomic.get slot with
          | Some s when s.key = key -> (s, false)
          | _ ->
              let s =
                Obs.Trace.with_span "qec.circuit" (fun () ->
                    let c, n_z, index = emit ~record:true p ~n_qubits table in
                    { key;
                      n_qubits;
                      n_z;
                      hash = Dem_store.skeleton_hash c ~index;
                      pending = Some (c, index, positivity table ~n_qubits);
                      compiled = None })
              in
              Atomic.set slot (Some s);
              (s, true))

(* The structure and plan for a table's positivity pattern: the shape's
   when they fit, else built (single-flight) from the pending circuit or a
   fresh one laid out with this table. *)
let compiled_for s p table =
  let positive = positivity table ~n_qubits:s.n_qubits in
  Mutex.protect lock (fun () ->
      match s.compiled with
      | Some c when Bytes.equal c.positive positive -> c
      | _ ->
          Obs.Trace.with_span "qec.dem_shape" (fun () ->
              let circuit, index =
                match s.pending with
                | Some (c, index, pattern) when Bytes.equal pattern positive -> (c, index)
                | _ ->
                    let c, _, index = emit ~record:true p ~n_qubits:s.n_qubits table in
                    (c, index)
              in
              s.pending <- None;
              let structure = Dem.structure ~index circuit in
              let plan =
                Dem_graph.plan
                  ~nodes:(Array.length circuit.Circuit.detectors)
                  (Dem.weigh_table structure table)
              in
              let c = { positive; structure; plan } in
              s.compiled <- Some c;
              c))

(* A point's noise table, its shape (and whether this call laid it out)
   and its store key. *)
let resolve ?variability p =
  check_shape p;
  let n_qubits = n_qubits_of p in
  let table = noise_table ?variability p ~n_qubits in
  let s, laid_out = shape_for p ~n_qubits table in
  (table, s, laid_out, Dem_store.key ~shape:s.hash ~noise:(Dem_store.noise_hash table))

let drop_pending s = Mutex.protect lock (fun () -> s.pending <- None)

let store_key p =
  let _, s, laid_out, key = resolve p in
  if laid_out then drop_pending s;
  key

(* Every step of a build sits in a named span: laying out a new shape, the
   store round trip and, on a miss, the structure pass and graph plan of a
   new positivity pattern, the DEM weight pass and the graph reweight.
   None is on a per-shot path.  A point itself is only its noise table:
   no circuit, no whole-circuit hash, no CSR rebuild. *)
let build_with ?variability p =
  Obs.Trace.with_span "qec.build" (fun () ->
      let table, s, laid_out, key = resolve ?variability p in
      (* Compiled DEM + decoding graph from the circuit's detector error
         model, so edge weights and logical flags reflect the exact noise
         (including hook errors and mid-cycle mechanisms).  Both are
         resolved through the ambient persistent store when one is installed
         (--cache-dir): a warm run skips the structure pass, the weight pass
         and the graph, and decodes on a byte-identical deserialized
         graph. *)
      let sampler, graph =
        Fun.protect
          ~finally:(fun () -> if laid_out then drop_pending s)
          (fun () ->
            Dem_store.compile_cached key (fun () ->
                let c = compiled_for s p table in
                let sampler = Dem_sampler.weigh c.structure table in
                let graph =
                  Obs.Trace.with_span "qec.dem_graph" (fun () ->
                      Dem_graph.weigh c.plan (Dem_sampler.mechanisms sampler))
                in
                (sampler, graph)))
      in
      { graph; sampler; params = p; n_qubits = s.n_qubits; n_z_stabs = s.n_z })

let build p = build_with p
let build_varied ~sigma rng p = build_with ~variability:(sigma, rng) p

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
                ~detectors:b.Dem_sampler.detectors
                ~observable:b.Dem_sampler.observables.(0) ~nshots)))

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

(* Points compare by their floats' IEEE bits: -0. and 0. may give different
   circuits, and a NaN point still equals itself. *)
let point_key p =
  ( p.distance,
    p.rounds,
    List.map Int64.bits_of_float [ p.t_data; p.t_anc; p.p2; p.t_1q; p.t_2q; p.t_meas ] )

(* Each distinct point is one sweep task that builds, estimates and drops
   its experiment, so the points fan across domains and only the points in
   flight hold a sampler and a graph.  A point's Monte-Carlo chunks run
   inline on its domain (Parallel's nesting rule), and every point draws
   from its own [Rng.create seed], so rates are byte-identical at any
   --jobs. *)
let per_cycle_rates ~seed ~shots points =
  let index = Hashtbl.create 16 in
  let distinct =
    List.filter
      (fun p ->
        let k = point_key p in
        if Hashtbl.mem index k then false
        else begin
          Hashtbl.add index k (Hashtbl.length index);
          true
        end)
      points
  in
  let rates =
    Array.of_list
      (Sweep.sweep distinct ~f:(fun p ->
           let rate = logical_error_rate (build p) (Rng.create seed) ~shots in
           per_cycle_rate ~shot_rate:rate ~rounds:p.rounds))
  in
  List.map (fun p -> snd rates.(Hashtbl.find index (point_key p))) points
