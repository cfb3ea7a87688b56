type batch = {
  nshots : int;
  detectors : Bitvec.t array;  (* row per detector, bit s = shot s *)
  observables : Bitvec.t array;  (* row per observable *)
}

let shot b s =
  if s < 0 || s >= b.nshots then invalid_arg "Dem_sampler.shot: index out of range";
  let extract rows =
    let out = Bitvec.create (max 1 (Array.length rows)) in
    Array.iteri (fun i row -> if Bitvec.get row s then Bitvec.set out i true) rows;
    out
  in
  (extract b.detectors, extract b.observables)

let flip_counts b = Array.map Bitvec.popcount b.observables

type t = {
  ndet : int;
  nobs : int;
  mechanisms : Dem.mechanism array;  (* canonical (detectors, obs_mask) order *)
}

let compiles_total = Obs.Counter.create "pauli.dem_compiles_total"
let dem_batches_total = Obs.Counter.create "pauli.dem_batches_total"
let dem_shots_total = Obs.Counter.create "pauli.dem_shots_total"
let sample_seconds = Obs.Histogram.create "pauli.dem_sample_seconds"

(* Mechanisms are kept in [Dem.compare_mechanism] order, which pins the
   RNG consumption order of [sample] (seed determinism).  [Dem]'s weight
   pass already lists its mechanisms in this order. *)
let make ~ndet ~nobs mechanisms =
  if ndet < 0 || nobs < 0 then invalid_arg "Dem_sampler.make: bad dims";
  Array.iter
    (fun (m : Dem.mechanism) ->
      if m.Dem.p < 0. || m.Dem.p > 1. || Float.is_nan m.Dem.p then
        invalid_arg "Dem_sampler.make: bad probability";
      Array.iter
        (fun d ->
          if d < 0 || d >= ndet then
            invalid_arg "Dem_sampler.make: detector out of range")
        m.Dem.detectors;
      if m.Dem.obs_mask lsr nobs <> 0 then
        invalid_arg "Dem_sampler.make: observable out of range")
    mechanisms;
  { ndet; nobs; mechanisms }

let compile (c : Circuit.t) =
  Obs.Counter.incr compiles_total;
  Obs.Trace.with_span "pauli.dem_compile" (fun () ->
      make
        ~ndet:(Array.length c.Circuit.detectors)
        ~nobs:(Array.length c.Circuit.observables)
        (Array.of_list (Dem.of_circuit c)))

let weigh structure table =
  Obs.Counter.incr compiles_total;
  Obs.Trace.with_span "pauli.dem_compile" (fun () ->
      make ~ndet:(Dem.ndet structure) ~nobs:(Dem.nobs structure)
        (Dem.weigh_table structure table))

let ndet t = t.ndet
let nobs t = t.nobs
let mechanisms t = t.mechanisms

let sample t rng ~nshots =
  if nshots < 1 then invalid_arg "Dem_sampler.sample: nshots must be >= 1";
  Obs.Counter.incr dem_batches_total;
  Obs.Counter.add dem_shots_total nshots;
  let start = Obs.now_ns () in
  let detectors = Array.init t.ndet (fun _ -> Bitvec.create nshots) in
  let observables = Array.init t.nobs (fun _ -> Bitvec.create nshots) in
  let mask = Bitvec.create nshots in
  Array.iter
    (fun (m : Dem.mechanism) ->
      let p = m.Dem.p in
      if p > 0. && p <= 0.1 then begin
        (* Event-direct path: same geometric gap draws as
           [Bitvec.random_into]'s sparse fill, bit for bit, but the few event
           shots are toggled straight into the touched rows instead of
           materializing a whole-row mask and xoring it through every row.
           Byte-identical output and RNG stream, ~none of the per-mechanism
           row traffic. *)
        let log1mp = log1p (-.p) in
        let i = ref (-1) in
        let continue = ref true in
        while !continue do
          let gap = Rng.geometric rng ~log1mp in
          i := !i + 1 + gap;
          if !i >= nshots || !i < 0 then continue := false
          else begin
            let s = !i in
            (* indexed loop, not Array.iter: the iteration closure would
               capture [s] and be allocated once per event *)
            let det = m.Dem.detectors in
            for k = 0 to Array.length det - 1 do
              Bitvec.flip detectors.(det.(k)) s
            done;
            let obs = ref m.Dem.obs_mask in
            while !obs <> 0 do
              Bitvec.flip observables.(Bitvec.ctz !obs) s;
              obs := !obs land (!obs - 1)
            done
          end
        done
      end
      else if p > 0. then begin
        Bitvec.random_into rng mask ~p;
        Array.iter
          (fun d -> Bitvec.xor_into ~dst:detectors.(d) mask)
          m.Dem.detectors;
        let obs = ref m.Dem.obs_mask in
        while !obs <> 0 do
          Bitvec.xor_into ~dst:observables.(Bitvec.ctz !obs) mask;
          obs := !obs land (!obs - 1)
        done
      end)
    t.mechanisms;
  Obs.Histogram.observe sample_seconds
    (Int64.to_float (Int64.sub (Obs.now_ns ()) start) *. 1e-9);
  { nshots; detectors; observables }

let sample_flip_counts ?jobs t rng ~shots =
  if shots <= 0 then
    invalid_arg "Dem_sampler.sample_flip_counts: shots must be positive";
  Parallel.monte_carlo ?jobs ~rng ~shots ~init:(Array.make t.nobs 0)
    ~merge:(fun acc part ->
      Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) part;
      acc)
    (fun rng nshots -> flip_counts (sample t rng ~nshots))
