type config = {
  ts : float;
  tc : float;
  input_capacity : int;
  output_capacity : int;
  swap_time : float;
  swap_error : float;
  gate_time_2q : float;
  gate_error_2q : float;
  gate_time_1q : float;
  readout_time : float;
  target_fidelity : float;
  source : Ep_source.t;
}

(* §4 settings: all gates coherence-limited (their error is the decoherence
   over their duration — no extra depolarizing), two-qubit gates and SWAPs
   100 ns, single-qubit 40 ns, error-free 1 us readout. *)
let heterogeneous ?(ts = 12.5e-3) ~rate_hz () =
  { ts;
    tc = 0.5e-3;
    input_capacity = 6;
    output_capacity = 3;
    swap_time = 100e-9;
    swap_error = 0.;
    gate_time_2q = 100e-9;
    gate_error_2q = 0.;
    gate_time_1q = 40e-9;
    readout_time = 1e-6;
    target_fidelity = 0.995;
    source = Ep_source.create ~rate_hz () }

let homogeneous ~rate_hz () =
  let het = heterogeneous ~rate_hz () in
  { het with ts = het.tc }

type sample = { time : float; best_output_infidelity : float option }

type result = {
  delivered : int;
  distill_attempts : int;
  distill_successes : int;
  horizon : float;
  trace : sample list;
}

type stored = {
  mutable state : Bell_pair.t;
  mutable since : float;
  rounds : int;  (* how many distillation rounds produced this pair *)
}

(* A memory of stored pairs, newest first in [slots.(0 .. len - 1)]: the
   scheduler's ties (first best pairing, first worst pair) are broken in
   that order.  Fixed capacity, so arrivals and evictions allocate nothing
   beyond the pair itself. *)
type pool = { slots : stored array; mutable len : int }

let vacant = { state = Bell_pair.perfect; since = 0.; rounds = 0 }

(* The scheduler never holds more than [max 1 capacity] pairs: it only adds
   to a memory below capacity, or after evicting from a non-empty one. *)
let pool_create capacity = { slots = Array.make (max 1 capacity) vacant; len = 0 }

let push_front pool p =
  Array.blit pool.slots 0 pool.slots 1 pool.len;
  pool.slots.(0) <- p;
  pool.len <- pool.len + 1

let remove_at pool k =
  Array.blit pool.slots (k + 1) pool.slots k (pool.len - k - 1);
  pool.len <- pool.len - 1;
  pool.slots.(pool.len) <- vacant

type sim = {
  cfg : config;
  rng : Rng.t;
  input : pool;
  output : pool;
  mutable parcheck_busy : bool;
  mutable delivered : int;
  mutable attempts : int;
  mutable successes : int;
  mutable trace : sample list;
}

let refresh sim now p =
  let dt = now -. p.since in
  if dt > 0. then begin
    p.state <- Bell_pair.decay p.state ~t1:sim.cfg.ts ~t2:sim.cfg.ts ~dt;
    p.since <- now
  end

let refresh_all sim now pool =
  for k = 0 to pool.len - 1 do
    refresh sim now pool.slots.(k)
  done

(* Index of the first lowest-fidelity pair among those produced by
   [rounds] distillation rounds (any pair when [rounds < 0]); -1 if none. *)
let worst ?(rounds = -1) pool =
  let w = ref (-1) in
  for k = 0 to pool.len - 1 do
    let p = pool.slots.(k) in
    if (rounds < 0 || p.rounds = rounds)
       && (!w < 0
          || Bell_pair.fidelity p.state < Bell_pair.fidelity pool.slots.(!w).state)
    then w := k
  done;
  !w

(* Swap the two local halves out of storage, rotate, bilateral CNOT, read one
   pair out, move the survivor onward. *)
let op_duration cfg =
  (2. *. cfg.swap_time) +. cfg.gate_time_1q +. cfg.gate_time_2q +. cfg.readout_time

(* Noisy DEJMPS: the pairs sit on compute qubits through the gate phase
   (swap in + rotation + CNOT), taking coherence-limited decay plus any
   configured extra gate/swap depolarizing.  The survivor is swapped onward
   immediately — it waits out the 1 us parity readout in memory, not on
   compute (classical communication is neglected, so keep/discard is applied
   retroactively). *)
let noisy_dejmps cfg a b =
  let gate_phase = cfg.swap_time +. cfg.gate_time_1q +. cfg.gate_time_2q in
  let prep p =
    let p = Bell_pair.decay p ~t1:cfg.tc ~t2:cfg.tc ~dt:gate_phase in
    let p = if cfg.swap_error > 0. then Bell_pair.depolarize p ~p:cfg.swap_error else p in
    if cfg.gate_error_2q > 0. then Bell_pair.depolarize p ~p:cfg.gate_error_2q else p
  in
  let a = prep a and b = prep b in
  let p_succ, out = Bell_pair.dejmps a b in
  let out = Bell_pair.decay out ~t1:cfg.tc ~t2:cfg.tc ~dt:cfg.swap_time in
  let out = if cfg.swap_error > 0. then Bell_pair.depolarize out ~p:cfg.swap_error else out in
  (p_succ, out)

let rec try_start_distill sim des =
  if not sim.parcheck_busy then begin
    let input = sim.input in
    refresh_all sim (Des.now des) input;
    (* Priorities 1 and 3: pair only same-round pairs (entanglement
       pumping): re-distilling two distilled pairs catches the phase errors
       their previous round left unchecked, whereas pairing a distilled pair
       with a fresh one re-injects the fresh pair's unchecked errors and
       never converges.  Among same-round pairings (at most C(6,2) = 15),
       take the first one whose success branch is best. *)
    let best_i = ref (-1) and best_j = ref (-1) and best_pred = ref 0. in
    for i = 0 to input.len - 1 do
      let a = input.slots.(i) in
      for j = i + 1 to input.len - 1 do
        let b = input.slots.(j) in
        if a.rounds = b.rounds then begin
          let pred = Bell_pair.dejmps_predicted_fidelity a.state b.state in
          if !best_i < 0 || not (!best_pred >= pred) then begin
            best_i := i;
            best_j := j;
            best_pred := pred
          end
        end
      done
    done;
    if !best_i >= 0 then begin
      let a = input.slots.(!best_i) and b = input.slots.(!best_j) in
      let pred = !best_pred in
      if pred > Bell_pair.fidelity a.state && pred > Bell_pair.fidelity b.state
      then begin
        remove_at input !best_j;
        remove_at input !best_i;
        sim.parcheck_busy <- true;
        sim.attempts <- sim.attempts + 1;
        let sa = a.state and sb = b.state in
        let rounds = max a.rounds b.rounds + 1 in
        Des.schedule des ~delay:(op_duration sim.cfg) (fun des ->
            finish_distill sim des sa sb rounds)
      end
    end
  end

and finish_distill sim des sa sb rounds =
  sim.parcheck_busy <- false;
  let now = Des.now des in
  let p_succ, out = noisy_dejmps sim.cfg sa sb in
  if Rng.bernoulli sim.rng p_succ then begin
    sim.successes <- sim.successes + 1;
    let pair = { state = out; since = now; rounds } in
    if Bell_pair.fidelity out >= sim.cfg.target_fidelity then begin
      (* Priority 2: promote to output memory. *)
      refresh_all sim now sim.output;
      if sim.output.len >= sim.cfg.output_capacity then begin
        let w = worst sim.output in
        if w >= 0 then remove_at sim.output w
      end;
      push_front sim.output pair;
      sim.delivered <- sim.delivered + 1
    end
    else begin
      (* Below target: back to input memory for re-distillation, evicting a
         least-distilled pair when full — the survivor embodies two consumed
         raw pairs and must not be thrown away under arrival pressure. *)
      let input = sim.input in
      if input.len >= sim.cfg.input_capacity then begin
        let min_rounds = ref max_int in
        for k = 0 to input.len - 1 do
          if input.slots.(k).rounds < !min_rounds then
            min_rounds := input.slots.(k).rounds
        done;
        let w = worst ~rounds:!min_rounds input in
        if w >= 0 then remove_at input w
      end;
      push_front input pair
    end
  end;
  try_start_distill sim des

let store_arrival sim des pair =
  let now = Des.now des in
  let input = sim.input in
  (* Priority 4: store the incoming pair, evicting the worst stored pair if
     the memory is full and the newcomer is better. *)
  refresh_all sim now input;
  let fresh = { state = pair; since = now; rounds = 0 } in
  if input.len < sim.cfg.input_capacity then push_front input fresh
  else begin
    (* Evict the globally worst pair when the newcomer beats it: decayed
       intermediates are worth no more than their current fidelity, and
       holding them can deadlock the same-round pairing rule. *)
    let w = worst input in
    if w >= 0 && Bell_pair.fidelity input.slots.(w).state < Bell_pair.fidelity pair
    then begin
      remove_at input w;
      push_front input fresh
    end
  end;
  try_start_distill sim des

let attempts_total = Obs.Counter.create "distill.attempts_total"
let successes_total = Obs.Counter.create "distill.successes_total"
let delivered_total = Obs.Counter.create "distill.delivered_total"

let run_impl ?(trace_dt = 1e-6) cfg rng ~horizon =
  if horizon <= 0. then invalid_arg "Distill_module.run: horizon must be positive";
  let des = Des.create () in
  let sim =
    { cfg;
      rng;
      input = pool_create cfg.input_capacity;
      output = pool_create cfg.output_capacity;
      parcheck_busy = false;
      delivered = 0;
      attempts = 0;
      successes = 0;
      trace = [] }
  in
  let rec arrival des =
    if Des.now des <= horizon then begin
      store_arrival sim des (Ep_source.sample_pair cfg.source sim.rng);
      Des.schedule des ~delay:(Ep_source.next_gap cfg.source sim.rng) arrival
    end
  in
  let rec observe des =
    let now = Des.now des in
    if now <= horizon then begin
      let output = sim.output in
      refresh_all sim now output;
      let best =
        if output.len = 0 then None
        else begin
          let acc = ref 1. in
          for k = 0 to output.len - 1 do
            let v = Bell_pair.infidelity output.slots.(k).state in
            if not (!acc <= v) then acc := v
          done;
          Some !acc
        end
      in
      sim.trace <- { time = now; best_output_infidelity = best } :: sim.trace;
      Des.schedule des ~delay:trace_dt observe
    end
  in
  Des.schedule des ~delay:(Ep_source.next_gap cfg.source sim.rng) arrival;
  Des.schedule des ~delay:0. observe;
  Des.run_until des horizon;
  Obs.Counter.add attempts_total sim.attempts;
  Obs.Counter.add successes_total sim.successes;
  Obs.Counter.add delivered_total sim.delivered;
  { delivered = sim.delivered;
    distill_attempts = sim.attempts;
    distill_successes = sim.successes;
    horizon;
    trace = List.rev sim.trace }

let run ?trace_dt cfg rng ~horizon =
  Obs.Trace.with_span "distill.run"
    ~attrs:[ ("ts", Printf.sprintf "%g" cfg.ts) ]
    (fun () -> run_impl ?trace_dt cfg rng ~horizon)

let delivered_rate_per_ms (r : result) =
  float_of_int r.delivered /. (r.horizon *. 1e3)

(* Monte-Carlo delivery failures: a shot is one full DES run of [horizon]
   seconds, failing when it delivers fewer than [min_delivered] pairs at
   target fidelity.  Each shot gets its own split RNG stream so the count is
   deterministic at any [jobs] setting (the trace is suppressed — a huge
   trace_dt keeps the observer from firing more than once per run). *)
let failure_count ?jobs cfg ~horizon ~min_delivered ~shots rng =
  if min_delivered < 1 then
    invalid_arg "Distill_module.failure_count: min_delivered must be >= 1";
  Parallel.monte_carlo_count ?jobs ~rng ~shots (fun chunk_rng chunk ->
      let failures = ref 0 in
      for _ = 1 to chunk do
        let r = run_impl ~trace_dt:(2. *. horizon) cfg (Rng.split chunk_rng) ~horizon in
        if r.delivered < min_delivered then incr failures
      done;
      !failures)

let collect_task cfg ~horizon ~min_delivered =
  if horizon <= 0. then
    invalid_arg "Distill_module.collect_task: horizon must be positive";
  if min_delivered < 1 then
    invalid_arg "Distill_module.collect_task: min_delivered must be >= 1";
  Collect.Task.create ~kind:"distill.delivery"
    ~fields:
      [ ("ts", Printf.sprintf "%.17g" cfg.ts);
        ("tc", Printf.sprintf "%.17g" cfg.tc);
        ("input_capacity", string_of_int cfg.input_capacity);
        ("output_capacity", string_of_int cfg.output_capacity);
        ("swap_time", Printf.sprintf "%.17g" cfg.swap_time);
        ("swap_error", Printf.sprintf "%.17g" cfg.swap_error);
        ("gate_time_2q", Printf.sprintf "%.17g" cfg.gate_time_2q);
        ("gate_error_2q", Printf.sprintf "%.17g" cfg.gate_error_2q);
        ("gate_time_1q", Printf.sprintf "%.17g" cfg.gate_time_1q);
        ("readout_time", Printf.sprintf "%.17g" cfg.readout_time);
        ("target_fidelity", Printf.sprintf "%.17g" cfg.target_fidelity);
        ("source_rate_hz", Printf.sprintf "%.17g" cfg.source.Ep_source.rate_hz);
        ("source_infid_lo", Printf.sprintf "%.17g" cfg.source.Ep_source.infidelity_lo);
        ("source_infid_hi", Printf.sprintf "%.17g" cfg.source.Ep_source.infidelity_hi);
        ("horizon", Printf.sprintf "%.17g" horizon);
        ("min_delivered", string_of_int min_delivered) ]
    ~sample:(fun rng shots -> failure_count cfg ~horizon ~min_delivered ~shots rng)
