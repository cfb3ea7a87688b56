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

type result = {
  delivered : int;
  distill_attempts : int;
  distill_successes : int;
  horizon : float;
  trace_time : float array;
  trace_best : float array;
}

module Pool = struct
  (* A memory of stored pairs in flat storage, newest first in slots
     [0 .. len - 1]: slot [k]'s Bell weights are [w.(4k .. 4k + 3)] in
     [Bell_pair.to_probs] order, [since.(k)] is when they were last decayed
     and [rounds.(k)] how many distillation rounds produced the pair.  The
     scheduler's ties (first best pairing, first worst pair) are broken in
     slot order.  Fixed capacity, so arrivals, evictions and refreshes
     allocate nothing beyond the decay channels. *)
  type t = { w : float array; since : float array; rounds : int array; mutable len : int }

  (* The scheduler never holds more than [max 1 capacity] pairs: it only
     adds to a memory below capacity, or after evicting from a non-empty
     one. *)
  let create capacity =
    let n = max 1 capacity in
    { w = Array.make (4 * n) 0.; since = Array.make n 0.; rounds = Array.make n 0; len = 0 }

  let length pool = pool.len
  let get pool k = Bell_pair.of_probs pool.w (4 * k)
  let[@inline] fidelity pool k = pool.w.(4 * k)

  (* Copy slot [src] over slot [dst]: a pool holds a handful of pairs, so
     shifts are plain loops rather than three [Array.blit] calls. *)
  let move pool ~src ~dst =
    for c = 0 to 3 do
      pool.w.((4 * dst) + c) <- pool.w.((4 * src) + c)
    done;
    pool.since.(dst) <- pool.since.(src);
    pool.rounds.(dst) <- pool.rounds.(src)

  (* Shift every slot up by one; the caller fills slot 0's weights. *)
  let open_front pool ~since ~rounds =
    for k = pool.len - 1 downto 0 do
      move pool ~src:k ~dst:(k + 1)
    done;
    pool.since.(0) <- since;
    pool.rounds.(0) <- rounds;
    pool.len <- pool.len + 1

  let push pool (pair : Bell_pair.t) ~since ~rounds =
    open_front pool ~since ~rounds;
    pool.w.(0) <- pair.phi_p;
    pool.w.(1) <- pair.psi_p;
    pool.w.(2) <- pair.psi_m;
    pool.w.(3) <- pair.phi_m

  let push_weights pool src o ~since ~rounds =
    open_front pool ~since ~rounds;
    Array.blit src o pool.w 0 4

  let remove_at pool k =
    for k = k to pool.len - 2 do
      move pool ~src:(k + 1) ~dst:k
    done;
    pool.len <- pool.len - 1

  (* Never applied: [refresh] builds a channel before its first use. *)
  let no_channel = Bell_pair.decay_channel ~t1:1. ~t2:1. ~dt:0.

  (* Decay every pair to [now] on storage of coherence [ts] (T1 = T2).  The
     channel depends only on dt, and after a refresh every pair shares one
     [since] (only pairs stored later differ), so it is built once per
     distinct dt: the same bits as building it per pair. *)
  let refresh pool ~ts ~now =
    let last_dt = ref 0. and chan = ref no_channel in
    for k = 0 to pool.len - 1 do
      let dt = now -. pool.since.(k) in
      if dt > 0. then begin
        if not (dt = !last_dt) then begin
          chan := Bell_pair.decay_channel ~t1:ts ~t2:ts ~dt;
          last_dt := dt
        end;
        Bell_pair.apply !chan pool.w (4 * k);
        pool.since.(k) <- now
      end
    done

  (* [Bell_pair.dejmps_predicted_fidelity] of slots [i] and [j], read
     straight from the weights. *)
  let[@inline] pairing_score pool i j =
    let w = pool.w and a = 4 * i and b = 4 * j in
    let a_phi_p = w.(a) and a_psi_p = w.(a + 1) and a_psi_m = w.(a + 2) and a_phi_m = w.(a + 3)
    and b_phi_p = w.(b) and b_psi_p = w.(b + 1) and b_psi_m = w.(b + 2) and b_phi_m = w.(b + 3) in
    let p =
      ((a_phi_p +. a_psi_m) *. (b_phi_p +. b_psi_m))
      +. ((a_psi_p +. a_phi_m) *. (b_psi_p +. b_phi_m))
    in
    if p <= 0. then 1. else (0. +. (a_phi_p *. b_phi_p /. p)) +. (a_psi_m *. b_psi_m /. p)

  (* Index of the first lowest-fidelity pair among those produced by
     [rounds] distillation rounds (any pair when [rounds < 0]); -1 if none. *)
  let worst pool ~rounds =
    let w = ref (-1) in
    for k = 0 to pool.len - 1 do
      if (rounds < 0 || pool.rounds.(k) = rounds)
         && (!w < 0 || fidelity pool k < fidelity pool !w)
      then w := k
    done;
    !w
end

(* [Bell_pair.decay] and [Bell_pair.depolarize] steps of fixed strength, as
   channels built once per run; [None] where those skip the pair. *)
let fixed_decay ~t ~dt = if dt <= 0. then None else Some (Bell_pair.decay_channel ~t1:t ~t2:t ~dt)
let fixed_depolarizing p = if p > 0. then Some (Bell_pair.depolarizing ~p) else None
let apply_opt c w o = match c with Some c -> Bell_pair.apply c w o | None -> ()

type sim = {
  cfg : config;
  rng : Rng.t;
  input : Pool.t;
  output : Pool.t;
  op_duration : float;
  gate_decay : Bell_pair.channel option;  (* Tc over the gate phase *)
  swap_decay : Bell_pair.channel option;  (* Tc over one SWAP *)
  swap_depol : Bell_pair.channel option;
  gate_depol : Bell_pair.channel option;
  (* The pair under parity check, pair a at 0 and pair b at 4 (at most one
     check is in flight); its survivor is written over pair a. *)
  pending : float array;
  mutable pending_rounds : int;
  mutable parcheck_busy : bool;
  mutable delivered : int;
  mutable attempts : int;
  mutable successes : int;
  (* Trace samples in flat float storage, [trace_len] of them so far. *)
  trace_time : float array;
  trace_best : float array;
  mutable trace_len : int;
}

(* Swap the two local halves out of storage, rotate, bilateral CNOT, read one
   pair out, move the survivor onward. *)
let op_duration cfg =
  (2. *. cfg.swap_time) +. cfg.gate_time_1q +. cfg.gate_time_2q +. cfg.readout_time

(* Noisy DEJMPS on [sim.pending]: the pairs sit on compute qubits through
   the gate phase (swap in + rotation + CNOT), taking coherence-limited
   decay plus any configured extra gate/swap depolarizing.  The survivor is
   swapped onward immediately — it waits out the 1 us parity readout in
   memory, not on compute (classical communication is neglected, so
   keep/discard is applied retroactively).  Returns the success
   probability. *)
let noisy_dejmps sim =
  let w = sim.pending in
  let prep o =
    apply_opt sim.gate_decay w o;
    apply_opt sim.swap_depol w o;
    apply_opt sim.gate_depol w o
  in
  prep 0;
  prep 4;
  let p_succ = Bell_pair.dejmps_in_place w 0 4 in
  apply_opt sim.swap_decay w 0;
  apply_opt sim.swap_depol w 0;
  p_succ

let try_start_distill sim des ~finish =
  if not sim.parcheck_busy then begin
    let input = sim.input in
    Pool.refresh input ~ts:sim.cfg.ts ~now:(Des.now des);
    (* Priorities 1 and 3: pair only same-round pairs (entanglement
       pumping): re-distilling two distilled pairs catches the phase errors
       their previous round left unchecked, whereas pairing a distilled pair
       with a fresh one re-injects the fresh pair's unchecked errors and
       never converges.  Among same-round pairings (at most C(6,2) = 15),
       take the first one whose success branch is best. *)
    let best_i = ref (-1) and best_j = ref (-1) and best_pred = ref 0. in
    for i = 0 to input.len - 1 do
      for j = i + 1 to input.len - 1 do
        if input.rounds.(i) = input.rounds.(j) then begin
          let pred = Pool.pairing_score input i j in
          if !best_i < 0 || not (!best_pred >= pred) then begin
            best_i := i;
            best_j := j;
            best_pred := pred
          end
        end
      done
    done;
    let i = !best_i and j = !best_j in
    if i >= 0 then begin
      let pred = !best_pred in
      if pred > Pool.fidelity input i && pred > Pool.fidelity input j then begin
        Array.blit input.w (4 * i) sim.pending 0 4;
        Array.blit input.w (4 * j) sim.pending 4 4;
        sim.pending_rounds <- max input.rounds.(i) input.rounds.(j) + 1;
        Pool.remove_at input j;
        Pool.remove_at input i;
        sim.parcheck_busy <- true;
        sim.attempts <- sim.attempts + 1;
        Des.schedule des ~delay:sim.op_duration finish
      end
    end
  end

let finish_distill sim des =
  sim.parcheck_busy <- false;
  let now = Des.now des in
  let p_succ = noisy_dejmps sim in
  if Rng.bernoulli sim.rng p_succ then begin
    sim.successes <- sim.successes + 1;
    let rounds = sim.pending_rounds in
    if sim.pending.(0) >= sim.cfg.target_fidelity then begin
      (* Priority 2: promote to output memory. *)
      let output = sim.output in
      Pool.refresh output ~ts:sim.cfg.ts ~now;
      if output.len >= sim.cfg.output_capacity then begin
        let w = Pool.worst output ~rounds:(-1) in
        if w >= 0 then Pool.remove_at output w
      end;
      Pool.push_weights output sim.pending 0 ~since:now ~rounds;
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
          if input.rounds.(k) < !min_rounds then min_rounds := input.rounds.(k)
        done;
        let w = Pool.worst input ~rounds:!min_rounds in
        if w >= 0 then Pool.remove_at input w
      end;
      Pool.push_weights input sim.pending 0 ~since:now ~rounds
    end
  end

let store_arrival sim des (pair : Bell_pair.t) =
  let now = Des.now des in
  let input = sim.input in
  (* Priority 4: store the incoming pair, evicting the worst stored pair if
     the memory is full and the newcomer is better. *)
  Pool.refresh input ~ts:sim.cfg.ts ~now;
  if input.len < sim.cfg.input_capacity then Pool.push input pair ~since:now ~rounds:0
  else begin
    (* Evict the globally worst pair when the newcomer beats it: decayed
       intermediates are worth no more than their current fidelity, and
       holding them can deadlock the same-round pairing rule. *)
    let w = Pool.worst input ~rounds:(-1) in
    if w >= 0 && Pool.fidelity input w < pair.phi_p then begin
      Pool.remove_at input w;
      Pool.push input pair ~since:now ~rounds:0
    end
  end

let attempts_total = Obs.Counter.create "distill.attempts_total"
let successes_total = Obs.Counter.create "distill.successes_total"
let delivered_total = Obs.Counter.create "distill.delivered_total"

let run_impl ?(trace_dt = 1e-6) cfg rng ~horizon =
  if horizon <= 0. then invalid_arg "Distill_module.run: horizon must be positive";
  let des = Des.create () in
  (* The observer fires at 0 and then every [trace_dt], each time at the
     clock plus [trace_dt], while within the horizon.  Counting those times
     the same way sizes the trace exactly, once. *)
  let samples =
    let n = ref 0 and t = ref 0. in
    while !t <= horizon do
      incr n;
      t := !t +. trace_dt
    done;
    !n
  in
  let sim =
    { cfg;
      rng;
      input = Pool.create cfg.input_capacity;
      output = Pool.create cfg.output_capacity;
      op_duration = op_duration cfg;
      gate_decay =
        fixed_decay ~t:cfg.tc ~dt:(cfg.swap_time +. cfg.gate_time_1q +. cfg.gate_time_2q);
      swap_decay = fixed_decay ~t:cfg.tc ~dt:cfg.swap_time;
      swap_depol = fixed_depolarizing cfg.swap_error;
      gate_depol = fixed_depolarizing cfg.gate_error_2q;
      pending = Array.make 8 0.;
      pending_rounds = 0;
      parcheck_busy = false;
      delivered = 0;
      attempts = 0;
      successes = 0;
      trace_time = Array.make samples 0.;
      trace_best = Array.make samples nan;
      trace_len = 0 }
  in
  (* One completion handler per run: it reads the pending pair from [sim]. *)
  let rec finish des =
    finish_distill sim des;
    try_start_distill sim des ~finish
  in
  let rec arrival des =
    if Des.now des <= horizon then begin
      store_arrival sim des (Ep_source.sample_pair cfg.source sim.rng);
      try_start_distill sim des ~finish;
      Des.schedule des ~delay:(Ep_source.next_gap cfg.source sim.rng) arrival
    end
  in
  let rec observe des =
    let now = Des.now des in
    if now <= horizon then begin
      let output = sim.output in
      Pool.refresh output ~ts:cfg.ts ~now;
      let i = sim.trace_len in
      sim.trace_time.(i) <- now;
      if output.len > 0 then begin
        let acc = ref 1. in
        for k = 0 to output.len - 1 do
          let v = 1. -. Pool.fidelity output k in
          if not (!acc <= v) then acc := v
        done;
        sim.trace_best.(i) <- !acc
      end;
      sim.trace_len <- i + 1;
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
    trace_time = sim.trace_time;
    trace_best = sim.trace_best }

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
