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
     slot order.  Fixed capacity and one decay channel rewritten in place,
     so arrivals, evictions and refreshes allocate no storage. *)
  type t = {
    w : float array;
    since : float array;
    rounds : int array;
    mutable len : int;
    chan : Bell_pair.channel;
  }

  (* The scheduler never holds more than [max 1 capacity] pairs: it only
     adds to a memory below capacity, or after evicting from a non-empty
     one. *)
  let create capacity =
    let n = max 1 capacity in
    { w = Array.make (4 * n) 0.;
      since = Array.make n 0.;
      rounds = Array.make n 0;
      len = 0;
      (* Rewritten by [refresh] before its first use. *)
      chan = Bell_pair.decay_channel ~t1:1. ~t2:1. ~dt:0. }

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

  (* A fresh Werner pair of fidelity [f]: the weights of
     [Bell_pair.werner f], written in place. *)
  let[@inline] push_werner pool f ~since =
    open_front pool ~since ~rounds:0;
    let rest = (1. -. f) /. 3. in
    pool.w.(0) <- f;
    pool.w.(1) <- rest;
    pool.w.(2) <- rest;
    pool.w.(3) <- rest

  let push_weights pool src o ~since ~rounds =
    open_front pool ~since ~rounds;
    Array.blit src o pool.w 0 4

  let remove_at pool k =
    for k = k to pool.len - 2 do
      move pool ~src:(k + 1) ~dst:k
    done;
    pool.len <- pool.len - 1

  (* Decay every pair to [now] on storage of coherence [ts] (T1 = T2).  The
     channel depends only on dt, and after a refresh every pair shares one
     [since] (only pairs stored later differ), so it is rebuilt once per
     distinct dt: the same bits as building it per pair. *)
  let refresh pool ~ts ~now =
    let last_dt = ref 0. in
    for k = 0 to pool.len - 1 do
      let dt = now -. pool.since.(k) in
      if dt > 0. then begin
        if not (dt = !last_dt) then begin
          Bell_pair.decay_into pool.chan ~t1:ts ~t2:ts ~dt;
          last_dt := dt
        end;
        Bell_pair.apply pool.chan pool.w (4 * k);
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

(* The EP source's draws, formed here from [Rng.bits53] so that no float
   crosses a module boundary: the same bits as [Rng.float] and
   [Rng.exponential]. *)
let[@inline] uniform rng = float_of_int (Rng.bits53 rng) *. 0x1.0p-53

let[@inline] draw_infidelity (src : Ep_source.t) rng =
  src.infidelity_lo +. (uniform rng *. (src.infidelity_hi -. src.infidelity_lo))

let[@inline] draw_gap (src : Ep_source.t) rng = -.log (1. -. uniform rng) /. src.rate_hz

(* [Bell_pair.decay] and [Bell_pair.depolarize] steps of fixed strength, as
   channels built once per run; [None] where those skip the pair. *)
let fixed_decay ~t ~dt = if dt <= 0. then None else Some (Bell_pair.decay_channel ~t1:t ~t2:t ~dt)
let fixed_depolarizing p = if p > 0. then Some (Bell_pair.depolarizing ~p) else None
let apply_opt c w o = match c with Some c -> Bell_pair.apply c w o | None -> ()

(* The pending events of a run: due times and kinds in a binary min-heap
   with the sift rule of the heap kept as a test oracle (a strict [<], the
   left child first), so events pop in the order that heap pops them, ties
   included.  A run has at most three pending events, so the heap is a
   root and two leaves: a push sifts up at most once and a pop sifts down
   at most once, and the times stay unboxed. *)
module Events = struct
  type t = { time : float array; kind : int array; mutable len : int }

  let create () = { time = Array.make 3 0.; kind = Array.make 3 0; len = 0 }
  let length q = q.len
  let[@inline] min_time q = q.time.(0)

  let swap q i j =
    let time = q.time.(i) and kind = q.kind.(i) in
    q.time.(i) <- q.time.(j);
    q.kind.(i) <- q.kind.(j);
    q.time.(j) <- time;
    q.kind.(j) <- kind

  let[@inline] push q time kind =
    let i = q.len in
    q.time.(i) <- time;
    q.kind.(i) <- kind;
    q.len <- i + 1;
    if i > 0 && q.time.(i) < q.time.(0) then swap q i 0

  (* Remove the earliest event and return its kind. *)
  let[@inline] pop q =
    let kind = q.kind.(0) and len = q.len - 1 in
    q.len <- len;
    if len > 0 then begin
      q.time.(0) <- q.time.(len);
      q.kind.(0) <- q.kind.(len);
      let least = if 1 < len && q.time.(1) < q.time.(0) then 1 else 0 in
      let least = if 2 < len && q.time.(2) < q.time.(least) then 2 else least in
      if least > 0 then swap q 0 least
    end;
    kind
end

(* A run's three event kinds; at most one of each is pending. *)
let arrival = 0
let finish = 1
let sample = 2

type sim = {
  cfg : config;
  rng : Rng.t;
  trace_dt : float;
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
  queue : Events.t;
}

(* Swap the two local halves out of storage, rotate, bilateral CNOT, read one
   pair out, move the survivor onward. *)
let op_duration cfg =
  (2. *. cfg.swap_time) +. cfg.gate_time_1q +. cfg.gate_time_2q +. cfg.readout_time

(* The gate phase of one pair of [sim.pending], at offset [o]. *)
let prepare sim o =
  apply_opt sim.gate_decay sim.pending o;
  apply_opt sim.swap_depol sim.pending o;
  apply_opt sim.gate_depol sim.pending o

(* Noisy DEJMPS on [sim.pending]: the pairs sit on compute qubits through
   the gate phase (swap in + rotation + CNOT), taking coherence-limited
   decay plus any configured extra gate/swap depolarizing.  The survivor is
   swapped onward immediately — it waits out the 1 us parity readout in
   memory, not on compute (classical communication is neglected, so
   keep/discard is applied retroactively).  Returns the success
   probability. *)
let noisy_dejmps sim =
  prepare sim 0;
  prepare sim 4;
  let p_succ = Bell_pair.dejmps_in_place sim.pending 0 4 in
  apply_opt sim.swap_decay sim.pending 0;
  apply_opt sim.swap_depol sim.pending 0;
  p_succ

let try_start_distill sim now =
  if not sim.parcheck_busy then begin
    let input = sim.input in
    Pool.refresh input ~ts:sim.cfg.ts ~now;
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
        Events.push sim.queue (now +. sim.op_duration) finish
      end
    end
  end

let finish_distill sim now =
  sim.parcheck_busy <- false;
  let p_succ = noisy_dejmps sim in
  if uniform sim.rng < p_succ then begin
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

(* An EP arrives with a drawn infidelity; the next arrival is drawn after
   the scheduler has reacted. *)
let on_arrival sim now =
  let src = sim.cfg.source in
  let f = 1. -. draw_infidelity src sim.rng in
  if f < 0. || f > 1. then invalid_arg "Distill_module.run: EP fidelity outside [0, 1]";
  let input = sim.input in
  (* Priority 4: store the incoming pair, evicting the worst stored pair if
     the memory is full and the newcomer is better. *)
  Pool.refresh input ~ts:sim.cfg.ts ~now;
  if input.len < sim.cfg.input_capacity then Pool.push_werner input f ~since:now
  else begin
    (* Evict the globally worst pair when the newcomer beats it: decayed
       intermediates are worth no more than their current fidelity, and
       holding them can deadlock the same-round pairing rule. *)
    let w = Pool.worst input ~rounds:(-1) in
    if w >= 0 && Pool.fidelity input w < f then begin
      Pool.remove_at input w;
      Pool.push_werner input f ~since:now
    end
  end;
  try_start_distill sim now;
  Events.push sim.queue (now +. draw_gap src sim.rng) arrival

let on_finish sim now =
  finish_distill sim now;
  try_start_distill sim now

(* A trace sample: the best output infidelity, decayed to [now]. *)
let on_sample sim now =
  let output = sim.output in
  Pool.refresh output ~ts:sim.cfg.ts ~now;
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
  Events.push sim.queue (now +. sim.trace_dt) sample

let attempts_total = Obs.Counter.create "distill.attempts_total"
let successes_total = Obs.Counter.create "distill.successes_total"
let delivered_total = Obs.Counter.create "distill.delivered_total"

(* Named for the event engine the loop replaced; perfbench reads it. *)
let events_total = Obs.Counter.create "des.events_total"

let run_impl ?(trace_dt = 1e-6) cfg rng ~horizon =
  if not (horizon > 0. && horizon < infinity) then
    invalid_arg "Distill_module.run: horizon must be positive and finite";
  if not (trace_dt > 0.) then invalid_arg "Distill_module.run: trace_dt must be positive";
  if not (cfg.source.rate_hz > 0. && cfg.source.rate_hz < infinity) then
    invalid_arg "Distill_module.run: EP rate must be positive and finite";
  let op_duration = op_duration cfg in
  if not (op_duration >= 0.) then
    invalid_arg "Distill_module.run: operation time must not be negative";
  (* A sample is taken at 0 and then every [trace_dt], each time at the
     last sample's time plus [trace_dt], while within the horizon.
     Counting those times the same way sizes the trace exactly, once.  With
     fewer than 2^52 periods in the horizon, [trace_dt] exceeds an ulp of
     any time up to the horizon, so every step advances and both the count
     and the sampling end. *)
  if not (horizon /. trace_dt < 0x1p52) then
    invalid_arg "Distill_module.run: trace_dt too small for the horizon";
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
      trace_dt;
      input = Pool.create cfg.input_capacity;
      output = Pool.create cfg.output_capacity;
      op_duration;
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
      trace_len = 0;
      queue = Events.create () }
  in
  let queue = sim.queue and events = ref 0 in
  Events.push queue (draw_gap cfg.source rng) arrival;
  Events.push queue 0. sample;
  while Events.length queue > 0 && Events.min_time queue <= horizon do
    let now = Events.min_time queue in
    let kind = Events.pop queue in
    incr events;
    if kind = arrival then on_arrival sim now
    else if kind = finish then on_finish sim now
    else on_sample sim now
  done;
  Obs.Counter.add events_total !events;
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

(* Monte-Carlo delivery failures: a shot is one full run of [horizon]
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
  if not (horizon > 0.) then
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
