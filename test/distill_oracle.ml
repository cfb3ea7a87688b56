(* The distillation module's event loop as it was before it got its own
   queue: one closure per event kind on a [Des] engine, the EP draws taken
   through [Rng.float], [Rng.exponential] and [Bell_pair.werner], one decay
   channel record per refresh.  [Distill_module.run] must return the same
   counts and the same trace bits, and process as many [des.events_total]
   events, for the same configuration, horizon, trace period and
   generator. *)

open Distill_module

module Pool = struct
  type t = { w : float array; since : float array; rounds : int array; mutable len : int }

  let create capacity =
    let n = max 1 capacity in
    { w = Array.make (4 * n) 0.; since = Array.make n 0.; rounds = Array.make n 0; len = 0 }

  let fidelity pool k = pool.w.(4 * k)

  let move pool ~src ~dst =
    for c = 0 to 3 do
      pool.w.((4 * dst) + c) <- pool.w.((4 * src) + c)
    done;
    pool.since.(dst) <- pool.since.(src);
    pool.rounds.(dst) <- pool.rounds.(src)

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

  let refresh pool ~ts ~now =
    let last_dt = ref 0. and chan = ref (Bell_pair.decay_channel ~t1:1. ~t2:1. ~dt:0.) in
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

  let pairing_score pool i j =
    Bell_pair.dejmps_predicted_fidelity (Bell_pair.of_probs pool.w (4 * i))
      (Bell_pair.of_probs pool.w (4 * j))

  let worst pool ~rounds =
    let w = ref (-1) in
    for k = 0 to pool.len - 1 do
      if (rounds < 0 || pool.rounds.(k) = rounds)
         && (!w < 0 || fidelity pool k < fidelity pool !w)
      then w := k
    done;
    !w
end

let fixed_decay ~t ~dt = if dt <= 0. then None else Some (Bell_pair.decay_channel ~t1:t ~t2:t ~dt)
let fixed_depolarizing p = if p > 0. then Some (Bell_pair.depolarizing ~p) else None
let apply_opt c w o = match c with Some c -> Bell_pair.apply c w o | None -> ()

let sample_pair (src : Ep_source.t) rng =
  let infid = src.infidelity_lo +. Rng.float rng (src.infidelity_hi -. src.infidelity_lo) in
  Bell_pair.werner (1. -. infid)

let next_gap (src : Ep_source.t) rng = Rng.exponential rng src.rate_hz

let run ?(trace_dt = 1e-6) cfg rng ~horizon =
  let des = Des.create () in
  let samples =
    let n = ref 0 and t = ref 0. in
    while !t <= horizon do
      incr n;
      t := !t +. trace_dt
    done;
    !n
  in
  let input = Pool.create cfg.input_capacity and output = Pool.create cfg.output_capacity in
  let op_duration =
    (2. *. cfg.swap_time) +. cfg.gate_time_1q +. cfg.gate_time_2q +. cfg.readout_time
  in
  let gate_decay =
    fixed_decay ~t:cfg.tc ~dt:(cfg.swap_time +. cfg.gate_time_1q +. cfg.gate_time_2q)
  and swap_decay = fixed_decay ~t:cfg.tc ~dt:cfg.swap_time
  and swap_depol = fixed_depolarizing cfg.swap_error
  and gate_depol = fixed_depolarizing cfg.gate_error_2q in
  let pending = Array.make 8 0. and pending_rounds = ref 0 and busy = ref false in
  let delivered = ref 0 and attempts = ref 0 and successes = ref 0 in
  let trace_time = Array.make samples 0. and trace_best = Array.make samples nan in
  let trace_len = ref 0 in
  let noisy_dejmps () =
    let prep o =
      apply_opt gate_decay pending o;
      apply_opt swap_depol pending o;
      apply_opt gate_depol pending o
    in
    prep 0;
    prep 4;
    let p_succ = Bell_pair.dejmps_in_place pending 0 4 in
    apply_opt swap_decay pending 0;
    apply_opt swap_depol pending 0;
    p_succ
  in
  let try_start des ~finish =
    if not !busy then begin
      Pool.refresh input ~ts:cfg.ts ~now:(Des.now des);
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
          Array.blit input.w (4 * i) pending 0 4;
          Array.blit input.w (4 * j) pending 4 4;
          pending_rounds := max input.rounds.(i) input.rounds.(j) + 1;
          Pool.remove_at input j;
          Pool.remove_at input i;
          busy := true;
          incr attempts;
          Des.schedule des ~delay:op_duration finish
        end
      end
    end
  in
  let finish_distill des =
    busy := false;
    let now = Des.now des in
    let p_succ = noisy_dejmps () in
    if Rng.bernoulli rng p_succ then begin
      incr successes;
      let rounds = !pending_rounds in
      if pending.(0) >= cfg.target_fidelity then begin
        Pool.refresh output ~ts:cfg.ts ~now;
        if output.len >= cfg.output_capacity then begin
          let w = Pool.worst output ~rounds:(-1) in
          if w >= 0 then Pool.remove_at output w
        end;
        Pool.push_weights output pending 0 ~since:now ~rounds;
        incr delivered
      end
      else begin
        if input.len >= cfg.input_capacity then begin
          let min_rounds = ref max_int in
          for k = 0 to input.len - 1 do
            if input.rounds.(k) < !min_rounds then min_rounds := input.rounds.(k)
          done;
          let w = Pool.worst input ~rounds:!min_rounds in
          if w >= 0 then Pool.remove_at input w
        end;
        Pool.push_weights input pending 0 ~since:now ~rounds
      end
    end
  in
  let store_arrival des (pair : Bell_pair.t) =
    let now = Des.now des in
    Pool.refresh input ~ts:cfg.ts ~now;
    if input.len < cfg.input_capacity then Pool.push input pair ~since:now ~rounds:0
    else begin
      let w = Pool.worst input ~rounds:(-1) in
      if w >= 0 && Pool.fidelity input w < pair.phi_p then begin
        Pool.remove_at input w;
        Pool.push input pair ~since:now ~rounds:0
      end
    end
  in
  let rec finish des =
    finish_distill des;
    try_start des ~finish
  in
  let rec arrival des =
    if Des.now des <= horizon then begin
      store_arrival des (sample_pair cfg.source rng);
      try_start des ~finish;
      Des.schedule des ~delay:(next_gap cfg.source rng) arrival
    end
  in
  let rec observe des =
    let now = Des.now des in
    if now <= horizon then begin
      Pool.refresh output ~ts:cfg.ts ~now;
      let i = !trace_len in
      trace_time.(i) <- now;
      if output.len > 0 then begin
        let acc = ref 1. in
        for k = 0 to output.len - 1 do
          let v = 1. -. Pool.fidelity output k in
          if not (!acc <= v) then acc := v
        done;
        trace_best.(i) <- !acc
      end;
      trace_len := i + 1;
      Des.schedule des ~delay:trace_dt observe
    end
  in
  Des.schedule des ~delay:(next_gap cfg.source rng) arrival;
  Des.schedule des ~delay:0. observe;
  Des.run_until des horizon;
  { delivered = !delivered;
    distill_attempts = !attempts;
    distill_successes = !successes;
    horizon;
    trace_time;
    trace_best }
