type stage_times = {
  ep_period : float;
  eps_needed : int;
  cat_time : float;
  plus_time_a : float;
  plus_time_b : float;
  transversal_time : float;
  meas_time : float;
}

let characterize ?(params = Teleport.default_params) ~code_a ~code_b ~ts rng =
  (* EP period from a short calibration run of the distillation module. *)
  let dcfg =
    { (Distill_module.heterogeneous ~ts ~rate_hz:params.Teleport.ep_rate_hz ()) with
      Distill_module.target_fidelity = params.Teleport.ep_target }
  in
  let calib = Distill_module.run dcfg rng ~horizon:2e-3 in
  let ep_period =
    if calib.Distill_module.delivered = 0 then infinity
    else calib.Distill_module.horizon /. float_of_int calib.Distill_module.delivered
  in
  let u = params.Teleport.uec in
  let n_cat = code_a.Code.n + code_b.Code.n in
  let cat_time =
    (float_of_int (n_cat - 1) *. (u.Uec.t_2q +. (2. *. u.Uec.t_swap)))
    +. (float_of_int params.Teleport.cat_verify_checks
       *. ((2. *. u.Uec.t_2q) +. u.Uec.t_readout))
  in
  let round_time code =
    let prof = Uec.profile ~params:u (Uec.Het { ts }) code in
    prof.Uec.round_time
  in
  let plus_time code = 2. *. round_time code in
  let transversal_time =
    float_of_int n_cat *. ((2. *. u.Uec.t_swap) +. u.Uec.t_2q)
  in
  { ep_period;
    eps_needed = 1 + params.Teleport.cat_verify_checks;
    cat_time;
    plus_time_a = plus_time code_a;
    plus_time_b = plus_time code_b;
    transversal_time;
    meas_time = round_time code_a }

type result = {
  produced : int;
  mean_latency : float;
  max_latency : float;
  horizon : float;
}

(* Only EP collection draws from the generator, and it is serial: each
   preparation collects its EPs one exponential gap after another, then one
   more gap passes before the next preparation starts collecting.  The
   stages after collection take fixed times, so a preparation whose
   collection ends at [c] completes at the latest of its CAT and two |+>
   stages plus the transversal and measurement time, and completions come
   in the order the preparations started. *)
let run st rng ~horizon =
  if not (horizon > 0. && horizon < infinity) then
    invalid_arg "Ct_protocol.run: horizon must be positive and finite";
  if not (st.ep_period > 0.) then invalid_arg "Ct_protocol.run: ep_period must be positive";
  List.iter
    (fun t -> if not (t >= 0.) then invalid_arg "Ct_protocol.run: negative or NaN stage time")
    [ st.cat_time; st.plus_time_a; st.plus_time_b; st.transversal_time; st.meas_time ];
  let produced = ref 0 and latency_sum = ref 0. and latency_max = ref 0. in
  if st.ep_period < infinity then begin
    let gap () = Rng.exponential rng (1. /. st.ep_period) in
    let finish_time = st.transversal_time +. st.meas_time in
    let started = ref 0. in
    while !started <= horizon do
      (* Step 1: collect the EPs; at least one gap even when none is needed. *)
      let collected = ref (!started +. gap ()) and eps = ref 1 in
      while !eps < st.eps_needed && !collected <= horizon do
        collected := !collected +. gap ();
        incr eps
      done;
      let c = !collected in
      if c <= horizon then begin
        (* Steps 2-3 in parallel, then steps 4-6 once all three are done. *)
        let join =
          Float.max (c +. st.cat_time) (Float.max (c +. st.plus_time_a) (c +. st.plus_time_b))
        in
        let completed = join +. finish_time in
        if completed <= horizon then begin
          let latency = completed -. !started in
          incr produced;
          latency_sum := !latency_sum +. latency;
          if latency > !latency_max then latency_max := latency
        end;
        started := c +. gap ()
      end
      else started := infinity
    done
  end;
  { produced = !produced;
    mean_latency = (if !produced = 0 then 0. else !latency_sum /. float_of_int !produced);
    max_latency = !latency_max;
    horizon }

let throughput_per_ms r = float_of_int r.produced /. (r.horizon *. 1e3)
