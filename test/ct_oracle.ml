(* The code-teleportation pipeline as it ran before it became a loop: one
   closure per pipeline step on a [Des] engine, the CAT, |+> and join
   events queued beside the EP collection chain.  [Ct_protocol.run] must
   return the same count and the same latency bits, and leave the generator
   in the same state, for the same stage times, horizon and generator. *)

open Ct_protocol

(* Pipeline state per in-flight preparation. *)
type prep = {
  started : float;
  mutable eps : int;
  mutable cat_done : bool;
  mutable plus_a_done : bool;
  mutable plus_b_done : bool;
}

let run st rng ~horizon =
  if horizon <= 0. then invalid_arg "Ct_oracle.run: horizon must be positive";
  if st.ep_period = infinity then
    { produced = 0; mean_latency = 0.; max_latency = 0.; horizon }
  else begin
    let des = Des.create () in
    let produced = ref 0 in
    let latency_sum = ref 0. and latency_max = ref 0. in
    let rec start_prep des =
      if Des.now des <= horizon then begin
        let p =
          { started = Des.now des; eps = 0; cat_done = false; plus_a_done = false;
            plus_b_done = false }
        in
        (* Step 1: collect EPs (serial on the distillation module). *)
        let rec collect des =
          p.eps <- p.eps + 1;
          if p.eps < st.eps_needed then
            Des.schedule des ~delay:(Rng.exponential rng (1. /. st.ep_period)) collect
          else begin
            (* Steps 2-3 proceed in parallel: CAT growth and the two
               logical |+> preparations. *)
            Des.schedule des ~delay:st.cat_time (fun des ->
                p.cat_done <- true;
                join des);
            Des.schedule des ~delay:st.plus_time_a (fun des ->
                p.plus_a_done <- true;
                join des);
            Des.schedule des ~delay:st.plus_time_b (fun des ->
                p.plus_b_done <- true;
                join des);
            (* the distillation module is free again: pipeline the next
               preparation's EP collection *)
            Des.schedule des ~delay:(Rng.exponential rng (1. /. st.ep_period)) (fun des ->
                start_prep des)
          end
        and join des =
          (* Steps 4-6 once CAT and both |+> states exist. *)
          if p.cat_done && p.plus_a_done && p.plus_b_done then
            Des.schedule des ~delay:(st.transversal_time +. st.meas_time) (fun des ->
                let latency = Des.now des -. p.started in
                if Des.now des <= horizon then begin
                  incr produced;
                  latency_sum := !latency_sum +. latency;
                  if latency > !latency_max then latency_max := latency
                end)
        in
        Des.schedule des ~delay:(Rng.exponential rng (1. /. st.ep_period)) collect
      end
    in
    start_prep des;
    Des.run_until des horizon;
    { produced = !produced;
      mean_latency = (if !produced = 0 then 0. else !latency_sum /. float_of_int !produced);
      max_latency = !latency_max;
      horizon }
  end
