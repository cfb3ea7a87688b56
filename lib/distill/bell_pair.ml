type t = { phi_p : float; psi_p : float; psi_m : float; phi_m : float }

let werner f =
  if f < 0. || f > 1. then invalid_arg "Bell_pair.werner";
  let rest = (1. -. f) /. 3. in
  { phi_p = f; psi_p = rest; psi_m = rest; phi_m = rest }

let perfect = { phi_p = 1.; psi_p = 0.; psi_m = 0.; phi_m = 0. }

let fidelity t = t.phi_p
let infidelity t = 1. -. t.phi_p

let total t = t.phi_p +. t.psi_p +. t.psi_m +. t.phi_m

let validate t =
  if t.phi_p < -1e-9 || t.psi_p < -1e-9 || t.psi_m < -1e-9 || t.phi_m < -1e-9 then
    invalid_arg "Bell_pair.validate: negative weight";
  if Float.abs (total t -. 1.) > 1e-6 then
    invalid_arg "Bell_pair.validate: weights do not sum to 1"

let normalize t =
  let s = total t in
  if s <= 0. then invalid_arg "Bell_pair.normalize: zero state";
  { phi_p = t.phi_p /. s; psi_p = t.psi_p /. s; psi_m = t.psi_m /. s; phi_m = t.phi_m /. s }

(* A single-qubit Pauli on either half permutes the Bell basis:
   X: phi+ <-> psi+, phi- <-> psi-;  Z: phi+ <-> phi-, psi+ <-> psi-;
   Y: phi+ <-> psi-, psi+ <-> phi-. *)
let apply_pauli_half t ~px ~py ~pz =
  let pi = 1. -. px -. py -. pz in
  if pi < -1e-12 then invalid_arg "Bell_pair.apply_pauli_half: probabilities exceed 1";
  { phi_p = (pi *. t.phi_p) +. (px *. t.psi_p) +. (py *. t.psi_m) +. (pz *. t.phi_m);
    psi_p = (pi *. t.psi_p) +. (px *. t.phi_p) +. (py *. t.phi_m) +. (pz *. t.psi_m);
    psi_m = (pi *. t.psi_m) +. (px *. t.phi_m) +. (py *. t.phi_p) +. (pz *. t.psi_p);
    phi_m = (pi *. t.phi_m) +. (px *. t.psi_m) +. (py *. t.psi_p) +. (pz *. t.phi_p) }

(* A Pauli channel on each half of a pair with px = py: the twirled idle
   channel of [twirl_probs] and the depolarizing channel both have that
   form.  [pi] is computed once, as [apply_pauli_half] computes it.  An
   all-float record is stored flat, so [decay_into] rewrites one in place
   without allocating. *)
type channel = { mutable px : float; mutable pz : float; mutable pi : float }

let[@inline] set c ~px ~pz =
  let pi = 1. -. px -. px -. pz in
  if pi < -1e-12 then invalid_arg "Bell_pair.apply_pauli_half: probabilities exceed 1";
  c.px <- px;
  c.pz <- pz;
  c.pi <- pi

(* Pauli-twirled thermal idling for [dt] on one half.  When [t1] and [t2]
   have the same bits the two exponentials are the same number, so one is
   computed; equal floats are not enough ([0.] and [-0.] divide [dt] into
   infinities of opposite signs). *)
let decay_into c ~t1 ~t2 ~dt =
  let e1 = exp (-.dt /. t1) in
  let e2 =
    if Int64.bits_of_float t1 = Int64.bits_of_float t2 then e1 else exp (-.dt /. t2)
  in
  let p1 = (1. -. e1) /. 4. in
  let z = ((1. -. e2) /. 2.) -. p1 in
  set c ~px:p1 ~pz:(if 0. >= z then 0. else z)

let decay_channel ~t1 ~t2 ~dt =
  let c = { px = 0.; pz = 0.; pi = 1. } in
  decay_into c ~t1 ~t2 ~dt;
  c

let twirl_probs ~t1 ~t2 ~dt =
  let c = decay_channel ~t1 ~t2 ~dt in
  (c.px, c.px, c.pz)

let depolarizing ~p =
  let comp = p /. 3. and c = { px = 0.; pz = 0.; pi = 1. } in
  set c ~px:comp ~pz:comp;
  c

(* [apply_pauli_half] twice, the same float operations in the same order,
   on four weights in [to_probs] order at [w.(o) .. w.(o + 3)], in place:
   the scheduler keeps its stored pairs in flat float arrays. *)
let apply c w o =
  let px = c.px and py = c.px and pz = c.pz and pi = c.pi in
  let phi_p = w.(o) and psi_p = w.(o + 1) and psi_m = w.(o + 2) and phi_m = w.(o + 3) in
  let phi_p1 = (pi *. phi_p) +. (px *. psi_p) +. (py *. psi_m) +. (pz *. phi_m)
  and psi_p1 = (pi *. psi_p) +. (px *. phi_p) +. (py *. phi_m) +. (pz *. psi_m)
  and psi_m1 = (pi *. psi_m) +. (px *. phi_m) +. (py *. phi_p) +. (pz *. psi_p)
  and phi_m1 = (pi *. phi_m) +. (px *. psi_m) +. (py *. psi_p) +. (pz *. phi_p) in
  w.(o) <- (pi *. phi_p1) +. (px *. psi_p1) +. (py *. psi_m1) +. (pz *. phi_m1);
  w.(o + 1) <- (pi *. psi_p1) +. (px *. phi_p1) +. (py *. phi_m1) +. (pz *. psi_m1);
  w.(o + 2) <- (pi *. psi_m1) +. (px *. phi_m1) +. (py *. phi_p1) +. (pz *. psi_p1);
  w.(o + 3) <- (pi *. phi_m1) +. (px *. psi_m1) +. (py *. psi_p1) +. (pz *. phi_p1)

let to_probs t = [| t.phi_p; t.psi_p; t.psi_m; t.phi_m |]

let of_probs w o = { phi_p = w.(o); psi_p = w.(o + 1); psi_m = w.(o + 2); phi_m = w.(o + 3) }

let apply_to c t =
  let w = to_probs t in
  apply c w 0;
  of_probs w 0

let decay t ~t1 ~t2 ~dt = if dt <= 0. then t else apply_to (decay_channel ~t1 ~t2 ~dt) t

let depolarize t ~p = apply_to (depolarizing ~p) t

(* The DEJMPS local rotations Rx(pi/2) (x) Rx(-pi/2) fix phi+ and psi+ and
   exchange phi- with psi-, so in the rotated frame the (bit, phase)
   coordinates of [t] are (0,0) = phi_p, (0,1) = psi_m, (1,0) = psi_p,
   (1,1) = phi_m.  Bilateral CNOT a->b; measure pair b in ZZ; keep when the
   bit parities agree: the survivor keeps a's bit and accumulates b's phase.
   Each output coordinate sums its two products in (p1, p2) order, starting
   from 0. *)
let[@inline] dejmps_p_succ a b =
  ((a.phi_p +. a.psi_m) *. (b.phi_p +. b.psi_m))
  +. ((a.psi_p +. a.phi_m) *. (b.psi_p +. b.phi_m))

(* [dejmps] on the pairs at [w.(a) ..] and [w.(b) ..] ([to_probs] order):
   the survivor overwrites the pair at [a]; the result is the success
   probability. *)
let dejmps_in_place w a b =
  let a_phi_p = w.(a) and a_psi_p = w.(a + 1) and a_psi_m = w.(a + 2) and a_phi_m = w.(a + 3)
  and b_phi_p = w.(b) and b_psi_p = w.(b + 1) and b_psi_m = w.(b + 2) and b_phi_m = w.(b + 3) in
  let p =
    ((a_phi_p +. a_psi_m) *. (b_phi_p +. b_psi_m))
    +. ((a_psi_p +. a_phi_m) *. (b_psi_p +. b_phi_m))
  in
  if p <= 0. then begin
    w.(a) <- 1.;
    w.(a + 1) <- 0.;
    w.(a + 2) <- 0.;
    w.(a + 3) <- 0.;
    0.
  end
  else begin
    (* No rotate-back: the protocol leaves the survivor in the rotated frame
       (still Bell-diagonal), and the frame alternation across rounds is what
       lets phase errors be caught as bit errors every other round — without
       it the psi- component compounds and iteration diverges. *)
    w.(a) <- (0. +. (a_phi_p *. b_phi_p /. p)) +. (a_psi_m *. b_psi_m /. p);
    w.(a + 1) <- (0. +. (a_psi_p *. b_psi_p /. p)) +. (a_phi_m *. b_phi_m /. p);
    w.(a + 2) <- (0. +. (a_psi_p *. b_phi_m /. p)) +. (a_phi_m *. b_psi_p /. p);
    w.(a + 3) <- (0. +. (a_phi_p *. b_psi_m /. p)) +. (a_psi_m *. b_phi_p /. p);
    p
  end

let dejmps a b =
  let w = Array.append (to_probs a) (to_probs b) in
  let p = dejmps_in_place w 0 4 in
  (p, of_probs w 0)

(* The phi_p coordinate of [dejmps], without building the pair. *)
let dejmps_predicted_fidelity a b =
  let p = dejmps_p_succ a b in
  if p <= 0. then 1.
  else (0. +. (a.phi_p *. b.phi_p /. p)) +. (a.psi_m *. b.psi_m /. p)
