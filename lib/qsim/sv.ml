type t = { n : int; re : float array; im : float array }

let create n =
  if n < 1 || n > 24 then invalid_arg "Sv.create: supported range is 1..24 qubits";
  let dim = 1 lsl n in
  let re = Array.make dim 0. and im = Array.make dim 0. in
  re.(0) <- 1.;
  { n; re; im }

let nqubits t = t.n
let copy t = { t with re = Array.copy t.re; im = Array.copy t.im }

let amplitude t i =
  if i < 0 || i >= 1 lsl t.n then invalid_arg "Sv.amplitude: out of range";
  { Complex.re = t.re.(i); im = t.im.(i) }

let norm t =
  let acc = ref 0. in
  for i = 0 to Array.length t.re - 1 do
    acc := !acc +. (t.re.(i) *. t.re.(i)) +. (t.im.(i) *. t.im.(i))
  done;
  sqrt !acc

(* Apply a 2^k unitary to target qubits.  Qubit 0 of the op = most
   significant bit, matching Cmat.embed_unitary; iterate over all basis
   states grouping the target-bit subspace. *)
let apply_op t (u : Cmat.t) targets =
  let k = List.length targets in
  let sub = 1 lsl k in
  if u.Cmat.rows <> sub || u.Cmat.cols <> sub then
    invalid_arg "Sv.apply_op: matrix size does not match targets";
  let targets = Array.of_list targets in
  Array.iter
    (fun q -> if q < 0 || q >= t.n then invalid_arg "Sv.apply_op: bad qubit")
    targets;
  let bits = Array.map (fun q -> t.n - 1 - q) targets in
  let dim = 1 lsl t.n in
  let mask = Array.fold_left (fun acc b -> acc lor (1 lsl b)) 0 bits in
  let scratch_re = Array.make sub 0. and scratch_im = Array.make sub 0. in
  let idx_of base s =
    (* insert sub-index bits s into base at target positions *)
    let acc = ref base in
    Array.iteri
      (fun pos b ->
        if (s lsr (k - 1 - pos)) land 1 = 1 then acc := !acc lor (1 lsl b))
      bits;
    !acc
  in
  for base = 0 to dim - 1 do
    if base land mask = 0 then begin
      for s = 0 to sub - 1 do
        let i = idx_of base s in
        scratch_re.(s) <- t.re.(i);
        scratch_im.(s) <- t.im.(i)
      done;
      for s = 0 to sub - 1 do
        let racc = ref 0. and iacc = ref 0. in
        for s' = 0 to sub - 1 do
          let ure = u.Cmat.re.((s * sub) + s') and uim = u.Cmat.im.((s * sub) + s') in
          racc := !racc +. (ure *. scratch_re.(s')) -. (uim *. scratch_im.(s'));
          iacc := !iacc +. (ure *. scratch_im.(s')) +. (uim *. scratch_re.(s'))
        done;
        let i = idx_of base s in
        t.re.(i) <- !racc;
        t.im.(i) <- !iacc
      done
    end
  done

let apply_unitary t u targets = apply_op t u targets

let renormalize t =
  let nrm = norm t in
  if nrm <= 1e-150 then invalid_arg "Sv.renormalize: zero state";
  let s = 1. /. nrm in
  for i = 0 to Array.length t.re - 1 do
    t.re.(i) <- t.re.(i) *. s;
    t.im.(i) <- t.im.(i) *. s
  done

let apply_kraus_sampled t ch targets rng =
  let branches = ch.Channel.kraus in
  (* Born weights: |K_i |psi>|^2; compute by applying to copies. *)
  let weighted =
    List.map
      (fun k ->
        let trial = copy t in
        apply_op trial k targets;
        let w = norm trial ** 2. in
        (w, trial))
      branches
  in
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0. weighted in
  let x = Rng.float rng total in
  let rec pick acc idx = function
    | [] -> invalid_arg "Sv.apply_kraus_sampled: empty channel"
    | [ (_, trial) ] -> (idx, trial)
    | (w, trial) :: rest ->
        if x < acc +. w then (idx, trial) else pick (acc +. w) (idx + 1) rest
  in
  let idx, chosen = pick 0. 0 weighted in
  Array.blit chosen.re 0 t.re 0 (Array.length t.re);
  Array.blit chosen.im 0 t.im 0 (Array.length t.im);
  renormalize t;
  idx

let idle_trajectory t ~t1 ~t2 ~dt q rng =
  if dt > 0. then
    ignore (apply_kraus_sampled t (Channel.idle ~t1 ~t2 ~dt) [ q ] rng)

let prob_one t q =
  if q < 0 || q >= t.n then invalid_arg "Sv.prob_one: bad qubit";
  let bit = t.n - 1 - q in
  let acc = ref 0. in
  for i = 0 to (1 lsl t.n) - 1 do
    if (i lsr bit) land 1 = 1 then
      acc := !acc +. (t.re.(i) *. t.re.(i)) +. (t.im.(i) *. t.im.(i))
  done;
  !acc

let measure t rng q =
  let p1 = prob_one t q in
  let outcome = if Rng.uniform rng < p1 then 1 else 0 in
  let bit = t.n - 1 - q in
  for i = 0 to (1 lsl t.n) - 1 do
    if (i lsr bit) land 1 <> outcome then begin
      t.re.(i) <- 0.;
      t.im.(i) <- 0.
    end
  done;
  renormalize t;
  outcome

let fidelity_with a b =
  if a.n <> b.n then invalid_arg "Sv.fidelity_with: size mismatch";
  let re = ref 0. and im = ref 0. in
  for i = 0 to Array.length a.re - 1 do
    (* conj(a_i) * b_i *)
    re := !re +. (a.re.(i) *. b.re.(i)) +. (a.im.(i) *. b.im.(i));
    im := !im +. (a.re.(i) *. b.im.(i)) -. (a.im.(i) *. b.re.(i))
  done;
  (!re *. !re) +. (!im *. !im)

let to_dm t =
  if t.n > 10 then invalid_arg "Sv.to_dm: too many qubits for a density matrix";
  let amps = Array.init (1 lsl t.n) (fun i -> { Complex.re = t.re.(i); im = t.im.(i) }) in
  Dm.of_ket amps

let average_fidelity ~prepare ~evolve ~target ~trajectories rng =
  if trajectories < 1 then invalid_arg "Sv.average_fidelity: trajectories >= 1";
  let acc = ref 0. in
  for _ = 1 to trajectories do
    let psi = prepare () in
    evolve psi rng;
    acc := !acc +. fidelity_with target psi
  done;
  !acc /. float_of_int trajectories
