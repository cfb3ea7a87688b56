type gate =
  | H of int
  | S of int
  | X of int
  | Y of int
  | Z of int
  | CX of int * int
  | CZ of int * int
  | SWAP of int * int
  | M of int
  | R of int
  | Noise1 of { px : float; py : float; pz : float; q : int }
  | Depol2 of { p : float; a : int; b : int }

type t = {
  nqubits : int;
  ops : gate array;
  nmeas : int;
  detectors : int array array;
  observables : int array array;
}

type builder = {
  n : int;
  mutable buf : gate array;  (* the first [len] are the ops so far *)
  mutable len : int;
  mutable meas_count : int;
  mutable rev_detectors : int array list;
  mutable rev_observables : int array list;
  idle_key : float array;  (* t1, t2, dt of [idle_last] *)
  mutable idle_last : gate option;  (* the last Noise1 [idle_noise] built *)
}

let builder n =
  if n <= 0 then invalid_arg "Circuit.builder: need at least one qubit";
  { n;
    buf = [||];
    len = 0;
    meas_count = 0;
    rev_detectors = [];
    rev_observables = [];
    idle_key = Array.make 3 0.;
    idle_last = None }

let add b g =
  (match g with M _ -> b.meas_count <- b.meas_count + 1 | _ -> ());
  (* A doubling array, not a list: a long circuit's ops outlive many minor
     collections, and a list would promote a cons cell per op and copy the
     whole spine twice in [finish]. *)
  if b.len = Array.length b.buf then begin
    let grown = Array.make (max 256 (2 * b.len)) g in
    Array.blit b.buf 0 grown 0 b.len;
    b.buf <- grown
  end;
  b.buf.(b.len) <- g;
  b.len <- b.len + 1

let measure b q =
  let idx = b.meas_count in
  add b (M q);
  idx

let add_detector b meas = b.rev_detectors <- Array.of_list meas :: b.rev_detectors
let add_observable b meas = b.rev_observables <- Array.of_list meas :: b.rev_observables

let finish b =
  { nqubits = b.n;
    ops = Array.sub b.buf 0 b.len;
    nmeas = b.meas_count;
    detectors = Array.of_list (List.rev b.rev_detectors);
    observables = Array.of_list (List.rev b.rev_observables) }

(* Pauli-twirled thermal relaxation: <Z> decays as exp(-dt/T1) via
   px = py = (1-exp(-dt/T1))/4, and <X> decays as exp(-dt/T2) via the
   residual pz.

   A slot idles every qubit for one [dt], mostly at one coherence, so the
   builder keeps the last channel: a call with the same (t1, t2, dt) — by
   IEEE bits, since -0. and 0. give different channels — shares its three
   boxed floats and skips both [exp]s. *)
let[@inline] same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let idle_probs ~t1 ~t2 ~dt =
  let p1 = (1. -. exp (-.dt /. t1)) /. 4. in
  let pz = ((1. -. exp (-.dt /. t2)) /. 2.) -. p1 in
  (p1, max 0. pz)

let idle_noise b ~t1 ~t2 ~dt q =
  if dt > 0. then begin
    let k = b.idle_key in
    match b.idle_last with
    | Some (Noise1 r)
      when same_bits k.(0) t1 && same_bits k.(1) t2 && same_bits k.(2) dt ->
        add b (Noise1 { r with q })
    | _ ->
        let p1, pz = idle_probs ~t1 ~t2 ~dt in
        let g = Noise1 { px = p1; py = p1; pz; q } in
        k.(0) <- t1;
        k.(1) <- t2;
        k.(2) <- dt;
        b.idle_last <- Some g;
        add b g
  end

let count_gates t =
  Array.fold_left
    (fun acc g ->
      match g with
      | H _ | S _ | X _ | Y _ | Z _ | CX _ | CZ _ | SWAP _ -> acc + 1
      | M _ | R _ | Noise1 _ | Depol2 _ -> acc)
    0 t.ops

let depth_events t = Array.length t.ops

let check_noise1 ~px ~py ~pz =
  if px < 0. || py < 0. || pz < 0. || px +. py +. pz > 1. then
    invalid_arg "Circuit.validate: bad noise probabilities"

let check_depol2 p = if p < 0. || p > 1. then invalid_arg "Circuit.validate: bad depol2 probability"

let validate t =
  let check_q q = if q < 0 || q >= t.nqubits then invalid_arg "Circuit.validate: qubit out of range" in
  let check2 a b =
    check_q a;
    check_q b;
    if a = b then invalid_arg "Circuit.validate: two-qubit gate on same qubit"
  in
  let meas_seen = ref 0 in
  Array.iter
    (fun g ->
      match g with
      | H q | S q | X q | Y q | Z q | R q -> check_q q
      | M q ->
          check_q q;
          incr meas_seen
      | CX (a, b) | CZ (a, b) | SWAP (a, b) -> check2 a b
      | Noise1 { q; px; py; pz } ->
          check_q q;
          check_noise1 ~px ~py ~pz
      | Depol2 { a; b; p } ->
          check2 a b;
          check_depol2 p)
    t.ops;
  if !meas_seen <> t.nmeas then invalid_arg "Circuit.validate: measurement count mismatch";
  let check_meas_idx m =
    if m < 0 || m >= t.nmeas then invalid_arg "Circuit.validate: measurement index out of range"
  in
  Array.iter (Array.iter check_meas_idx) t.detectors;
  Array.iter (Array.iter check_meas_idx) t.observables
