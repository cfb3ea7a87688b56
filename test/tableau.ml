(* Aaronson–Gottesman CHP stabilizer tableau: exact simulation of Clifford
   circuits with measurement.  A test oracle: it verifies code
   constructions (stabilizer commutation, deterministic detectors) and
   cross-checks the Pauli-frame samplers of [Frame].

   Rows 0..n-1 are destabilizers, rows
   n..2n-1 stabilizers, row 2n is scratch.  Each row is a Hermitian Pauli
   (site with x=z=1 denotes Y) with sign (-1)^r. *)

type t = {
  n : int;
  xs : Bitvec.t array;  (* 2n+1 rows *)
  zs : Bitvec.t array;
  r : int array;  (* 2n+1 phase exponents mod 4 (powers of i); stabilizer
                     rows only ever hold 0 or 2, but destabilizer rows pick
                     up +-i phases during measurement rowsums, which is why
                     one sign bit is not enough (as in CHP) *)
}

let create n =
  if n <= 0 then invalid_arg "Tableau.create";
  let rows = (2 * n) + 1 in
  let t =
    { n;
      xs = Array.init rows (fun _ -> Bitvec.create n);
      zs = Array.init rows (fun _ -> Bitvec.create n);
      r = Array.make rows 0 }
  in
  for i = 0 to n - 1 do
    Bitvec.set t.xs.(i) i true;
    (* destabilizer i = X_i *)
    Bitvec.set t.zs.(n + i) i true (* stabilizer i = Z_i *)
  done;
  t

let copy t =
  { n = t.n;
    xs = Array.map Bitvec.copy t.xs;
    zs = Array.map Bitvec.copy t.zs;
    r = Array.copy t.r }

(* Phase contribution g(x1,z1,x2,z2) of multiplying site paulis, from the
   AG04 paper. *)
let g x1 z1 x2 z2 =
  match (x1, z1) with
  | false, false -> 0
  | true, true -> (if z2 then 1 else 0) - if x2 then 1 else 0
  | true, false -> if z2 then (if x2 then 1 else -1) else 0
  | false, true -> if x2 then (if z2 then -1 else 1) else 0

(* row_h := row_h * row_i with sign tracking. *)
let rowsum t h i =
  let acc = ref 0 in
  for j = 0 to t.n - 1 do
    acc :=
      !acc
      + g (Bitvec.get t.xs.(i) j) (Bitvec.get t.zs.(i) j) (Bitvec.get t.xs.(h) j)
          (Bitvec.get t.zs.(h) j)
  done;
  let total = ((t.r.(h) + t.r.(i) + !acc) mod 4 + 4) mod 4 in
  (* Stabilizer-row products are Hermitian (phase 0 or 2); destabilizer rows
     may legitimately carry +-i. *)
  if h >= t.n && h < 2 * t.n then assert (total = 0 || total = 2);
  t.r.(h) <- total;
  Bitvec.xor_into ~dst:t.xs.(h) t.xs.(i);
  Bitvec.xor_into ~dst:t.zs.(h) t.zs.(i)

let check_q t q = if q < 0 || q >= t.n then invalid_arg "Tableau: qubit out of range"

let h t q =
  check_q t q;
  for i = 0 to (2 * t.n) - 1 do
    let xi = Bitvec.get t.xs.(i) q and zi = Bitvec.get t.zs.(i) q in
    if xi && zi then t.r.(i) <- (t.r.(i) + 2) mod 4;
    Bitvec.set t.xs.(i) q zi;
    Bitvec.set t.zs.(i) q xi
  done

let s t q =
  check_q t q;
  for i = 0 to (2 * t.n) - 1 do
    let xi = Bitvec.get t.xs.(i) q and zi = Bitvec.get t.zs.(i) q in
    if xi && zi then t.r.(i) <- (t.r.(i) + 2) mod 4;
    Bitvec.set t.zs.(i) q (xi <> zi)
  done

let x t q =
  check_q t q;
  for i = 0 to (2 * t.n) - 1 do
    if Bitvec.get t.zs.(i) q then t.r.(i) <- (t.r.(i) + 2) mod 4
  done

let z t q =
  check_q t q;
  for i = 0 to (2 * t.n) - 1 do
    if Bitvec.get t.xs.(i) q then t.r.(i) <- (t.r.(i) + 2) mod 4
  done

let y t q =
  check_q t q;
  for i = 0 to (2 * t.n) - 1 do
    if Bitvec.get t.xs.(i) q <> Bitvec.get t.zs.(i) q then
      t.r.(i) <- (t.r.(i) + 2) mod 4
  done

let cx t a b =
  check_q t a;
  check_q t b;
  if a = b then invalid_arg "Tableau.cx: same qubit";
  for i = 0 to (2 * t.n) - 1 do
    let xa = Bitvec.get t.xs.(i) a
    and za = Bitvec.get t.zs.(i) a
    and xb = Bitvec.get t.xs.(i) b
    and zb = Bitvec.get t.zs.(i) b in
    if xa && zb && xb = za then t.r.(i) <- (t.r.(i) + 2) mod 4;
    Bitvec.set t.xs.(i) b (xb <> xa);
    Bitvec.set t.zs.(i) a (za <> zb)
  done

let cz t a b =
  h t b;
  cx t a b;
  h t b

let swap t a b =
  cx t a b;
  cx t b a;
  cx t a b

let find_anticommuting_stabilizer t q =
  let found = ref None in
  (try
     for i = t.n to (2 * t.n) - 1 do
       if Bitvec.get t.xs.(i) q then begin
         found := Some i;
         raise Exit
       end
     done
   with Exit -> ());
  !found

let zero_row t i =
  Bitvec.clear t.xs.(i);
  Bitvec.clear t.zs.(i);
  t.r.(i) <- 0

let copy_row t ~dst ~src =
  Bitvec.clear t.xs.(dst);
  Bitvec.clear t.zs.(dst);
  Bitvec.xor_into ~dst:t.xs.(dst) t.xs.(src);
  Bitvec.xor_into ~dst:t.zs.(dst) t.zs.(src);
  t.r.(dst) <- t.r.(src)

let deterministic_outcome t q =
  (* Scratch accumulation over destabilizers with X support on q. *)
  let scratch = 2 * t.n in
  zero_row t scratch;
  for i = 0 to t.n - 1 do
    if Bitvec.get t.xs.(i) q then rowsum t scratch (i + t.n)
  done;
  if t.r.(scratch) = 2 then 1 else 0

let measure t rng q =
  check_q t q;
  match find_anticommuting_stabilizer t q with
  | Some p ->
      for i = 0 to (2 * t.n) - 1 do
        if i <> p && Bitvec.get t.xs.(i) q then rowsum t i p
      done;
      copy_row t ~dst:(p - t.n) ~src:p;
      zero_row t p;
      Bitvec.set t.zs.(p) q true;
      let outcome = Rng.bool rng in
      t.r.(p) <- (if outcome then 2 else 0);
      if outcome then 1 else 0
  | None -> deterministic_outcome t q

let measure_deterministic t q =
  check_q t q;
  match find_anticommuting_stabilizer t q with
  | Some _ -> None
  | None -> Some (deterministic_outcome t q)

let reset t rng q =
  let outcome = measure t rng q in
  if outcome = 1 then x t q

let apply_pauli t p =
  if Pauli.nqubits p <> t.n then invalid_arg "Tableau.apply_pauli: size mismatch";
  (* Conjugating each row by the error flips its sign where they
     anticommute. *)
  for i = 0 to (2 * t.n) - 1 do
    let anti = ref 0 in
    for q = 0 to t.n - 1 do
      let row_x = Bitvec.get t.xs.(i) q and row_z = Bitvec.get t.zs.(i) q in
      let px = Pauli.x_bit p q and pz = Pauli.z_bit p q in
      if (row_x && pz) <> (row_z && px) then incr anti
    done;
    if !anti mod 2 = 1 then t.r.(i) <- (t.r.(i) + 2) mod 4
  done

(* A tableau row is a Hermitian Pauli: sites with x=z=1 are Y, sign (-1)^r.
   Build it through the string parser, which assigns the i-per-Y phase our
   representation requires. *)
let row_to_pauli t i =
  let str =
    String.init t.n (fun q ->
        match (Bitvec.get t.xs.(i) q, Bitvec.get t.zs.(i) q) with
        | false, false -> 'I'
        | true, false -> 'X'
        | false, true -> 'Z'
        | true, true -> 'Y')
  in
  let p = Pauli.of_string str in
  if t.r.(i) land 2 <> 0 then Pauli.neg p else p

let stabilizer_expectation t p =
  if Pauli.nqubits p <> t.n then invalid_arg "Tableau.stabilizer_expectation";
  (* Hermitian check: representation phase minus the i-per-Y bookkeeping must
     be real. *)
  let ys = ref 0 in
  for q = 0 to t.n - 1 do
    if Pauli.x_bit p q && Pauli.z_bit p q then incr ys
  done;
  if ((Pauli.phase p - !ys) mod 4 + 4) mod 4 land 1 = 1 then
    invalid_arg "Tableau.stabilizer_expectation: phase must be real";
  (* Not deterministic if it anticommutes with any stabilizer. *)
  let commutes_all = ref true in
  for i = t.n to (2 * t.n) - 1 do
    if not (Pauli.commutes (row_to_pauli t i) p) then commutes_all := false
  done;
  if not !commutes_all then None
  else begin
    (* P = ± prod of stabilizers S_i over the i whose destabilizer
       anticommutes with P; compare signs. *)
    let prod = ref (Pauli.identity t.n) in
    for i = 0 to t.n - 1 do
      if not (Pauli.commutes (row_to_pauli t i) p) then
        prod := Pauli.mul !prod (row_to_pauli t (i + t.n))
    done;
    if not (Pauli.equal_up_to_phase !prod p) then None
    else begin
      let dphase = ((Pauli.phase !prod - Pauli.phase p) mod 4 + 4) mod 4 in
      match dphase with
      | 0 -> Some 1
      | 2 -> Some (-1)
      | _ -> None
    end
  end

let run t rng (c : Circuit.t) =
  if c.Circuit.nqubits <> t.n then invalid_arg "Tableau.run: qubit count mismatch";
  let record = Bitvec.create (max 1 c.Circuit.nmeas) in
  let mi = ref 0 in
  Array.iter
    (fun (gate : Circuit.gate) ->
      match gate with
      | Circuit.H q -> h t q
      | Circuit.S q -> s t q
      | Circuit.X q -> x t q
      | Circuit.Y q -> y t q
      | Circuit.Z q -> z t q
      | Circuit.CX (a, b) -> cx t a b
      | Circuit.CZ (a, b) -> cz t a b
      | Circuit.SWAP (a, b) -> swap t a b
      | Circuit.M q ->
          let v = measure t rng q in
          Bitvec.set record !mi (v = 1);
          incr mi
      | Circuit.R q -> reset t rng q
      | Circuit.Noise1 { px; py; pz; q } ->
          let u = Rng.uniform rng in
          if u < px then x t q
          else if u < px +. py then y t q
          else if u < px +. py +. pz then z t q
      | Circuit.Depol2 { p; a; b } ->
          if Rng.bernoulli rng p then begin
            let which = 1 + Rng.int rng 15 in
            let pa = which lsr 2 and pb = which land 3 in
            let apply1 q = function
              | 1 -> x t q
              | 2 -> y t q
              | 3 -> z t q
              | _ -> ()
            in
            apply1 a pa;
            apply1 b pb
          end)
    c.Circuit.ops;
  record

let detector_values (c : Circuit.t) record =
  let parity idxs =
    Array.fold_left (fun acc m -> acc <> Bitvec.get record m) false idxs
  in
  let dets = Bitvec.create (max 1 (Array.length c.Circuit.detectors)) in
  Array.iteri (fun i d -> Bitvec.set dets i (parity d)) c.Circuit.detectors;
  let obs = Bitvec.create (max 1 (Array.length c.Circuit.observables)) in
  Array.iteri (fun i o -> Bitvec.set obs i (parity o)) c.Circuit.observables;
  (dets, obs)
