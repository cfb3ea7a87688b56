type t = {
  name : string;
  n : int;
  k : int;
  distance : int;
  x_stabs : int array array;
  z_stabs : int array array;
  logical_x : int array array;
  logical_z : int array array;
  planar : bool;
}

let overlap a b =
  (* Supports are small; quadratic scan is fine. *)
  Array.fold_left (fun acc q -> if Array.mem q b then acc + 1 else acc) 0 a

let fail fmt = Printf.ksprintf invalid_arg fmt

let validate t =
  let check_support kind s =
    Array.iter
      (fun q -> if q < 0 || q >= t.n then fail "%s: qubit %d out of range in %s" t.name q kind)
      s;
    let sorted = Array.copy s in
    Array.sort compare sorted;
    for i = 1 to Array.length sorted - 1 do
      if sorted.(i) = sorted.(i - 1) then fail "%s: duplicate qubit in %s" t.name kind
    done
  in
  Array.iter (check_support "x stabilizer") t.x_stabs;
  Array.iter (check_support "z stabilizer") t.z_stabs;
  Array.iter (check_support "logical x") t.logical_x;
  Array.iter (check_support "logical z") t.logical_z;
  if Array.length t.logical_x <> t.k || Array.length t.logical_z <> t.k then
    fail "%s: need %d logical operator pairs" t.name t.k;
  Array.iteri
    (fun i sx ->
      Array.iteri
        (fun j sz ->
          if overlap sx sz mod 2 <> 0 then
            fail "%s: X stab %d anticommutes with Z stab %d" t.name i j)
        t.z_stabs)
    t.x_stabs;
  Array.iteri
    (fun i lx ->
      Array.iteri
        (fun j sz ->
          if overlap lx sz mod 2 <> 0 then
            fail "%s: logical X %d anticommutes with Z stab %d" t.name i j)
        t.z_stabs)
    t.logical_x;
  Array.iteri
    (fun i lz ->
      Array.iteri
        (fun j sx ->
          if overlap lz sx mod 2 <> 0 then
            fail "%s: logical Z %d anticommutes with X stab %d" t.name i j)
        t.x_stabs)
    t.logical_z;
  Array.iteri
    (fun i lx ->
      Array.iteri
        (fun j lz ->
          let parity = overlap lx lz mod 2 in
          if i = j && parity = 0 then
            fail "%s: logical X %d commutes with its logical Z" t.name i;
          if i <> j && parity = 1 then
            fail "%s: logical X %d anticommutes with logical Z %d" t.name i j)
        t.logical_z)
    t.logical_x

let num_stabs t = Array.length t.x_stabs + Array.length t.z_stabs

let support_pauli n kind s =
  let p = Pauli.identity n in
  Array.iter
    (fun q ->
      match kind with
      | `X -> Pauli.set_x p q true
      | `Z -> Pauli.set_z p q true)
    s;
  p

let z_stab_pauli t i = support_pauli t.n `Z t.z_stabs.(i)

let syndrome_against stabs qubits =
  Array.map
    (fun s ->
      let c = List.fold_left (fun acc q -> if Array.mem q s then acc + 1 else acc) 0 qubits in
      c mod 2)
    stabs

let syndrome_of_x_error t qubits = syndrome_against t.z_stabs qubits
let syndrome_of_z_error t qubits = syndrome_against t.x_stabs qubits

let flipped support qubits =
  List.fold_left (fun acc q -> if Array.mem q support then not acc else acc) false qubits

let x_logical_flipped t i qubits = flipped t.logical_z.(i) qubits
let z_logical_flipped t i qubits = flipped t.logical_x.(i) qubits

let rows_to_bits supports ~n =
  ignore n;
  Array.map (fun s -> Array.fold_left (fun acc q -> acc lor (1 lsl q)) 0 s) supports

let gf2_rank supports ~n =
  if n > 62 then invalid_arg "Code.gf2_rank: n too large for int rows";
  let rows = rows_to_bits supports ~n in
  let rank = ref 0 in
  let nrows = Array.length rows in
  for col = 0 to n - 1 do
    let piv = ref (-1) in
    (try
       for r = !rank to nrows - 1 do
         if rows.(r) lsr col land 1 = 1 then begin
           piv := r;
           raise Exit
         end
       done
     with Exit -> ());
    if !piv >= 0 then begin
      let tmp = rows.(!rank) in
      rows.(!rank) <- rows.(!piv);
      rows.(!piv) <- tmp;
      for r = 0 to nrows - 1 do
        if r <> !rank && rows.(r) lsr col land 1 = 1 then
          rows.(r) <- rows.(r) lxor rows.(!rank)
      done;
      incr rank
    end
  done;
  !rank

(* Reduced rows for membership tests. *)
let gf2_reduce supports ~n =
  let rows = rows_to_bits supports ~n in
  let rank = ref 0 in
  let nrows = Array.length rows in
  for col = 0 to n - 1 do
    let piv = ref (-1) in
    (try
       for r = !rank to nrows - 1 do
         if rows.(r) lsr col land 1 = 1 then begin
           piv := r;
           raise Exit
         end
       done
     with Exit -> ());
    if !piv >= 0 then begin
      let tmp = rows.(!rank) in
      rows.(!rank) <- rows.(!piv);
      rows.(!piv) <- tmp;
      for r = 0 to nrows - 1 do
        if r <> !rank && rows.(r) lsr col land 1 = 1 then
          rows.(r) <- rows.(r) lxor rows.(!rank)
      done;
      incr rank
    end
  done;
  Array.sub rows 0 !rank

let in_span reduced v =
  let v = ref v in
  Array.iter
    (fun r ->
      let low = r land -r in
      if !v land low <> 0 then v := !v lxor r)
    reduced;
  !v = 0

let brute_force_distance t ~max_weight =
  if t.n > 62 then invalid_arg "Code.brute_force_distance: n too large";
  let x_red = gf2_reduce t.x_stabs ~n:t.n in
  let z_red = gf2_reduce t.z_stabs ~n:t.n in
  let z_checks = rows_to_bits t.z_stabs ~n:t.n in
  let x_checks = rows_to_bits t.x_stabs ~n:t.n in
  (* An X-type logical: commutes with all Z stabilizers, not in the span of
     X stabilizers (and dually). *)
  let is_logical v ~checks ~own_red =
    Array.for_all (fun c -> Bitvec.popcount_word (v land c) mod 2 = 0) checks
    && not (in_span own_red v)
  in
  let found = ref None in
  (try
     for w = 1 to max_weight do
       (* Enumerate weight-w subsets via Gosper's hack. *)
       let v = ref ((1 lsl w) - 1) in
       let limit = 1 lsl t.n in
       while !v < limit do
         if is_logical !v ~checks:z_checks ~own_red:x_red
            || is_logical !v ~checks:x_checks ~own_red:z_red
         then begin
           found := Some w;
           raise Exit
         end;
         let c = !v land - !v in
         let r = !v + c in
         v := (((r lxor !v) lsr 2) / c) lor r
       done
     done
   with Exit -> ());
  !found
