let range n = Array.init n Fun.id

let repetition d =
  if d < 2 then invalid_arg "Codes.repetition: need d >= 2";
  { Code.name = Printf.sprintf "REP%d" d;
    n = d;
    k = 1;
    distance = d;
    x_stabs = [||];
    z_stabs = Array.init (d - 1) (fun i -> [| i; i + 1 |]);
    logical_x = [| range d |];
    logical_z = [| [| 0 |] |];
    planar = true }

let steane =
  let checks = [| [| 3; 4; 5; 6 |]; [| 1; 2; 5; 6 |]; [| 0; 2; 4; 6 |] |] in
  { Code.name = "ST";
    n = 7;
    k = 1;
    distance = 3;
    x_stabs = checks;
    z_stabs = checks;
    logical_x = [| range 7 |];
    logical_z = [| range 7 |];
    planar = false }

(* [[15,1,3]] punctured quantum Reed-Muller code: qubits are the nonzero
   4-bit vectors v (qubit q = v-1).  X checks are the four coordinate
   half-spaces {v : v_i = 1}; Z checks add the six pairwise intersections. *)
let reed_muller_15 =
  let coord i = Array.of_list (List.filter_map
    (fun v -> if (v lsr i) land 1 = 1 then Some (v - 1) else None)
    (List.init 15 (fun q -> q + 1)))
  in
  let pair i j = Array.of_list (List.filter_map
    (fun v ->
      if (v lsr i) land 1 = 1 && (v lsr j) land 1 = 1 then Some (v - 1) else None)
    (List.init 15 (fun q -> q + 1)))
  in
  let xs = Array.init 4 coord in
  let pairs = ref [] in
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      pairs := pair i j :: !pairs
    done
  done;
  let zs = Array.append xs (Array.of_list (List.rev !pairs)) in
  { Code.name = "RM";
    n = 15;
    k = 1;
    distance = 3;
    x_stabs = xs;
    z_stabs = zs;
    logical_x = [| range 15 |];
    logical_z = [| range 15 |];
    planar = false }

(* [[17,1,5]] CSS code from the two binary quadratic-residue codes of length
   17: X checks span the dual of one QR code, Z checks the dual of the other
   (17 = 1 mod 8, so unlike Steane's length 7 the QR code does not contain
   its own dual and the two factors must be crossed).  Verified to have
   distance 5 and weight-6 checks; stands in for the paper's 4.8.8 17-qubit
   color code, whose exact face list the paper does not give. *)
let color_17 =
  let base_x = [| 0; 3; 4; 5; 6; 9 |] in
  let base_z = [| 0; 1; 3; 6; 8; 9 |] in
  let shifts base = Array.init 8 (fun s -> Array.map (fun q -> q + s) base) in
  { Code.name = "17QCC";
    n = 17;
    k = 1;
    distance = 5;
    x_stabs = shifts base_x;
    z_stabs = shifts base_z;
    logical_x = [| range 17 |];
    logical_z = [| range 17 |];
    planar = false }

let shor =
  let block b = Array.init 3 (fun i -> (3 * b) + i) in
  { Code.name = "SHOR";
    n = 9;
    k = 1;
    distance = 3;
    x_stabs = [| Array.append (block 0) (block 1); Array.append (block 1) (block 2) |];
    z_stabs =
      [| [| 0; 1 |]; [| 1; 2 |]; [| 3; 4 |]; [| 4; 5 |]; [| 6; 7 |]; [| 7; 8 |] |];
    logical_x = [| block 0 |];
    logical_z = [| [| 0; 3; 6 |] |];
    planar = false }

let surface d =
  if d < 2 then invalid_arg "Codes.surface: need d >= 2";
  let q r c = (r * d) + c in
  let in_grid r c = r >= 0 && r < d && c >= 0 && c < d in
  let xs = ref [] and zs = ref [] in
  for r = -1 to d - 1 do
    for c = -1 to d - 1 do
      let qubits =
        List.filter_map
          (fun (rr, cc) -> if in_grid rr cc then Some (q rr cc) else None)
          [ (r, c); (r, c + 1); (r + 1, c); (r + 1, c + 1) ]
      in
      let is_x = ((r + c) mod 2 + 2) mod 2 = 0 in
      let top_or_bottom = r = -1 || r = d - 1 in
      let left_or_right = c = -1 || c = d - 1 in
      match List.length qubits with
      | 4 ->
          if is_x then xs := Array.of_list qubits :: !xs
          else zs := Array.of_list qubits :: !zs
      | 2 ->
          (* Boundary checks: X on top/bottom, Z on left/right, at alternating
             positions given by the cell's checkerboard type. *)
          if top_or_bottom && is_x then xs := Array.of_list qubits :: !xs
          else if left_or_right && (not is_x) && not top_or_bottom then
            zs := Array.of_list qubits :: !zs
      | _ -> ()
    done
  done;
  { Code.name = Printf.sprintf "SC%d" d;
    n = d * d;
    k = 1;
    distance = d;
    x_stabs = Array.of_list (List.rev !xs);
    z_stabs = Array.of_list (List.rev !zs);
    logical_x = [| Array.init d (fun r -> q r 0) |];
    logical_z = [| Array.init d (fun c -> q 0 c) |];
    planar = true }

(* The name grammar of [by_name]: a fixed name, or a family prefix and an
   integer, as [int_of_string_opt] reads it. *)
let parse_name name =
  match name with
  | "RM" -> Some (`Fixed reed_muller_15)
  | "17QCC" -> Some (`Fixed color_17)
  | "ST" -> Some (`Fixed steane)
  | "SHOR" -> Some (`Fixed shor)
  | _ ->
      let family prefix kind =
        let pl = String.length prefix in
        if String.length name > pl && String.sub name 0 pl = prefix then
          Option.map kind (int_of_string_opt (String.sub name pl (String.length name - pl)))
        else None
      in
      (match family "SC" (fun d -> `Surface d) with
      | Some _ as c -> c
      | None -> family "REP" (fun d -> `Repetition d))

let by_name name =
  match parse_name name with
  | Some (`Fixed c) -> c
  | Some (`Surface d) -> surface d
  | Some (`Repetition d) -> repetition d
  | None -> raise Not_found

(* d * d overflows long before a distance this large could be built. *)
let qubits_of_name name =
  match parse_name name with
  | Some (`Fixed c) -> Some c.Code.n
  | Some (`Surface d) when d >= 2 -> Some (if d > 1 lsl 20 then max_int else d * d)
  | Some (`Repetition d) when d >= 2 -> Some d
  | Some (`Surface _ | `Repetition _) | None -> None

let paper_codes = [ reed_muller_15; color_17; steane; surface 3; surface 4 ]
