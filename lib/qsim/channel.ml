type t = { name : string; kraus : Cmat.t list }

let nqubits t =
  match t.kraus with
  | [] -> invalid_arg "Channel.nqubits: empty channel"
  | k :: _ ->
      let d = k.Cmat.rows in
      let n = int_of_float (Float.round (Float.log2 (float_of_int d))) in
      if 1 lsl n <> d then invalid_arg "Channel.nqubits: non-power-of-two dim";
      n

let c re im = { Complex.re; im }
let r x = c x 0.
let z0 = r 0.

let identity n = { name = "id"; kraus = [ Cmat.identity (1 lsl n) ] }

let amplitude_damping gamma =
  if gamma < 0. || gamma > 1. then invalid_arg "Channel.amplitude_damping";
  { name = Printf.sprintf "amp_damp(%g)" gamma;
    kraus =
      [ Cmat.of_lists [ [ r 1.; z0 ]; [ z0; r (sqrt (1. -. gamma)) ] ];
        Cmat.of_lists [ [ z0; r (sqrt gamma) ]; [ z0; z0 ] ] ] }

let phase_damping lambda =
  if lambda < 0. || lambda > 1. then invalid_arg "Channel.phase_damping";
  { name = Printf.sprintf "phase_damp(%g)" lambda;
    kraus =
      [ Cmat.of_lists [ [ r 1.; z0 ]; [ z0; r (sqrt (1. -. lambda)) ] ];
        Cmat.of_lists [ [ z0; z0 ]; [ z0; r (sqrt lambda) ] ] ] }

let pauli1 ~px ~py ~pz =
  let pi = 1. -. px -. py -. pz in
  if pi < -1e-12 || px < 0. || py < 0. || pz < 0. then invalid_arg "Channel.pauli1";
  let pi = max 0. pi in
  { name = Printf.sprintf "pauli(%g,%g,%g)" px py pz;
    kraus =
      [ Cmat.scale_re (sqrt pi) Gate.i2;
        Cmat.scale_re (sqrt px) Gate.x;
        Cmat.scale_re (sqrt py) Gate.y;
        Cmat.scale_re (sqrt pz) Gate.z ] }

let dephasing p = { (pauli1 ~px:0. ~py:0. ~pz:p) with name = Printf.sprintf "dephase(%g)" p }
let bit_flip p = { (pauli1 ~px:p ~py:0. ~pz:0.) with name = Printf.sprintf "bitflip(%g)" p }

let depolarizing1 p =
  { (pauli1 ~px:(p /. 3.) ~py:(p /. 3.) ~pz:(p /. 3.)) with
    name = Printf.sprintf "depol1(%g)" p }

let depolarizing2 p =
  if p < 0. || p > 1. then invalid_arg "Channel.depolarizing2";
  let paulis = [ "II"; "IX"; "IY"; "IZ"; "XI"; "XX"; "XY"; "XZ";
                 "YI"; "YX"; "YY"; "YZ"; "ZI"; "ZX"; "ZY"; "ZZ" ] in
  let kraus =
    List.map
      (fun ps ->
        let weight = if ps = "II" then 1. -. p else p /. 15. in
        Cmat.scale_re (sqrt weight) (Gate.pauli_string ps))
      paulis
  in
  { name = Printf.sprintf "depol2(%g)" p; kraus }

let idle ~t1 ~t2 ~dt =
  if t1 <= 0. || t2 <= 0. || dt < 0. then invalid_arg "Channel.idle: bad times";
  if t2 > 2. *. t1 +. 1e-12 then
    invalid_arg "Channel.idle: unphysical T2 > 2*T1";
  let gamma = 1. -. exp (-.dt /. t1) in
  (* Total off-diagonal decay must be exp(-dt/t2); amplitude damping alone
     gives exp(-dt/(2 t1)), pure dephasing supplies the rest. *)
  let residual = (1. /. t2) -. (1. /. (2. *. t1)) in
  let lambda = 1. -. exp (-2. *. dt *. residual) in
  let lambda = max 0. lambda in
  let a = amplitude_damping gamma and p = phase_damping lambda in
  { name = Printf.sprintf "idle(t1=%g,t2=%g,dt=%g)" t1 t2 dt;
    kraus =
      List.concat_map (fun ka -> List.map (fun kp -> Cmat.mul kp ka) p.kraus) a.kraus }

let compose a b =
  { name = Printf.sprintf "%s;%s" a.name b.name;
    kraus =
      List.concat_map (fun ka -> List.map (fun kb -> Cmat.mul kb ka) b.kraus) a.kraus }

let is_cptp ?(tol = 1e-9) t =
  match t.kraus with
  | [] -> false
  | k :: _ ->
      let d = k.Cmat.rows in
      let acc =
        List.fold_left
          (fun acc ki -> Cmat.add acc (Cmat.mul (Cmat.adjoint ki) ki))
          (Cmat.create d d) t.kraus
      in
      Cmat.approx_equal ~tol acc (Cmat.identity d)

let apply t ~targets ~nqubits:n rho =
  let k = nqubits t in
  if List.length targets <> k then invalid_arg "Channel.apply: target count mismatch";
  let dim = 1 lsl n in
  List.fold_left
    (fun acc ki ->
      let full = Cmat.embed_unitary ~nqubits:n ~targets ki in
      Cmat.add acc (Cmat.sandwich full rho))
    (Cmat.create dim dim) t.kraus

(* ------------------------------------------------------ serialization -- *)

(* Binary payload for the persistent characterization store: versioned and
   length-prefixed throughout, floats as raw IEEE-754 bits so a
   serialize/deserialize round trip is bit-exact (warm-started sweeps must
   be byte-identical to cold ones).  The integrity checksum lives in the
   store's record framing, not here; [of_bytes] still validates structure
   exhaustively and returns [None] on any malformation, never raising. *)

let codec_version = 1

let max_name_len = 4096
let max_kraus = 4096
let max_dim = 4096

let to_bytes t =
  let b = Buffer.create 256 in
  Buffer.add_uint8 b codec_version;
  Buffer.add_int32_le b (Int32.of_int (String.length t.name));
  Buffer.add_string b t.name;
  Buffer.add_int32_le b (Int32.of_int (List.length t.kraus));
  List.iter
    (fun (k : Cmat.t) ->
      Buffer.add_int32_le b (Int32.of_int k.Cmat.rows);
      Buffer.add_int32_le b (Int32.of_int k.Cmat.cols);
      let n = k.Cmat.rows * k.Cmat.cols in
      for i = 0 to n - 1 do
        Buffer.add_int64_le b (Int64.bits_of_float k.Cmat.re.(i))
      done;
      for i = 0 to n - 1 do
        Buffer.add_int64_le b (Int64.bits_of_float k.Cmat.im.(i))
      done)
    t.kraus;
  Buffer.contents b

let of_bytes s =
  let pos = ref 0 in
  let len = String.length s in
  let exception Bad in
  let need n = if len - !pos < n then raise Bad in
  let u8 () =
    need 1;
    let v = Char.code s.[!pos] in
    incr pos;
    v
  in
  let i32 () =
    need 4;
    let v = Int32.to_int (String.get_int32_le s !pos) in
    pos := !pos + 4;
    v
  in
  let f64 () =
    need 8;
    let v = Int64.float_of_bits (String.get_int64_le s !pos) in
    pos := !pos + 8;
    v
  in
  try
    if u8 () <> codec_version then raise Bad;
    let name_len = i32 () in
    if name_len < 0 || name_len > max_name_len then raise Bad;
    need name_len;
    let name = String.sub s !pos name_len in
    pos := !pos + name_len;
    let nk = i32 () in
    if nk < 0 || nk > max_kraus then raise Bad;
    let kraus =
      List.init nk (fun _ ->
          let rows = i32 () in
          let cols = i32 () in
          if rows < 1 || rows > max_dim || cols < 1 || cols > max_dim then raise Bad;
          let n = rows * cols in
          let re = Array.init n (fun _ -> f64 ()) in
          let im = Array.init n (fun _ -> f64 ()) in
          Cmat.init rows cols (fun i j ->
              { Complex.re = re.((i * cols) + j); im = im.((i * cols) + j) }))
    in
    if !pos <> len then raise Bad;
    Some { name; kraus }
  with Bad -> None

let average_gate_fidelity_vs_identity t =
  match t.kraus with
  | [] -> 0.
  | k :: _ ->
      let d = float_of_int k.Cmat.rows in
      let sum =
        List.fold_left
          (fun acc ki ->
            let tr = Cmat.trace ki in
            acc +. (tr.Complex.re *. tr.Complex.re) +. (tr.Complex.im *. tr.Complex.im))
          0. t.kraus
      in
      ((sum /. d) +. 1.) /. (d +. 1.)
