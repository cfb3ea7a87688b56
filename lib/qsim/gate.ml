let c re im = { Complex.re; im }
let r x = c x 0.
let z0 = r 0.
let z1 = r 1.

let i2 = Cmat.of_lists [ [ z1; z0 ]; [ z0; z1 ] ]
let x = Cmat.of_lists [ [ z0; z1 ]; [ z1; z0 ] ]
let y = Cmat.of_lists [ [ z0; c 0. (-1.) ]; [ c 0. 1.; z0 ] ]
let z = Cmat.of_lists [ [ z1; z0 ]; [ z0; r (-1.) ] ]

let h =
  let s = 1. /. sqrt 2. in
  Cmat.of_lists [ [ r s; r s ]; [ r s; r (-.s) ] ]

let s = Cmat.of_lists [ [ z1; z0 ]; [ z0; c 0. 1. ] ]

let phase theta = Cmat.of_lists [ [ z1; z0 ]; [ z0; c (cos theta) (sin theta) ] ]
let t = phase (Float.pi /. 4.)

let rx theta =
  let ct = cos (theta /. 2.) and st = sin (theta /. 2.) in
  Cmat.of_lists [ [ r ct; c 0. (-.st) ]; [ c 0. (-.st); r ct ] ]

let ry theta =
  let ct = cos (theta /. 2.) and st = sin (theta /. 2.) in
  Cmat.of_lists [ [ r ct; r (-.st) ]; [ r st; r ct ] ]

let rz theta =
  let ct = cos (theta /. 2.) and st = sin (theta /. 2.) in
  Cmat.of_lists [ [ c ct (-.st); z0 ]; [ z0; c ct st ] ]

let cx =
  Cmat.of_real_lists
    [ [ 1.; 0.; 0.; 0. ]; [ 0.; 1.; 0.; 0. ]; [ 0.; 0.; 0.; 1. ]; [ 0.; 0.; 1.; 0. ] ]

let cz =
  Cmat.of_real_lists
    [ [ 1.; 0.; 0.; 0. ]; [ 0.; 1.; 0.; 0. ]; [ 0.; 0.; 1.; 0. ]; [ 0.; 0.; 0.; -1. ] ]

let swap =
  Cmat.of_real_lists
    [ [ 1.; 0.; 0.; 0. ]; [ 0.; 0.; 1.; 0. ]; [ 0.; 1.; 0.; 0. ]; [ 0.; 0.; 0.; 1. ] ]

let iswap =
  Cmat.of_lists
    [ [ z1; z0; z0; z0 ];
      [ z0; z0; c 0. 1.; z0 ];
      [ z0; c 0. 1.; z0; z0 ];
      [ z0; z0; z0; z1 ] ]

let cphase theta =
  Cmat.of_lists
    [ [ z1; z0; z0; z0 ];
      [ z0; z1; z0; z0 ];
      [ z0; z0; z1; z0 ];
      [ z0; z0; z0; c (cos theta) (sin theta) ] ]

let pauli_of_char = function
  | 'I' -> i2
  | 'X' -> x
  | 'Y' -> y
  | 'Z' -> z
  | ch -> invalid_arg (Printf.sprintf "Gate.pauli_of_char: %c" ch)

let pauli_string str =
  if String.length str = 0 then invalid_arg "Gate.pauli_string: empty";
  let acc = ref (pauli_of_char str.[0]) in
  String.iteri (fun i ch -> if i > 0 then acc := Cmat.kron !acc (pauli_of_char ch)) str;
  !acc

let is_unitary ?(tol = 1e-9) u =
  u.Cmat.rows = u.Cmat.cols
  && Cmat.approx_equal ~tol (Cmat.mul (Cmat.adjoint u) u) (Cmat.identity u.Cmat.rows)
