(* xoshiro256** state held as 32 raw bytes (four native-endian 64-bit
   words) instead of a record with mutable int64 fields: int64 record fields
   are boxed, so every state store would allocate a fresh 3-word block —
   ~15 minor words per draw in the hot sampling loops — whereas the bytes
   get/set primitives compile to raw unboxed loads and stores.  The output
   stream is bit-identical to the record representation; only the allocation
   profile changes. *)
type t = Bytes.t

let get = Bytes.get_int64_ne
let set = Bytes.set_int64_ne

(* splitmix64: seed expander recommended by the xoshiro authors. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  set t 0 (splitmix64 state);
  set t 8 (splitmix64 state);
  set t 16 (splitmix64 state);
  set t 24 (splitmix64 state);
  t

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* [@inline] on the draw primitives: a call inside this module then keeps
   its int64 and float intermediates unboxed.  Across the module boundary
   an int64 or float result is still boxed, which is why [bits53] and
   [geometric] return immediate ints for the shot loops. *)
let[@inline] bits64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  result

let split t =
  let seed = Int64.to_int (bits64 t) land max_int in
  create seed

let copy t = Bytes.copy t

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: 62 uniform bits mod n has negligible
     bias for n far below 2^62.  The mask keeps the OCaml int non-negative
     after the truncating Int64.to_int. *)
  let v = Int64.to_int (bits64 t) land max_int in
  v mod n

(* The 53-bit mantissa source of [uniform], from the top bits. *)
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 11)

let[@inline] uniform t = float_of_int (bits53 t) *. 0x1.0p-53

(* One geometric gap draw for sparse Bernoulli fills: consumes exactly one
   uniform draw and computes floor(log1p(-u) / log1mp).  Nothing is boxed:
   the draw is inlined, log1p is an [@@unboxed] external, and the result is
   an immediate int, so the Dem_sampler event-direct path allocates nothing
   per event. *)
let geometric t ~log1mp = int_of_float (log1p (-.uniform t) /. log1mp)

let float t x = uniform t *. x
let bool t = Int64.logand (bits64 t) 1L = 1L
let[@inline] bernoulli t p = uniform t < p

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  -.log (1. -. uniform t) /. rate

let gaussian t =
  let u1 = 1. -. uniform t and u2 = uniform t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let poisson t lambda =
  if lambda < 0. then invalid_arg "Rng.poisson: negative mean";
  if lambda > 500. then
    let x = (lambda +. (sqrt lambda *. gaussian t)) +. 0.5 in
    max 0 (int_of_float x)
  else begin
    (* Inversion by sequential search. *)
    let l = exp (-.lambda) in
    let k = ref 0 and p = ref 1.0 in
    let continue = ref true in
    while !continue do
      p := !p *. uniform t;
      if !p <= l then continue := false else incr k
    done;
    !k
  end

let categorical t w =
  let total = Array.fold_left ( +. ) 0. w in
  if total <= 0. then invalid_arg "Rng.categorical: weights must sum > 0";
  let x = float t total in
  let acc = ref 0. and idx = ref (Array.length w - 1) in
  (try
     Array.iteri
       (fun i wi ->
         acc := !acc +. wi;
         if x < !acc then begin
           idx := i;
           raise Exit
         end)
       w
   with Exit -> ());
  !idx

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
