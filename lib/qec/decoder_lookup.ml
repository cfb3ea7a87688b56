type table = {
  corrections : int array;  (* syndrome -> correction bitmask; -1 = unfilled *)
  checks : int array array;  (* stabilizer supports producing the syndrome *)
  check_masks : int array;  (* per check, its support as a qubit bitmask *)
}

type t = {
  code : Code.t;
  x_table : table;
  z_table : table;
  logical_z_mask : int;  (* support of logical Z_0, for X-residual parity *)
  logical_x_mask : int;  (* support of logical X_0, for Z-residual parity *)
}

(* The table build keys every Gosper mask, so it folds the syndrome
   columns (bit i of column q set when check i holds q) into one table per
   5-bit chunk of the mask: a syndrome is the XOR of its qubits' columns,
   and a key is six loads whatever the mask's weight.  Entry [32 j + b] is
   the syndrome of an error on the qubits [5 j + i] for each set bit [i] of
   [b]; six chunks span [max_qubits] = 30 bits.  A qubit listed twice in a
   check toggles twice, as the per-check parity does.  The 192 words are
   young garbage once the table is built, not a major-heap block. *)
let chunk_keys ~n checks =
  let col = Array.make n 0 in
  Array.iteri
    (fun i s -> Array.iter (fun q -> col.(q) <- col.(q) lxor (1 lsl i)) s)
    checks;
  let kc = Array.make (6 * 32) 0 in
  for j = 0 to 5 do
    for b = 1 to 31 do
      let low = ref 0 in
      while (b lsr !low) land 1 = 0 do
        incr low
      done;
      let q = (5 * j) + !low in
      kc.((32 * j) + b) <-
        kc.((32 * j) + (b land (b - 1))) lxor (if q < n then col.(q) else 0)
    done
  done;
  kc

let[@inline] chunk_key kc err_mask =
  kc.(err_mask land 31)
  lxor kc.(32 + ((err_mask lsr 5) land 31))
  lxor kc.(64 + ((err_mask lsr 10) land 31))
  lxor kc.(96 + ((err_mask lsr 15) land 31))
  lxor kc.(128 + ((err_mask lsr 20) land 31))
  lxor kc.(160 + ((err_mask lsr 25) land 31))

let support_mask s = Array.fold_left (fun acc q -> acc lor (1 lsl q)) 0 s

(* The per-shot key of the logical-flip fast paths: one parity popcount per
   check, plain loops, and no allocation. *)
let syndrome_key check_masks err_mask =
  let key = ref 0 in
  for i = 0 to Array.length check_masks - 1 do
    key := !key lor ((Bitvec.popcount_word (err_mask land check_masks.(i)) land 1) lsl i)
  done;
  !key

let build_table ~n ~checks =
  let nsyn = 1 lsl Array.length checks in
  let kc = chunk_keys ~n checks in
  let corrections = Array.make nsyn (-1) in
  corrections.(0) <- 0;
  let filled = ref 1 in
  let w = ref 1 in
  while !filled < nsyn && !w <= n do
    (* Gosper enumeration of weight-w masks. *)
    let v = ref ((1 lsl !w) - 1) in
    let limit = 1 lsl n in
    while !v < limit do
      let key = chunk_key kc !v in
      if corrections.(key) < 0 then begin
        corrections.(key) <- !v;
        incr filled
      end;
      let c = !v land - !v in
      let r = !v + c in
      v := (((r lxor !v) lsr 2) / c) lor r
    done;
    incr w
  done;
  (* Any syndrome still unfilled is unreachable (checks not independent);
     map it to the trivial correction. *)
  Array.iteri (fun i c -> if c < 0 then corrections.(i) <- 0) corrections;
  { corrections; checks; check_masks = Array.map support_mask checks }

let max_qubits = 30
let max_syndrome_bits = 16

let syndrome_bits (code : Code.t) =
  max (Array.length code.Code.x_stabs) (Array.length code.Code.z_stabs)

let create (code : Code.t) =
  if code.Code.n > max_qubits then invalid_arg "Decoder_lookup.create: code too large";
  if syndrome_bits code > max_syndrome_bits then
    invalid_arg "Decoder_lookup.create: syndrome table too large";
  { code;
    x_table = build_table ~n:code.Code.n ~checks:code.Code.z_stabs;
    z_table = build_table ~n:code.Code.n ~checks:code.Code.x_stabs;
    logical_z_mask = support_mask code.Code.logical_z.(0);
    logical_x_mask = support_mask code.Code.logical_x.(0) }

let mask_to_list mask =
  let rec go q acc =
    if 1 lsl q > mask then List.rev acc
    else go (q + 1) (if (mask lsr q) land 1 = 1 then q :: acc else acc)
  in
  go 0 []

let key_of_syndrome syndrome =
  let key = ref 0 in
  Array.iteri (fun i b -> if b <> 0 then key := !key lor (1 lsl i)) syndrome;
  !key

let decode_with table syndrome =
  if Array.length syndrome <> Array.length table.checks then
    invalid_arg "Decoder_lookup: syndrome length mismatch";
  mask_to_list table.corrections.(key_of_syndrome syndrome)

let decode_x t syndrome = decode_with t.x_table syndrome
let decode_z t syndrome = decode_with t.z_table syndrome

let logical_x_error_after_correction t ~actual =
  let syndrome = Code.syndrome_of_x_error t.code actual in
  let correction = decode_x t syndrome in
  Code.x_logical_flipped t.code 0 (actual @ correction)

let logical_z_error_after_correction t ~actual =
  let syndrome = Code.syndrome_of_z_error t.code actual in
  let correction = decode_z t syndrome in
  Code.z_logical_flipped t.code 0 (actual @ correction)

(* Mask-based fast path: the whole decode cycle on int bitmasks, zero
   allocation.  Parity of the concatenated (actual @ correction) support
   equals the parity of the XOR residual — duplicated qubits toggle twice in
   [Code.flipped] and cancel — so these agree exactly with the list
   versions above. *)

let parity_over mask support_mask =
  Bitvec.popcount_word (mask land support_mask) land 1 = 1

let correction_mask table name ~key =
  if key < 0 || key >= Array.length table.corrections then
    invalid_arg (name ^ ": syndrome key out of range");
  table.corrections.(key)

let x_correction_mask t ~key =
  correction_mask t.x_table "Decoder_lookup.x_correction_mask" ~key

let z_correction_mask t ~key =
  correction_mask t.z_table "Decoder_lookup.z_correction_mask" ~key

let logical_x_flip_mask t ~actual =
  let corr = t.x_table.corrections.(syndrome_key t.x_table.check_masks actual) in
  parity_over (actual lxor corr) t.logical_z_mask

let logical_z_flip_mask t ~actual =
  let corr = t.z_table.corrections.(syndrome_key t.z_table.check_masks actual) in
  parity_over (actual lxor corr) t.logical_x_mask
