(* Hand-rolled 64-bit content hash (rotate-multiply absorption with a
   murmur-style finalizer — deliberately not Hashtbl.hash, whose value is
   not specified across OCaml versions).  Stable across runs and platforms:
   content-addressed identities (collect-campaign tasks, characterization-
   store keys) must outlive any one process, so this implementation is
   frozen — the pinned-value tests in test_util/test_collect guard it. *)

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let fmix64 h =
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xFF51AFD7ED558CCDL in
  let h = Int64.logxor h (Int64.shift_right_logical h 29) in
  let h = Int64.mul h 0xC4CEB9FE1A85EC53L in
  Int64.logxor h (Int64.shift_right_logical h 32)

(* An indexed loop over a local ref, not String.iteri: a closure would
   capture [h] and box a fresh int64 per byte; here it stays unboxed. *)
let hash64 s =
  let h = ref 0x2545F4914F6CDD1DL in
  for i = 0 to String.length s - 1 do
    let x =
      Int64.logxor !h (Int64.of_int ((Char.code (String.unsafe_get s i) + 1) * (i + 1)))
    in
    h := Int64.add (Int64.mul (rotl x 23) 0x9E3779B97F4A7C15L) 0x165667B19E3779F9L
  done;
  fmix64 (Int64.logxor !h (Int64.of_int (String.length s)))

let hash_hex s = Printf.sprintf "%016Lx" (hash64 s)

(* Length-prefixed canonical encoding: every component is written as
   "<len>:<bytes>", which makes the concatenation injective (no delimiter
   collisions) — two component lists collide only if they are equal. *)
let add_component b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let canonical components =
  let b = Buffer.create 64 in
  List.iter (add_component b) components;
  Buffer.contents b

let of_components components = hash_hex (canonical components)
