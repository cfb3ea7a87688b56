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

let seed = 0x2545F4914F6CDD1DL

(* Absorb [len] bytes of [b] from [off]; [pos] is the stream offset of the
   first, since each byte is weighted by its position.  An indexed loop over
   a local ref, not Bytes.iteri: a closure would capture [h] and box a fresh
   int64 per byte; here it stays unboxed. *)
let absorb h b ~off ~len ~pos =
  let h = ref h in
  for i = 0 to len - 1 do
    let x =
      Int64.logxor !h
        (Int64.of_int ((Char.code (Bytes.unsafe_get b (off + i)) + 1) * (pos + i + 1)))
    in
    h := Int64.add (Int64.mul (rotl x 23) 0x9E3779B97F4A7C15L) 0x165667B19E3779F9L
  done;
  !h

let finish h len = fmix64 (Int64.logxor h (Int64.of_int len))

let hash64 s =
  let n = String.length s in
  finish (absorb seed (Bytes.unsafe_of_string s) ~off:0 ~len:n ~pos:0) n

type state = { mutable h : int64; mutable len : int }

let init () = { h = seed; len = 0 }

let feed st b off len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Content_hash.feed";
  st.h <- absorb st.h b ~off ~len ~pos:st.len;
  st.len <- st.len + len

let digest st = finish st.h st.len

(* Hex and decimal rendering by hand: Printf and string_of_int go through
   the C formatter, which cost more than the hash itself on the short
   component lists request identities are built from. *)
let hex_digit = "0123456789abcdef"

let hex64 h =
  let b = Bytes.create 16 in
  for i = 0 to 15 do
    let nibble = Int64.to_int (Int64.shift_right_logical h (60 - (4 * i))) land 15 in
    Bytes.unsafe_set b i (String.unsafe_get hex_digit nibble)
  done;
  Bytes.unsafe_to_string b

let hash_hex s = hex64 (hash64 s)

(* Length-prefixed canonical encoding: every component is written as
   "<len>:<bytes>", which makes the concatenation injective (no delimiter
   collisions) — two component lists collide only if they are equal.  The
   exact size is known up front, so the string is written in one pass. *)
let rec decimal_width n = if n < 10 then 1 else 1 + decimal_width (n / 10)

let component_size s =
  let n = String.length s in
  decimal_width n + 1 + n

let canonical components =
  let b =
    Bytes.create (List.fold_left (fun acc s -> acc + component_size s) 0 components)
  in
  let put pos s =
    let n = String.length s in
    let w = decimal_width n in
    let v = ref n in
    for i = pos + w - 1 downto pos do
      Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10
    done;
    Bytes.unsafe_set b (pos + w) ':';
    Bytes.unsafe_blit_string s 0 b (pos + w + 1) n;
    pos + w + 1 + n
  in
  ignore (List.fold_left put 0 components);
  Bytes.unsafe_to_string b

let of_components components = hash_hex (canonical components)
