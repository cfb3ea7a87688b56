type t = { bits : int array; n : int }

let wordsize = 63
let words n = (n + wordsize - 1) / wordsize
let create n = { bits = Array.make (max 1 (words n)) 0; n }
let length t = t.n

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitvec: index out of bounds"

let get t i =
  check t i;
  t.bits.(i / wordsize) land (1 lsl (i mod wordsize)) <> 0

let set t i b =
  check t i;
  let w = i / wordsize and m = 1 lsl (i mod wordsize) in
  if b then t.bits.(w) <- t.bits.(w) lor m else t.bits.(w) <- t.bits.(w) land lnot m

(* Index of the lowest set bit of a nonzero word: six branch-and-shift steps
   instead of a linear scan, for the hot transposition loops that peel words
   bit by bit with [w land (-w)]. *)
let ctz w =
  if w = 0 then invalid_arg "Bitvec.ctz: zero word";
  let x = ref (w land (-w)) in
  let n = ref 0 in
  if !x land 0xFFFFFFFF = 0 then begin n := !n + 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then incr n;
  !n

let flip t i =
  check t i;
  let w = i / wordsize in
  t.bits.(w) <- t.bits.(w) lxor (1 lsl (i mod wordsize))

let clear t = Array.fill t.bits 0 (Array.length t.bits) 0
let copy t = { bits = Array.copy t.bits; n = t.n }

(* Mask for the valid bits of the last word, so whole-word fills never set
   bits past [n].  All other kernels preserve the invariant that bits >= n
   are zero, which keeps [popcount]/[equal] exact. *)
let top_mask t =
  let valid = t.n - ((Array.length t.bits - 1) * wordsize) in
  if valid >= wordsize || valid <= 0 then -1 else (1 lsl valid) - 1

let set_all t =
  Array.fill t.bits 0 (Array.length t.bits) (-1);
  let last = Array.length t.bits - 1 in
  t.bits.(last) <- t.bits.(last) land top_mask t

let xor_into ~dst src =
  if dst.n <> src.n then invalid_arg "Bitvec.xor_into: length mismatch";
  for w = 0 to Array.length dst.bits - 1 do
    dst.bits.(w) <- dst.bits.(w) lxor src.bits.(w)
  done

let xor_words ~dst a b =
  if dst.n <> a.n || dst.n <> b.n then invalid_arg "Bitvec.xor_words: length mismatch";
  for w = 0 to Array.length dst.bits - 1 do
    dst.bits.(w) <- a.bits.(w) lxor b.bits.(w)
  done

let or_into ~dst src =
  if dst.n <> src.n then invalid_arg "Bitvec.or_into: length mismatch";
  for w = 0 to Array.length dst.bits - 1 do
    dst.bits.(w) <- dst.bits.(w) lor src.bits.(w)
  done

let and_into ~dst src =
  if dst.n <> src.n then invalid_arg "Bitvec.and_into: length mismatch";
  for w = 0 to Array.length dst.bits - 1 do
    dst.bits.(w) <- dst.bits.(w) land src.bits.(w)
  done

let andnot_into ~dst src =
  if dst.n <> src.n then invalid_arg "Bitvec.andnot_into: length mismatch";
  for w = 0 to Array.length dst.bits - 1 do
    dst.bits.(w) <- dst.bits.(w) land lnot src.bits.(w)
  done

(* Batched Bernoulli fill: every bit independently 1 with probability p.
   Sparse p uses geometric gap sampling (expected p*n + 1 draws instead of n);
   p = 1/2 takes 63 bits straight from one raw word; dense p mirrors the
   sparse path on the complement.  The mid band falls back to per-bit coins,
   which is no worse than a scalar sampler — noise in our workloads is
   either rare (gate/idle errors) or exactly 1/2 (measurement scramble). *)
let random_into rng t ~p =
  if Float.is_nan p || p < 0. || p > 1. then invalid_arg "Bitvec.random_into: bad p";
  let sparse_fill p =
    clear t;
    if p > 0. then begin
      let log1mp = log1p (-.p) in
      let i = ref (-1) in
      let continue = ref true in
      while !continue do
        let gap = Rng.geometric rng ~log1mp in
        i := !i + 1 + gap;
        if !i >= t.n || !i < 0 then continue := false
        else begin
          let w = !i / wordsize in
          t.bits.(w) <- t.bits.(w) lor (1 lsl (!i mod wordsize))
        end
      done
    end
  in
  if p = 0. then clear t
  else if p = 1. then set_all t
  else if p = 0.5 then begin
    for w = 0 to Array.length t.bits - 1 do
      (* Int64.to_int keeps the low 63 bits: one raw draw fills the word. *)
      t.bits.(w) <- Int64.to_int (Rng.bits64 rng)
    done;
    let last = Array.length t.bits - 1 in
    t.bits.(last) <- t.bits.(last) land top_mask t
  end
  else if p <= 0.1 then sparse_fill p
  else if p >= 0.9 then begin
    sparse_fill (1. -. p);
    for w = 0 to Array.length t.bits - 1 do
      t.bits.(w) <- lnot t.bits.(w)
    done;
    let last = Array.length t.bits - 1 in
    t.bits.(last) <- t.bits.(last) land top_mask t
  end
  else begin
    clear t;
    for i = 0 to t.n - 1 do
      if Rng.bernoulli rng p then
        t.bits.(i / wordsize) <- t.bits.(i / wordsize) lor (1 lsl (i mod wordsize))
    done
  end

(* Kernighan popcount: words are sparse in our workloads, and OCaml has no
   portable hardware popcount without C stubs. *)
let popcount_word w =
  let c = ref 0 and x = ref w in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

let popcount t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.bits

let and_popcount a b =
  if a.n <> b.n then invalid_arg "Bitvec.and_popcount: length mismatch";
  let acc = ref 0 in
  for w = 0 to Array.length a.bits - 1 do
    acc := !acc + popcount_word (a.bits.(w) land b.bits.(w))
  done;
  !acc

(* Indexed loops, not Array.for_all/for_all2: those allocate their inner
   loop closure on every call, and both run per noise component in the DEM
   structure pass. *)
let is_zero t =
  let w = ref 0 and n = Array.length t.bits in
  while !w < n && Array.unsafe_get t.bits !w = 0 do
    incr w
  done;
  !w = n

let equal a b =
  a.n = b.n
  && begin
       let w = ref 0 and n = Array.length a.bits in
       while !w < n && Array.unsafe_get a.bits !w = Array.unsafe_get b.bits !w do
         incr w
       done;
       !w = n
     end

let iter_set t f =
  for w = 0 to Array.length t.bits - 1 do
    let word = t.bits.(w) in
    if word <> 0 then
      for b = 0 to wordsize - 1 do
        if word land (1 lsl b) <> 0 then begin
          let i = (w * wordsize) + b in
          if i < t.n then f i
        end
      done
  done

let word_count t = Array.length t.bits
let get_word t w = t.bits.(w)
let word_size = wordsize

let to_string t = String.init t.n (fun i -> if get t i then '1' else '0')
