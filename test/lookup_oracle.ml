(* The lookup decoder's table build as it was before keys came from
   chunked syndrome-column tables: each Gosper mask's syndrome key walks
   every check's support bit by bit.  [Decoder_lookup] must build the same
   tables. *)

let syndrome_key checks err_mask =
  let key = ref 0 in
  for i = 0 to Array.length checks - 1 do
    let s = checks.(i) in
    let c = ref 0 in
    for j = 0 to Array.length s - 1 do
      c := !c lxor ((err_mask lsr s.(j)) land 1)
    done;
    if !c = 1 then key := !key lor (1 lsl i)
  done;
  !key

(* Syndrome key -> minimum-weight correction mask, weight by weight in
   Gosper order, first mask per key wins; unreachable keys map to 0. *)
let build_table ~n ~checks =
  let nsyn = 1 lsl Array.length checks in
  let corrections = Array.make nsyn (-1) in
  corrections.(0) <- 0;
  let filled = ref 1 in
  let w = ref 1 in
  while !filled < nsyn && !w <= n do
    let v = ref ((1 lsl !w) - 1) in
    let limit = 1 lsl n in
    while !v < limit do
      let key = syndrome_key checks !v in
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
  Array.map (fun c -> if c < 0 then 0 else c) corrections
