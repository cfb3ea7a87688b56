(* The UEC shot loop as it was before batched draws and integer
   thresholds: one [Rng.bits53] per channel draw formed into a float
   uniform and compared with the float cumulative sums, one per check read,
   a bit-loop popcount, and logical flips judged through tables and
   syndrome keys built bit by bit ([Lookup_oracle]).  [Uec.logical_failures]
   must return the same failure count for the same profile, rounds, shots
   and generator. *)

let uniform rng = float_of_int (Rng.bits53 rng) *. 0x1.0p-53

let popcount mask =
  let c = ref 0 and x = ref mask in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

let support_mask s = Array.fold_left (fun acc q -> acc lor (1 lsl q)) 0 s

(* One draw from the Pauli channel [c] (I, X, Z, Y) on qubit [q]: [err.(0)]
   holds X errors, [err.(1)] Z errors. *)
let inject rng (c : float array) (err : int array) q =
  let u = uniform rng in
  let bit = 1 lsl q in
  if u < c.(1) then err.(0) <- err.(0) lxor bit
  else if u < c.(1) +. c.(2) then err.(1) <- err.(1) lxor bit
  else if u < c.(1) +. c.(2) +. c.(3) then begin
    err.(0) <- err.(0) lxor bit;
    err.(1) <- err.(1) lxor bit
  end

(* Noisy read of check [k] (Z checks first) as bit [k] of the syndrome. *)
let read_check rng (err : int array) ~nz (masks : int array) (flips : float array) k =
  let e = if k < nz then err.(0) else err.(1) in
  let p = popcount (e land masks.(k)) land 1 in
  let bit = if uniform rng < flips.(k) then 1 - p else p in
  bit lsl k

let logical_failures ?jobs ?params (prof : Uec.profile) ~rounds ~shots rng =
  let code = prof.Uec.code in
  let n = code.Code.n in
  let zs = code.Code.z_stabs and xs = code.Code.x_stabs in
  let x_table = Lookup_oracle.build_table ~n ~checks:zs in
  let z_table = Lookup_oracle.build_table ~n ~checks:xs in
  let logical_z = support_mask code.Code.logical_z.(0) in
  let logical_x = support_mask code.Code.logical_x.(0) in
  let flipped checks table logical err =
    let corr = table.(Lookup_oracle.syndrome_key checks err) in
    popcount ((err lxor corr) land logical) land 1 = 1
  in
  let stabs = Array.append zs xs in
  let nz = Array.length zs and nchecks = Array.length stabs in
  let ch = Uec.channels ?params prof in
  let masks = Array.map support_mask stabs in
  let z_keys = (1 lsl nz) - 1 in
  let run_chunk rng nshots =
    let failures = ref 0 in
    let err = [| 0; 0 |] in
    for _ = 1 to nshots do
      err.(0) <- 0;
      err.(1) <- 0;
      let prev_sz = ref (-1) and prev_sx = ref (-1) in
      for _ = 1 to rounds do
        let syndrome = ref 0 in
        (match prof.Uec.arch with
        | Uec.Het _ ->
            for k = 0 to nchecks - 1 do
              for q = 0 to n - 1 do
                inject rng ch.Uec.interval.(k) err q
              done;
              syndrome := !syndrome lor read_check rng err ~nz masks ch.Uec.flips k;
              Array.iter (fun q -> inject rng ch.Uec.touch err q) stabs.(k)
            done
        | Uec.Hom ->
            for q = 0 to n - 1 do
              inject rng ch.Uec.per_qubit.(q) err q
            done;
            for k = 0 to nchecks - 1 do
              syndrome := !syndrome lor read_check rng err ~nz masks ch.Uec.flips k
            done);
        let sz = !syndrome land z_keys and sx = !syndrome lsr nz in
        if !prev_sz >= 0 && !prev_sz = sz then err.(0) <- err.(0) lxor x_table.(sz);
        prev_sz := sz;
        if !prev_sx >= 0 && !prev_sx = sx then err.(1) <- err.(1) lxor z_table.(sx);
        prev_sx := sx
      done;
      if flipped zs x_table logical_z err.(0) || flipped xs z_table logical_x err.(1)
      then incr failures
    done;
    !failures
  in
  Parallel.monte_carlo_count ?jobs ~rng ~shots run_chunk
