let bisection_iters_total = Obs.Counter.create "qec.threshold_bisection_iters_total"
let threshold_shots_total = Obs.Counter.create "qec.threshold_shots_total"

let logical_errors ?jobs (code : Code.t) decoder ~p ~shots rng =
  if p < 0. || p > 1. then invalid_arg "Threshold.logical_errors: bad p";
  Obs.Counter.add threshold_shots_total shots;
  let n = code.Code.n in
  let p3 = p /. 3. in
  (* Bit-plane error generation: per qubit one X row and one Z row with
     bit s = shot s.  The categorical (p/3, p/3, p/3) depolarizing channel
     is drawn as three DISJOINT sparse Bernoulli masks by conditional
     thinning — X flips on m1|m2, Z on m2|m3 — so
     the RNG cost is O(p * shots) geometric-gap draws instead of one draw
     per (shot, qubit).  Rows are then transposed one 63-shot word block at
     a time into per-shot int masks for the decoder's mask-based fast
     path.  Chunked through Parallel, so the estimate is
     seed-deterministic at any job count. *)
  Parallel.monte_carlo_count ?jobs ~rng ~shots (fun rng nshots ->
      let xrows = Array.init n (fun _ -> Bitvec.create nshots) in
      let zrows = Array.init n (fun _ -> Bitvec.create nshots) in
      let m1 = Bitvec.create nshots in
      let m2 = Bitvec.create nshots in
      let m3 = Bitvec.create nshots in
      let thin1 = if 1. -. p3 <= 0. then 0. else min 1. (p3 /. (1. -. p3)) in
      let thin2 =
        if 1. -. (2. *. p3) <= 0. then 0.
        else min 1. (p3 /. (1. -. (2. *. p3)))
      in
      for q = 0 to n - 1 do
        Bitvec.random_into rng m1 ~p:p3;
        Bitvec.random_into rng m2 ~p:thin1;
        Bitvec.andnot_into ~dst:m2 m1;
        Bitvec.random_into rng m3 ~p:thin2;
        Bitvec.andnot_into ~dst:m3 m1;
        Bitvec.andnot_into ~dst:m3 m2;
        Bitvec.xor_into ~dst:xrows.(q) m1;
        Bitvec.xor_into ~dst:xrows.(q) m2;
        Bitvec.xor_into ~dst:zrows.(q) m2;
        Bitvec.xor_into ~dst:zrows.(q) m3
      done;
      let ws = Bitvec.word_size in
      let xerr = Array.make ws 0 in
      let zerr = Array.make ws 0 in
      let errors = ref 0 in
      for w = 0 to Bitvec.word_count xrows.(0) - 1 do
        Array.fill xerr 0 ws 0;
        Array.fill zerr 0 ws 0;
        for q = 0 to n - 1 do
          let bit = 1 lsl q in
          let scatter word (dst : int array) =
            let word = ref word in
            while !word <> 0 do
              let low = !word land - !word in
              let s = Bitvec.ctz low in
              dst.(s) <- dst.(s) lor bit;
              word := !word land (!word - 1)
            done
          in
          scatter (Bitvec.get_word xrows.(q) w) xerr;
          scatter (Bitvec.get_word zrows.(q) w) zerr
        done;
        let limit = min ws (nshots - (w * ws)) in
        for s = 0 to limit - 1 do
          if
            Decoder_lookup.logical_x_flip_mask decoder ~actual:xerr.(s)
            || Decoder_lookup.logical_z_flip_mask decoder ~actual:zerr.(s)
          then incr errors
        done
      done;
      !errors)

let logical_rate ?jobs code decoder ~p ~shots rng =
  float_of_int (logical_errors ?jobs code decoder ~p ~shots rng)
  /. float_of_int shots

let pseudothreshold ?jobs ?(lo = 1e-4) ?(hi = 0.45) ?(iters = 12)
    ?(shots = 20_000) (code : Code.t) rng =
  Obs.Trace.with_span "qec.pseudothreshold" ~attrs:[ ("code", code.Code.name) ]
    (fun () ->
      let decoder = Decoder_lookup.create code in
      let excess p = logical_rate ?jobs code decoder ~p ~shots rng -. p in
      let lo = ref lo and hi = ref hi in
      (* L(p) - p is negative below pseudothreshold.  If the code is never
         below threshold the bisection collapses to lo. *)
      if excess !lo > 0. then !lo
      else begin
        for _ = 1 to iters do
          Obs.Counter.incr bisection_iters_total;
          let mid = 0.5 *. (!lo +. !hi) in
          if excess mid < 0. then lo := mid else hi := mid
        done;
        0.5 *. (!lo +. !hi)
      end)
