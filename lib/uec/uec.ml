type arch = Het of { ts : float } | Hom

type params = {
  tc : float;
  p2 : float;
  t_2q : float;
  t_swap : float;
  t_readout : float;
  register_capacity : int;
  eta : float;
}

let default_params =
  { tc = 0.5e-3;
    p2 = 1e-2;
    t_2q = 100e-9;
    t_swap = 100e-9;
    t_readout = 1e-6;
    register_capacity = 10;
    eta = 1. }

type profile = {
  arch : arch;
  code : Code.t;
  round_time : float;
  storage_time : float array;
  compute_time : float array;
  gates_2q : int array;
  meas_flip : float array array;
  assignment : int array;
  params : params;
}

let all_stabs (code : Code.t) = Array.append code.Code.z_stabs code.Code.x_stabs

(* Serialized check duration for one stabilizer of weight [w] whose largest
   same-register group has [majority] qubits: first swap-out and last
   swap-in are exposed, swaps pipeline behind the ancilla CXs when
   consecutive qubits sit in different registers, and every forced
   same-register adjacency exposes one swap-in + swap-out pair.  With free
   ordering inside the check, the adjacencies are minimized by interleaving:
   max(0, majority - minority - 1). *)
let check_time p ~w ~majority =
  let exposed = max 0 ((2 * majority) - w - 1) in
  (2. *. p.t_swap)
  +. (float_of_int w *. p.t_2q)
  +. (float_of_int exposed *. 2. *. p.t_swap)
  +. p.t_readout

let stab_time p assignment supp =
  let w = Array.length supp in
  let majority = ref 0 in
  Array.iter
    (fun q ->
      let r = assignment.(q) in
      let c = Array.fold_left (fun c q' -> if assignment.(q') = r then c + 1 else c) 0 supp in
      if c > !majority then majority := c)
    supp;
  check_time p ~w ~majority:!majority

let round_time_of p assignment stabs =
  Array.fold_left (fun acc s -> acc +. stab_time p assignment s) 0. stabs

(* Brute force over balanced 2-register splits, one mask bit per data
   qubit.  A check's majority depends only on how many of its qubits the
   mask sets, so its duration is a table lookup indexed by
   [popcount (mask land support)], and a mask costs no allocation.  A mask
   and its complement have the same majorities and so bit-identical round
   times: the first strict minimum in ascending mask order always has bit
   n-1 clear, and only that half is enumerated. *)
let search_two_registers p n stabs =
  let cap = p.register_capacity in
  let nstabs = Array.length stabs in
  let supp_mask =
    Array.map (fun supp -> Array.fold_left (fun acc q -> acc lor (1 lsl q)) 0 supp) stabs
  in
  let times =
    Array.map
      (fun supp ->
        let w = Array.length supp in
        Array.init (w + 1) (fun k -> check_time p ~w ~majority:(max k (w - k))))
      stabs
  in
  let best_mask = ref (-1) and best_t = ref 0. in
  for mask = 0 to (1 lsl max 0 (n - 1)) - 1 do
    let ones = Bitvec.popcount_word mask in
    if ones <= cap && n - ones <= cap then begin
      let t = ref 0. in
      for i = 0 to nstabs - 1 do
        t := !t +. times.(i).(Bitvec.popcount_word (mask land supp_mask.(i)))
      done;
      if !best_mask < 0 || not (!best_t <= !t) then begin
        best_mask := mask;
        best_t := !t
      end
    end
  done;
  (* n <= 2 * cap here, so the low ceil(n/2) bits always fit. *)
  assert (!best_mask >= 0);
  Array.init n (fun q -> (!best_mask lsr q) land 1)

let compute_assignment p (code : Code.t) =
  if p.register_capacity < 1 then
    invalid_arg "Uec.compute_assignment: register_capacity must be >= 1";
  let n = code.Code.n in
  let registers = max 2 ((n + p.register_capacity - 1) / p.register_capacity) in
  if registers > 2 || n > 20 then begin
    (* Greedy: alternate qubits across registers in index order. *)
    Array.init n (fun q -> q mod registers)
  end
  else search_two_registers p n (all_stabs code)

(* Results are memoized per (code, capacity, timing) — the DSE cache
   pattern: the assignment depends only on the schedule geometry, not on
   coherence times, so every Ts sweep point reuses it. *)
let assignment_memo : (string, int array) Hashtbl.t = Hashtbl.create 16
let assignment_memo_lock = Mutex.create ()

let optimize_assignment p (code : Code.t) =
  let memo_key =
    Printf.sprintf "%s/%d/%g/%g/%g" code.Code.name p.register_capacity p.t_swap
      p.t_2q p.t_readout
  in
  let cached =
    Mutex.protect assignment_memo_lock (fun () ->
        Hashtbl.find_opt assignment_memo memo_key)
  in
  match cached with
  | Some a -> Array.copy a
  | None ->
      (* Computed outside the lock: a duplicate computation by a racing
         domain is idempotent. *)
      let a =
        Obs.Trace.with_span "uec.assign"
          ~attrs:[ ("code", code.Code.name) ]
          (fun () -> compute_assignment p code)
      in
      Mutex.protect assignment_memo_lock (fun () ->
          if not (Hashtbl.mem assignment_memo memo_key) then
            Hashtbl.add assignment_memo memo_key (Array.copy a));
      a

let meas_flip_of p supp = 1. -. ((1. -. (8. /. 15. *. p.p2)) ** float_of_int (Array.length supp))

let het_profile p ts (code : Code.t) =
  let n = code.Code.n in
  let assignment = optimize_assignment p code in
  let stabs = all_stabs code in
  let round_time = round_time_of p assignment stabs in
  let compute_time = Array.make n 0. in
  let gates = Array.make n 0 in
  Array.iter
    (fun supp ->
      Array.iter
        (fun q ->
          compute_time.(q) <- compute_time.(q) +. (2. *. p.t_swap) +. p.t_2q;
          (* storage-access SWAPs are coherence-limited (their idle cost is in
             compute_time); only the ancilla CX carries the 1% gate error *)
          gates.(q) <- gates.(q) + 1)
        supp)
    stabs;
  let storage_time = Array.init n (fun q -> round_time -. compute_time.(q)) in
  { arch = Het { ts };
    code;
    round_time;
    storage_time;
    compute_time;
    gates_2q = gates;
    meas_flip =
      [| Array.map (meas_flip_of p) code.Code.z_stabs;
         Array.map (meas_flip_of p) code.Code.x_stabs |];
    assignment;
    params = p }

let hom_profile p (code : Code.t) =
  let n = code.Code.n in
  let nstabs = Code.num_stabs code in
  let gates = Array.make n 0 in
  let round_time =
    if code.Code.planar then begin
      (* Lattice-native: four interleaved CX layers, no routing. *)
      Array.iter
        (fun supp -> Array.iter (fun q -> gates.(q) <- gates.(q) + 1) supp)
        (all_stabs code);
      (4. *. p.t_2q) +. p.t_readout
    end
    else begin
      (* Route every (data, ancilla) op on a shared lattice. *)
      let grid = Grid.of_min_qubits (n + nstabs) in
      let data_pos q = q in
      let anc_pos i = n + i in
      let ops = ref [] in
      let attribution = ref [] in
      Array.iteri
        (fun i supp ->
          Array.iter
            (fun q ->
              ops := { Router.a = data_pos q; b = anc_pos i } :: !ops;
              attribution := q :: !attribution)
            supp)
        (all_stabs code);
      let ops = List.rev !ops and attribution = List.rev !attribution in
      let sched = Router.schedule grid ops in
      List.iter2
        (fun q op -> gates.(q) <- gates.(q) + Router.route_cost grid op)
        attribution ops;
      (float_of_int sched.Router.makespan *. p.t_2q) +. p.t_readout
    end
  in
  { arch = Hom;
    code;
    round_time;
    storage_time = Array.make n 0.;
    compute_time = Array.make n round_time;
    gates_2q = gates;
    meas_flip =
      [| Array.map (meas_flip_of p) code.Code.z_stabs;
         Array.map (meas_flip_of p) code.Code.x_stabs |];
    assignment = Array.make n 0;
    params = p }

let profile ?(params = default_params) arch code =
  match arch with
  | Het { ts } -> het_profile params ts code
  | Hom -> hom_profile params code

(* Pauli-channel composition in (x,z) bit coordinates: I=0, X=1, Z=2, Y=3. *)
let compose_pauli a b =
  let out = Array.make 4 0. in
  for i = 0 to 3 do
    for j = 0 to 3 do
      out.(i lxor j) <- out.(i lxor j) +. (a.(i) *. b.(j))
    done
  done;
  out

(* Split a total Pauli probability with Z-bias eta: px = py = P/(2+eta),
   pz = eta P/(2+eta); eta = 1 recovers the unbiased split. *)
let biased_split ~eta total =
  let share = total /. (2. +. eta) in
  [| 1. -. total; share; eta *. share; share |]

let idle_probs ?(eta = 1.) ~t ~dt () =
  if dt <= 0. then [| 1.; 0.; 0.; 0. |]
  else begin
    let q = 1. -. exp (-.dt /. t) in
    biased_split ~eta (3. *. q /. 4.)
  end

let gate_probs ?(eta = 1.) p2 = biased_split ~eta (0.8 *. p2)

(* Per-qubit per-round effective Pauli channel. *)
let effective_channels prof =
  let params = prof.params in
  let ts = match prof.arch with Het { ts } -> ts | Hom -> params.tc in
  Array.init prof.code.Code.n (fun q ->
      let acc = ref (idle_probs ~eta:params.eta ~t:ts ~dt:prof.storage_time.(q) ()) in
      acc :=
        compose_pauli !acc
          (idle_probs ~eta:params.eta ~t:params.tc ~dt:prof.compute_time.(q) ());
      let g = gate_probs ~eta:params.eta params.p2 in
      for _ = 1 to prof.gates_2q.(q) do
        acc := compose_pauli !acc g
      done;
      !acc)

let uec_shots_total = Obs.Counter.create "uec.shots_total"
let uec_draws_total = Obs.Counter.create "uec.draws_total"

(* Lookup decoders, one per code: a build takes 0.04 ms (17QCC) to 8 ms
   (SC5), and a module sweep estimates each code dozens of times.  A
   decoder is read-only once built, so every domain shares it.  Keyed by
   name like the assignment memo, with the code itself checked on a hit. *)
let decoder_memo : (string, Code.t * Decoder_lookup.t) Hashtbl.t = Hashtbl.create 8
let decoder_memo_lock = Mutex.create ()

let lookup_decoder (code : Code.t) =
  let cached =
    Mutex.protect decoder_memo_lock (fun () ->
        Hashtbl.find_opt decoder_memo code.Code.name)
  in
  match cached with
  | Some (c, d) when c == code || c = code -> d
  | _ ->
      (* Built outside the lock, like the assignment. *)
      let d = Decoder_lookup.create code in
      Mutex.protect decoder_memo_lock (fun () ->
          Hashtbl.replace decoder_memo code.Code.name (code, d));
      d

type channels = {
  interval : float array array;
  touch : float array;
  per_qubit : float array array;
  flips : float array;
}

(* Checks are extracted at distinct times within a round (fully serialized
   on the USC; a single parallel step on the lattice), so noise is injected
   per extraction step — mid-round errors leave the serial syndrome
   internally inconsistent, which is the real cost of serialization. *)
let channels prof =
  let params = prof.params in
  let stabs = all_stabs prof.code in
  { interval =
      (match prof.arch with
      | Het { ts } ->
          Array.map
            (fun supp ->
              idle_probs ~eta:params.eta ~t:ts
                ~dt:(stab_time params prof.assignment supp) ())
            stabs
      | Hom -> [||]);
    (* Per-check extras for the touched qubits: compute-idle during the
       swaps and CX, plus the CX depolarizing marginal. *)
    touch =
      compose_pauli
        (idle_probs ~eta:params.eta ~t:params.tc
           ~dt:((2. *. params.t_swap) +. params.t_2q) ())
        (gate_probs ~eta:params.eta params.p2);
    per_qubit =
      (match prof.arch with Hom -> effective_channels prof | Het _ -> [||]);
    flips = Array.append prof.meas_flip.(0) prof.meas_flip.(1) }

(* The loop compares integer draws with integer thresholds.  A draw
   [b = Rng.bits53] stands for the uniform [u = b * 2^-53] exactly, and
   scaling by 2^53 is exact, so for an integer [b], [u < c] holds iff
   [b < ceil (c * 2^53)].  Clamped to [0, 2^53]: [c >= 1] always fires,
   [c <= 0] (or nan) never. *)
let threshold c =
  if not (c > 0.) then 0
  else if c >= 1. then 1 lsl 53
  else int_of_float (Float.ceil (c *. 0x1p53))

(* A Pauli channel (I, X, Z, Y) as three thresholds on one draw, at [3 i]
   in the output: X below [t1 = threshold c1], else Z below
   [t2 = threshold (c1 + c2)], else Y below [t3 = threshold (c1 + c2 + c3)],
   on the float sums a uniform was compared with.  Stored as running maxima,
   which picks the same Pauli for every draw and makes [t3] the bound below
   which a draw acts at all. *)
let pauli_thresholds (chans : float array array) =
  let out = Array.make (3 * Array.length chans) 0 in
  Array.iteri
    (fun i (c : float array) ->
      let t1 = threshold c.(1) in
      let t2 = max t1 (threshold (c.(1) +. c.(2))) in
      let t3 = max t2 (threshold (c.(1) +. c.(2) +. c.(3))) in
      out.(3 * i) <- t1;
      out.((3 * i) + 1) <- t2;
      out.((3 * i) + 2) <- t3)
    chans;
  out

(* 1 when [b < t], else 0, without a branch: both lie in [0, 2^53], so the
   difference is negative exactly when [b < t], and bit 62 is its sign.  A
   draw below [t3] carries X when below [t1] or from [t2] on, and Z from
   [t1] on: the bits are [1 + below b t1 - below b t2] and
   [1 - below b t1]. *)
let[@inline] below b t = (b - t) lsr 62

(* Each domain keeps one draw buffer, grown on demand, so a chunk takes no
   allocation for it after the first. *)
let draw_buffer_key = Domain.DLS.new_key (fun () -> [||])

let draw_buffer k =
  let buf = Domain.DLS.get draw_buffer_key in
  if Array.length buf >= k then buf
  else begin
    let buf = Array.make k 0 in
    Domain.DLS.set draw_buffer_key buf;
    buf
  end

let logical_failures_impl ?jobs prof ~rounds ~shots rng =
  if rounds < 1 || shots < 1 then invalid_arg "Uec.logical_error_rate";
  let code = prof.code in
  let n = code.Code.n in
  let decoder = lookup_decoder code in
  let stabs = all_stabs code in
  let nz = Array.length code.Code.z_stabs in
  let nchecks = Array.length stabs in
  let het = match prof.arch with Het _ -> true | Hom -> false in
  let ch = channels prof in
  (* Het: one idle channel per check interval; hom: one channel per qubit. *)
  let idle = pauli_thresholds (if het then ch.interval else ch.per_qubit) in
  let touch = pauli_thresholds [| ch.touch |] in
  let flip = Array.map threshold ch.flips in
  let masks =
    Array.map (fun supp -> Array.fold_left (fun acc q -> acc lor (1 lsl q)) 0 supp) stabs
  in
  (* A round's draws, in the order the loop consumes them: het, per check,
     [n] idle draws, one read flip and one draw per support qubit; hom, [n]
     channel draws, then one read flip per check. *)
  let per_round =
    if het then Array.fold_left (fun acc s -> acc + n + 1 + Array.length s) 0 stabs
    else n + nchecks
  in
  let z_keys = (1 lsl nz) - 1 in
  (* Shot chunks fan across domains; everything above (the thresholds,
     masks and the decoder) is read-only and shared.  Error state lives in
     two int bitmasks held in local refs (bit q = qubit q; n <= 30 is
     enforced by [Decoder_lookup.create]) and a round's syndrome in one int
     word (Z checks in the low [nz] bits).  Each round fills its draws with
     one [Rng.fill_bits53] into the domain's buffer, so a shot allocates
     nothing.  The stream and its order are those of one uniform per
     channel draw and one bernoulli per check read, and every comparison is
     exact (see [threshold]), so failure counts are bit-identical to that
     per-draw loop, kept as the oracle in test/uec_oracle.ml. *)
  let run_chunk rng nshots =
    Obs.Counter.add uec_draws_total (nshots * rounds * per_round);
    let buf = draw_buffer per_round in
    let u1 = touch.(0) and u2 = touch.(1) and u3 = touch.(2) in
    let failures = ref 0 in
    for _ = 1 to nshots do
      let ex = ref 0 and ez = ref 0 in
      let prev_sz = ref (-1) and prev_sx = ref (-1) in
      for _ = 1 to rounds do
        Rng.fill_bits53 rng buf per_round;
        let syndrome = ref 0 in
        if het then begin
          (* Serial: idle interval, read the check, then its gate noise. *)
          let pos = ref 0 in
          for k = 0 to nchecks - 1 do
            let t1 = idle.(3 * k) and t2 = idle.((3 * k) + 1) in
            let t3 = idle.((3 * k) + 2) in
            for q = 0 to n - 1 do
              let b = buf.(!pos + q) in
              if b < t3 then begin
                let b1 = below b t1 in
                ex := !ex lxor ((1 + b1 - below b t2) lsl q);
                ez := !ez lxor ((1 - b1) lsl q)
              end
            done;
            pos := !pos + n;
            let e = if k < nz then !ex else !ez in
            let bit = Bitvec.popcount_word (e land masks.(k)) land 1 in
            let bit = if buf.(!pos) < flip.(k) then 1 - bit else bit in
            syndrome := !syndrome lor (bit lsl k);
            incr pos;
            let supp = stabs.(k) in
            let w = Array.length supp in
            for i = 0 to w - 1 do
              let b = buf.(!pos + i) in
              if b < u3 then begin
                let b1 = below b u1 and q = supp.(i) in
                ex := !ex lxor ((1 + b1 - below b u2) lsl q);
                ez := !ez lxor ((1 - b1) lsl q)
              end
            done;
            pos := !pos + w
          done
        end
        else begin
          (* Parallel: all of the round's noise (idle plus every routed 2q
             gate) lands, then every check reads the same error state. *)
          for q = 0 to n - 1 do
            let b = buf.(q) in
            if b < idle.((3 * q) + 2) then begin
              let b1 = below b idle.(3 * q) in
              ex := !ex lxor ((1 + b1 - below b idle.((3 * q) + 1)) lsl q);
              ez := !ez lxor ((1 - b1) lsl q)
            end
          done;
          for k = 0 to nchecks - 1 do
            let e = if k < nz then !ex else !ez in
            let bit = Bitvec.popcount_word (e land masks.(k)) land 1 in
            let bit = if buf.(n + k) < flip.(k) then 1 - bit else bit in
            syndrome := !syndrome lor (bit lsl k)
          done
        end;
        let sz = !syndrome land z_keys and sx = !syndrome lsr nz in
        (* Repeat-until-agree: apply a correction only when two consecutive
           extractions agree, suppressing syndrome noise to second order. *)
        if !prev_sz >= 0 && !prev_sz = sz then
          ex := !ex lxor Decoder_lookup.x_correction_mask decoder ~key:sz;
        prev_sz := sz;
        if !prev_sx >= 0 && !prev_sx = sx then
          ez := !ez lxor Decoder_lookup.z_correction_mask decoder ~key:sx;
        prev_sx := sx
      done;
      (* End-of-experiment evaluation with a final ideal recovery (noiseless
         syndrome, perfect decode) — the standard memory-experiment
         semantics; judging the transient state every round would count
         correctable weight-2 patterns as failures.  [logical_x_flip_mask]
         is exactly ideal-residual-then-logical-parity on masks. *)
      let x_fail = Decoder_lookup.logical_x_flip_mask decoder ~actual:!ex in
      let z_fail = Decoder_lookup.logical_z_flip_mask decoder ~actual:!ez in
      if x_fail || z_fail then incr failures
    done;
    !failures
  in
  Parallel.monte_carlo_count ?jobs ~rng ~shots run_chunk

let per_round_rate ~failures ~rounds ~shots =
  let per_shot = float_of_int failures /. float_of_int shots in
  (* Per-round (per-cycle) rate. *)
  if per_shot >= 1. then 1.
  else 1. -. ((1. -. per_shot) ** (1. /. float_of_int rounds))

let logical_failures ?jobs prof ~rounds ~shots rng =
  Obs.Counter.add uec_shots_total shots;
  Obs.Trace.with_span "uec.logical_error_rate"
    ~attrs:
      [ ("code", prof.code.Code.name);
        ("rounds", string_of_int rounds);
        ("shots", string_of_int shots) ]
    (fun () -> logical_failures_impl ?jobs prof ~rounds ~shots rng)

let logical_error_rate ?jobs prof ~rounds ~shots rng =
  let failures = logical_failures ?jobs prof ~rounds ~shots rng in
  per_round_rate ~failures ~rounds ~shots

(* Campaign integration: a UEC experiment as a Collect task.  Identity spans
   code, architecture, rounds, decoder, and the whole noise model, so het
   and hom points — and different Ts — never collide in a ledger.  The
   profile (including the brute-force register assignment) is built on the
   first sampled batch.  Errors are per-shot failures; convert with
   {!per_round_rate} when plotting. *)
let collect_task ?(params = default_params) arch (code : Code.t) ~rounds =
  if rounds < 1 then invalid_arg "Uec.collect_task: rounds must be >= 1";
  let prof = lazy (profile ~params arch code) in
  let arch_fields =
    match arch with
    | Het { ts } -> [ ("arch", "het"); ("ts", Printf.sprintf "%.17g" ts) ]
    | Hom -> [ ("arch", "hom") ]
  in
  Collect.Task.create ~kind:"uec.logical"
    ~fields:
      (arch_fields
      @ [ ("code", code.Code.name);
          ("n", string_of_int code.Code.n);
          ("distance", string_of_int code.Code.distance);
          ("rounds", string_of_int rounds);
          ("decoder", "lookup");
          ("tc", Printf.sprintf "%.17g" params.tc);
          ("p2", Printf.sprintf "%.17g" params.p2);
          ("eta", Printf.sprintf "%.17g" params.eta);
          ("t_2q", Printf.sprintf "%.17g" params.t_2q);
          ("t_swap", Printf.sprintf "%.17g" params.t_swap);
          ("t_readout", Printf.sprintf "%.17g" params.t_readout);
          ("register_capacity", string_of_int params.register_capacity) ])
    ~sample:(fun rng shots ->
      logical_failures (Lazy.force prof) ~rounds ~shots rng)

(* Ablation helper: serialized round time when all data shares one register
   (no swap pipelining) versus the optimized two-register assignment. *)
let round_time_with_registers ?(params = default_params) (code : Code.t) ~registers =
  let stabs = all_stabs code in
  match registers with
  | 1 -> round_time_of params (Array.make code.Code.n 0) stabs
  | 2 -> round_time_of params (optimize_assignment params code) stabs
  | _ -> invalid_arg "Uec.round_time_with_registers: 1 or 2 registers"

let fig9_point ?(params = default_params) ~code ~ts ~shots rng =
  let prof = profile ~params (Het { ts }) code in
  (* 3 rounds keeps the per-shot failure probability out of saturation even
     for the noisiest configurations while still exercising the
     repeat-until-agree syndrome handling. *)
  logical_error_rate prof ~rounds:3 ~shots rng

let table3_row ?(params = default_params) ~code ~ts ~shots rng =
  let het = profile ~params (Het { ts }) code in
  let hom = profile ~params Hom code in
  let het_rate = logical_error_rate het ~rounds:3 ~shots rng in
  let hom_rate = logical_error_rate hom ~rounds:3 ~shots rng in
  let reduction = if het_rate > 0. then hom_rate /. het_rate else infinity in
  (het_rate, hom_rate, reduction)
