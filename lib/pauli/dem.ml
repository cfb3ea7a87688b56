type mechanism = { p : float; detectors : int array; obs_mask : int }

let[@inline] combine p1 p2 = (p1 *. (1. -. p2)) +. (p2 *. (1. -. p1))

let structures_total = Obs.Counter.create "pauli.dem_structures_total"

(* Signature table keyed on the live bit vector.  [Hashtbl] takes the
   bucket from the low bits, and a bare multiply-xor only carries low bits
   upward, so every word goes through a full murmur-style finalizer that
   folds the high bits back down. *)
module Sig_table = Hashtbl.Make (struct
  type t = Bitvec.t

  let equal = Bitvec.equal

  let fmix h =
    let h = h lxor (h lsr 29) in
    let h = h * 0x3f51afd7ed558ccd in
    let h = h lxor (h lsr 32) in
    let h = h * 0x04cd9e8f5a6b3c2d in
    h lxor (h lsr 29)

  let hash v =
    let h = ref (Bitvec.length v) in
    for w = 0 to Bitvec.word_count v - 1 do
      h := fmix (!h lxor Bitvec.get_word v w)
    done;
    !h land max_int
end)

(* ------------------------------------------------------------ shape --- *)

(* One int per op: gate kind, which of its recorded noise probabilities are
   positive (a Depol2 records p/15, which a subnormal p rounds to 0), and
   the qubits in 28-bit fields.  An op with a qubit outside [0, nqubits)
   codes as -1; the structure pass rejects every such op that touches the
   sensitivity arrays, so -1 survives only for Paulis, which never change
   the DEM. *)
let qubit_bits = 28

let code nq kind mask a b =
  if a >= 0 && a < nq && b >= 0 && b < nq then
    kind lor (mask lsl 4) lor (a lsl 7) lor (b lsl (7 + qubit_bits))
  else -1

let pos p = if p > 0. then 1 else 0

(* No local closures: the shape check calls this once per op. *)
let op_code nq (g : Circuit.gate) =
  match g with
  | Circuit.H q -> code nq 0 0 q 0
  | Circuit.S q -> code nq 1 0 q 0
  | Circuit.X q -> code nq 2 0 q 0
  | Circuit.Y q -> code nq 3 0 q 0
  | Circuit.Z q -> code nq 4 0 q 0
  | Circuit.CX (a, b) -> code nq 5 0 a b
  | Circuit.CZ (a, b) -> code nq 6 0 a b
  | Circuit.SWAP (a, b) -> code nq 7 0 a b
  | Circuit.M q -> code nq 8 0 q 0
  | Circuit.R q -> code nq 9 0 q 0
  | Circuit.Noise1 { px; py; pz; q } ->
      code nq 10 (pos px lor (pos py lsl 1) lor (pos pz lsl 2)) q 0
  | Circuit.Depol2 { p; a; b } -> code nq 11 (pos (p /. 15.)) a b

type structure = {
  nqubits : int;
  nmeas : int;
  det_lists : int array array;
  obs_lists : int array array;
  shape : int array;  (* op_code per op *)
  mech_detectors : int array array;  (* by mechanism id, first-seen order *)
  mech_obs : int array;
  counts : Bytes.t;  (* contributions per op, at most 15 *)
  contributions : (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (* backward-pass order, (mechanism id lsl 2) lor comp: comp 0 = px,
         1 = pz, 2 = py of a Noise1; Depol2 components are all p/15 and code
         3.  Off the OCaml heap and half a word each: this is most of what
         the reuse slot keeps alive.  One trimmed int array packing the op
         index instead (no [counts]) measured 3 MB more perfbench
         surface-sweep peak RSS (36.8 vs 33.8 MB, 2-vCPU machine). *)
}

let same_shape s (c : Circuit.t) =
  s.nqubits = c.Circuit.nqubits
  && s.nmeas = c.Circuit.nmeas
  && Array.length s.shape = Array.length c.Circuit.ops
  && begin
       let ops = c.Circuit.ops in
       let i = ref 0 and n = Array.length ops in
       while !i < n && op_code s.nqubits ops.(!i) = s.shape.(!i) do
         incr i
       done;
       !i = n
     end
  && s.det_lists = c.Circuit.detectors
  && s.obs_lists = c.Circuit.observables

(* ------------------------------------------------------ structure pass --- *)

let structure (c : Circuit.t) =
  Obs.Counter.incr structures_total;
  let ops = c.Circuit.ops in
  let nops = Array.length ops in
  let ndet = Array.length c.Circuit.detectors in
  let nobs = Array.length c.Circuit.observables in
  let width = ndet + nobs in
  let table = Sig_table.create 1024 in
  let rev_mechs = ref [] and nmech = ref 0 in
  let counts = Bytes.make nops '\000' in
  let contribs = ref (Array.make 1024 0) and ncontrib = ref 0 in
  let push x =
    if !ncontrib = Array.length !contribs then begin
      let bigger = Array.make (2 * !ncontrib) 0 in
      Array.blit !contribs 0 bigger 0 !ncontrib;
      contribs := bigger
    end;
    !contribs.(!ncontrib) <- x;
    incr ncontrib
  in
  (* [sig_bits] is live scratch: it is copied only when first seen. *)
  let record op comp p sig_bits =
    if p > 0. && not (Bitvec.is_zero sig_bits) then begin
      let id =
        match Sig_table.find table sig_bits with
        | id -> id
        | exception Not_found ->
            let id = !nmech in
            Sig_table.add table (Bitvec.copy sig_bits) id;
            let dets = ref [] and obs = ref 0 in
            Bitvec.iter_set sig_bits (fun i ->
                if i < ndet then dets := i :: !dets
                else obs := !obs lor (1 lsl (i - ndet)));
            rev_mechs := (Array.of_list (List.rev !dets), !obs) :: !rev_mechs;
            incr nmech;
            id
      in
      if id lsr 29 <> 0 then invalid_arg "Dem.structure: too many mechanisms";
      Bytes.set counts op (Char.chr (Char.code (Bytes.get counts op) + 1));
      push ((id lsl 2) lor comp)
    end
  in
  if width > 0 then begin
    (* Which detectors/observables contain each measurement. *)
    let meas_sig = Array.init (max 1 c.Circuit.nmeas) (fun _ -> Bitvec.create width) in
    Array.iteri
      (fun di meas -> Array.iter (fun m -> Bitvec.flip meas_sig.(m) di) meas)
      c.Circuit.detectors;
    Array.iteri
      (fun oi meas -> Array.iter (fun m -> Bitvec.flip meas_sig.(m) (ndet + oi)) meas)
      c.Circuit.observables;
    let n = c.Circuit.nqubits in
    let sens_x = Array.init n (fun _ -> Bitvec.create width) in
    let sens_z = Array.init n (fun _ -> Bitvec.create width) in
    let zero = Bitvec.create width in
    let y_a = Bitvec.create width and y_b = Bitvec.create width in
    let pair = Bitvec.create width in
    let pauli sx sz y = function 0 -> zero | 1 -> sx | 2 -> y | _ -> sz in
    let mi = ref c.Circuit.nmeas in
    (* Backward pass: sens_x.(q) is the signature an X error at the current
       position will flip. *)
    for i = nops - 1 downto 0 do
      match ops.(i) with
      | Circuit.H q ->
          let t = sens_x.(q) in
          sens_x.(q) <- sens_z.(q);
          sens_z.(q) <- t
      | Circuit.S q ->
          (* X before S acts as Y = X.Z after. *)
          Bitvec.xor_into ~dst:sens_x.(q) sens_z.(q)
      | Circuit.X _ | Circuit.Y _ | Circuit.Z _ -> ()
      | Circuit.CX (a, b) ->
          Bitvec.xor_into ~dst:sens_x.(a) sens_x.(b);
          Bitvec.xor_into ~dst:sens_z.(b) sens_z.(a)
      | Circuit.CZ (a, b) ->
          Bitvec.xor_into ~dst:sens_x.(a) sens_z.(b);
          Bitvec.xor_into ~dst:sens_x.(b) sens_z.(a)
      | Circuit.SWAP (a, b) ->
          let tx = sens_x.(a) and tz = sens_z.(a) in
          sens_x.(a) <- sens_x.(b);
          sens_z.(a) <- sens_z.(b);
          sens_x.(b) <- tx;
          sens_z.(b) <- tz
      | Circuit.M q ->
          decr mi;
          Bitvec.xor_into ~dst:sens_x.(q) meas_sig.(!mi)
      | Circuit.R q ->
          Bitvec.clear sens_x.(q);
          Bitvec.clear sens_z.(q)
      | Circuit.Noise1 { px; py; pz; q } ->
          record i 0 px sens_x.(q);
          record i 1 pz sens_z.(q);
          Bitvec.xor_words ~dst:y_a sens_x.(q) sens_z.(q);
          record i 2 py y_a
      | Circuit.Depol2 { p; a; b } ->
          (* The 15 non-identity Pauli pairs, in (I, X, Y, Z) x (I, X, Y, Z)
             order. *)
          let comp = p /. 15. in
          Bitvec.xor_words ~dst:y_a sens_x.(a) sens_z.(a);
          Bitvec.xor_words ~dst:y_b sens_x.(b) sens_z.(b);
          for pa = 0 to 3 do
            for pb = 0 to 3 do
              if pa <> 0 || pb <> 0 then begin
                let sa = pauli sens_x.(a) sens_z.(a) y_a pa
                and sb = pauli sens_x.(b) sens_z.(b) y_b pb in
                Bitvec.xor_words ~dst:pair sa sb;
                record i 3 comp pair
              end
            done
          done
    done;
    assert (!mi = 0)
  end;
  let mechs = Array.of_list (List.rev !rev_mechs) in
  let contributions = Bigarray.(Array1.create int32 c_layout !ncontrib) in
  for k = 0 to !ncontrib - 1 do
    Bigarray.Array1.unsafe_set contributions k (Int32.of_int !contribs.(k))
  done;
  { nqubits = c.Circuit.nqubits;
    nmeas = c.Circuit.nmeas;
    det_lists = Array.map Array.copy c.Circuit.detectors;
    obs_lists = Array.map Array.copy c.Circuit.observables;
    shape = Array.map (op_code c.Circuit.nqubits) ops;
    mech_detectors = Array.map fst mechs;
    mech_obs = Array.map snd mechs;
    counts;
    contributions }

(* --------------------------------------------------------- weight pass --- *)

(* Mechanism ids are handed out in first-contribution order, so the first
   contribution of id [k] arrives exactly when [fresh = k]: it sets [p], and
   every later one combines into it in the same order the old per-signature
   hashtable did — bit-identical probabilities. *)
let weigh_unchecked s (c : Circuit.t) =
  let ops = c.Circuit.ops in
  let nmech = Array.length s.mech_obs in
  let ps = Array.make nmech 0. in
  let fresh = ref 0 and k = ref 0 in
  for i = Array.length ops - 1 downto 0 do
    for _ = 1 to Char.code (Bytes.unsafe_get s.counts i) do
      let x = Int32.to_int (Bigarray.Array1.unsafe_get s.contributions !k) in
      incr k;
      let m = x lsr 2 in
      let p =
        match ops.(i) with
        | Circuit.Noise1 { px; py; pz; _ } -> (
            match x land 3 with 0 -> px | 1 -> pz | _ -> py)
        | Circuit.Depol2 { p; _ } -> p /. 15.
        | _ -> assert false
      in
      if m = !fresh then begin
        ps.(m) <- p;
        incr fresh
      end
      else ps.(m) <- combine ps.(m) p
    done
  done;
  List.init nmech (fun m ->
      { p = ps.(m); detectors = s.mech_detectors.(m); obs_mask = s.mech_obs.(m) })

let weigh s c =
  if not (same_shape s c) then invalid_arg "Dem.weigh: circuit shape differs";
  weigh_unchecked s c

(* ------------------------------------------------------- one-slot reuse --- *)

let last : structure option Atomic.t = Atomic.make None

(* A miss is single-flight: domains compiling same-shape circuits at once
   would each run the structure pass (slower under contention, and two
   structures live); instead the second waits for the first's and reuses
   it. *)
let structure_lock = Mutex.create ()

let reusable c =
  match Atomic.get last with Some s when same_shape s c -> Some s | _ -> None

let of_circuit (c : Circuit.t) =
  let s =
    match reusable c with
    | Some s -> s
    | None ->
        Mutex.protect structure_lock (fun () ->
            match reusable c with
            | Some s -> s
            | None ->
                let s = structure c in
                if c.Circuit.nqubits lsr qubit_bits = 0 then Atomic.set last (Some s);
                s)
  in
  weigh_unchecked s c

let check_graphlike mechanisms =
  List.for_all (fun m -> Array.length m.detectors <= 2) mechanisms
