type mechanism = { p : float; detectors : int array; obs_mask : int }

let[@inline] combine p1 p2 = (p1 *. (1. -. p2)) +. (p2 *. (1. -. p1))

let structures_total = Obs.Counter.create "pauli.dem_structures_total"

(* Signatures are sorted int arrays: the detector indices, then each
   flipped observable [i] as [ndet + i].  Sensitivity rows are immutable,
   so an XOR is a merge into a fresh array and a row can be a table key as
   it is.  Almost every row holds a handful of indices, where a dense row
   at d=13 is 19 words wide.  [Hashtbl] takes the bucket from the low bits,
   and a bare multiply-xor only carries low bits upward, so every element
   goes through a full murmur-style finalizer that folds the high bits
   back down. *)
module Sig_table = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    let n = Array.length a in
    n = Array.length b
    && begin
         let i = ref 0 in
         while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
           incr i
         done;
         !i = n
       end

  let fmix h =
    let h = h lxor (h lsr 29) in
    let h = h * 0x3f51afd7ed558ccd in
    let h = h lxor (h lsr 32) in
    let h = h * 0x04cd9e8f5a6b3c2d in
    h lxor (h lsr 29)

  let hash s =
    let h = ref (Array.length s) in
    for i = 0 to Array.length s - 1 do
      h := fmix (!h lxor Array.unsafe_get s i)
    done;
    !h land max_int
end)

(* Symmetric difference of two sorted sets, merged through [buf] (the
   signature width long, which bounds any result) and copied out at its
   exact length. *)
let sym_diff buf (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
      if x < y then begin
        buf.(!k) <- x;
        incr k;
        incr i
      end
      else if y < x then begin
        buf.(!k) <- y;
        incr k;
        incr j
      end
      else begin
        incr i;
        incr j
      end
    done;
    let tail src from len =
      let n = len - from in
      Array.blit src from buf !k n;
      k := !k + n
    in
    tail a !i la;
    tail b !j lb;
    Array.sub buf 0 !k
  end

(* Polymorphic [compare]'s order on int arrays (length first), without its
   generic traversal. *)
let compare_mechanism a b =
  let da = a.detectors and db = b.detectors in
  let la = Array.length da and lb = Array.length db in
  if la <> lb then compare la lb
  else begin
    let i = ref 0 in
    while !i < la && da.(!i) = db.(!i) do
      incr i
    done;
    if !i < la then compare da.(!i) db.(!i)
    else
      let c = compare a.obs_mask b.obs_mask in
      if c <> 0 then c else Float.compare a.p b.p
  end

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

(* What [weigh] checks a circuit against: everything the structure pass
   reads. *)
type shape = {
  nqubits : int;
  nmeas : int;
  det_lists : int array array;
  obs_lists : int array array;
  codes : int array;  (* op_code per op *)
}

let shape_of (c : Circuit.t) =
  { nqubits = c.Circuit.nqubits;
    nmeas = c.Circuit.nmeas;
    det_lists = Array.map Array.copy c.Circuit.detectors;
    obs_lists = Array.map Array.copy c.Circuit.observables;
    codes = Array.map (op_code c.Circuit.nqubits) c.Circuit.ops }

let same_shape s (c : Circuit.t) =
  s.nqubits = c.Circuit.nqubits
  && s.nmeas = c.Circuit.nmeas
  && Array.length s.codes = Array.length c.Circuit.ops
  && begin
       let ops = c.Circuit.ops in
       let i = ref 0 and n = Array.length ops in
       while !i < n && op_code s.nqubits ops.(!i) = s.codes.(!i) do
         incr i
       done;
       !i = n
     end
  && s.det_lists = c.Circuit.detectors
  && s.obs_lists = c.Circuit.observables

type int32s = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

type structure = {
  ndet : int;
  nobs : int;
  shape : shape option;  (* the circuit form's, for [weigh]'s check *)
  mech_detectors : int array array;  (* by mechanism id, canonical order *)
  mech_obs : int array;
  counts : Bytes.t;  (* contributions per op, at most 15 *)
  bases : int32s;
      (* the table offset of each op with a contribution, in backward-pass
         order *)
  contributions : int32s;
      (* backward-pass order, (mechanism id lsl 3) lor (first lsl 2) lor
         comp: [first] marks the mechanism's first contribution; comp 0 =
         px, 1 = pz, 2 = py of a Noise1, read at its base + 0, + 2, + 1;
         Depol2 components are all p/15 and code 3, read at its base.  Off
         the OCaml heap and half a word each: this is most of what a kept
         structure holds.  One trimmed int array packing the op index
         instead (no [counts]) measured 3 MB more perfbench surface-sweep
         peak RSS (36.8 vs 33.8 MB, 2-vCPU machine). *)
  table_length : int;  (* 1 + the largest offset read *)
}

let ndet s = s.ndet
let nobs s = s.nobs

(* The table offset of comp [c]: 0, 2, 1, 0 for c = 0..3. *)
let[@inline] comp_offset c = (0x18 lsr (2 * c)) land 3

(* ------------------------------------------------------ structure pass --- *)

(* Which detectors ([di]) and observables ([ndet + oi]) contain each
   measurement, as sorted sets: a measurement listed twice in one group
   cancels. *)
let measurement_signatures (c : Circuit.t) ~ndet =
  let rows = Array.make (max 1 c.Circuit.nmeas) [] in
  let add base groups =
    Array.iteri
      (fun gi meas -> Array.iter (fun m -> rows.(m) <- (base + gi) :: rows.(m)) meas)
      groups
  in
  add 0 c.Circuit.detectors;
  add ndet c.Circuit.observables;
  let rec cancel = function
    | x :: y :: rest when x = y -> cancel rest
    | x :: rest -> x :: cancel rest
    | [] -> []
  in
  Array.map (fun l -> Array.of_list (cancel (List.sort compare l))) rows

let walk ?index ~keep_shape (c : Circuit.t) =
  Obs.Counter.incr structures_total;
  let base i = match index with None -> 3 * i | Some idx -> idx.(i) in
  let ops = c.Circuit.ops in
  let nops = Array.length ops in
  let ndet = Array.length c.Circuit.detectors in
  let nobs = Array.length c.Circuit.observables in
  let width = ndet + nobs in
  let table = Sig_table.create 1024 in
  let rev_mechs = ref [] and nmech = ref 0 in
  let counts = Bytes.make nops '\000' in
  (* Scratch for the first-seen contributions, sized by the most an op can
     make (3 per Noise1, 15 per Depol2) and off the OCaml heap: a doubling
     int array would leave a trail of major-heap garbage at the moment a
     sweep's first points are all in flight. *)
  let bound =
    Array.fold_left
      (fun n g -> match g with Circuit.Noise1 _ -> n + 3 | Circuit.Depol2 _ -> n + 15 | _ -> n)
      0 ops
  in
  let contribs = Bigarray.(Array1.create int32 c_layout bound) and ncontrib = ref 0 in
  let push x =
    Bigarray.Array1.unsafe_set contribs !ncontrib (Int32.of_int x);
    incr ncontrib
  in
  (* Ids are first-seen here and renumbered canonically below. *)
  let record op comp p (sig_ : int array) =
    if p > 0. && Array.length sig_ > 0 then begin
      let id =
        match Sig_table.find table sig_ with
        | id -> id
        | exception Not_found ->
            let id = !nmech in
            Sig_table.add table sig_ id;
            let k = ref 0 and obs = ref 0 in
            Array.iter
              (fun i -> if i < ndet then incr k else obs := !obs lor (1 lsl (i - ndet)))
              sig_;
            rev_mechs := { p = 0.; detectors = Array.sub sig_ 0 !k; obs_mask = !obs } :: !rev_mechs;
            incr nmech;
            id
      in
      if id lsr 28 <> 0 then invalid_arg "Dem.structure: too many mechanisms";
      Bytes.set counts op (Char.chr (Char.code (Bytes.get counts op) + 1));
      push ((id lsl 2) lor comp)
    end
  in
  if width > 0 then begin
    let meas_sig = measurement_signatures c ~ndet in
    let n = c.Circuit.nqubits in
    let sens_x = Array.make n [||] and sens_z = Array.make n [||] in
    let buf = Array.make width 0 in
    let xor = sym_diff buf in
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
          sens_x.(q) <- xor sens_x.(q) sens_z.(q)
      | Circuit.X _ | Circuit.Y _ | Circuit.Z _ -> ()
      | Circuit.CX (a, b) ->
          sens_x.(a) <- xor sens_x.(a) sens_x.(b);
          sens_z.(b) <- xor sens_z.(b) sens_z.(a)
      | Circuit.CZ (a, b) ->
          sens_x.(a) <- xor sens_x.(a) sens_z.(b);
          sens_x.(b) <- xor sens_x.(b) sens_z.(a)
      | Circuit.SWAP (a, b) ->
          let tx = sens_x.(a) and tz = sens_z.(a) in
          sens_x.(a) <- sens_x.(b);
          sens_z.(a) <- sens_z.(b);
          sens_x.(b) <- tx;
          sens_z.(b) <- tz
      | Circuit.M q ->
          decr mi;
          sens_x.(q) <- xor sens_x.(q) meas_sig.(!mi)
      | Circuit.R q ->
          sens_x.(q) <- [||];
          sens_z.(q) <- [||]
      | Circuit.Noise1 { px; py; pz; q } ->
          record i 0 px sens_x.(q);
          record i 1 pz sens_z.(q);
          if py > 0. then record i 2 py (xor sens_x.(q) sens_z.(q))
      | Circuit.Depol2 { p; a; b } ->
          let comp = p /. 15. in
          if comp > 0. then begin
            (* The 15 non-identity Pauli pairs, in (I, X, Y, Z) x (I, X, Y, Z)
               order. *)
            let pa = [| [||]; sens_x.(a); xor sens_x.(a) sens_z.(a); sens_z.(a) |]
            and pb = [| [||]; sens_x.(b); xor sens_x.(b) sens_z.(b); sens_z.(b) |] in
            for ka = 0 to 3 do
              for kb = 0 to 3 do
                if ka <> 0 || kb <> 0 then record i 3 comp (xor pa.(ka) pb.(kb))
              done
            done
          end
    done;
    assert (!mi = 0)
  end;
  (* Canonical ids: rank every mechanism in (detectors, obs_mask) order and
     rewrite the contributions, marking each mechanism's first one. *)
  let mechs = Array.of_list (List.rev !rev_mechs) in
  let nmech = Array.length mechs in
  let order = Array.init nmech Fun.id in
  Array.sort (fun i j -> compare_mechanism mechs.(i) mechs.(j)) order;
  let rank = Array.make nmech 0 in
  Array.iteri (fun r id -> rank.(id) <- r) order;
  let seen = Bytes.make nmech '\000' in
  let contributions = Bigarray.(Array1.create int32 c_layout !ncontrib) in
  for k = 0 to !ncontrib - 1 do
    let x = Int32.to_int (Bigarray.Array1.unsafe_get contribs k) in
    let id = rank.(x lsr 2) in
    let first = if Bytes.get seen id = '\000' then 4 else 0 in
    Bytes.set seen id '\001';
    Bigarray.Array1.unsafe_set contributions k
      (Int32.of_int ((id lsl 3) lor first lor (x land 3)))
  done;
  (* Each contributing op's table offset, and the table length they need. *)
  let nbases = ref 0 in
  Bytes.iter (fun n -> if n <> '\000' then incr nbases) counts;
  let bases = Bigarray.(Array1.create int32 c_layout !nbases) in
  let j = ref 0 and k = ref 0 and table_length = ref 0 in
  for i = nops - 1 downto 0 do
    let n = Char.code (Bytes.get counts i) in
    if n > 0 then begin
      let b = base i in
      if b < 0 || b > 0x3fff_fffd then invalid_arg "Dem.structure: bad table index";
      Bigarray.Array1.unsafe_set bases !j (Int32.of_int b);
      incr j;
      for _ = 1 to n do
        let x = Int32.to_int (Bigarray.Array1.unsafe_get contributions !k) in
        incr k;
        table_length := max !table_length (b + comp_offset (x land 3) + 1)
      done
    end
  done;
  { ndet;
    nobs;
    shape = (if keep_shape then Some (shape_of c) else None);
    mech_detectors = Array.map (fun id -> mechs.(id).detectors) order;
    mech_obs = Array.map (fun id -> mechs.(id).obs_mask) order;
    counts;
    bases;
    contributions;
    table_length = !table_length }

let structure ?index c = walk ?index ~keep_shape:(index = None) c

let contributions s =
  let out = ref [] and k = ref 0 in
  for i = Bytes.length s.counts - 1 downto 0 do
    for _ = 1 to Char.code (Bytes.get s.counts i) do
      let x = Int32.to_int (Bigarray.Array1.get s.contributions !k) in
      incr k;
      out := (i, x land 3, x lsr 3) :: !out
    done
  done;
  Array.of_list (List.rev !out)

(* --------------------------------------------------------- weight pass --- *)

(* A mechanism's first contribution sets its [p], and every later one
   combines into it in backward-pass order, the order the single-pass
   merge used — bit-identical probabilities. *)
let weigh_table s table =
  if Array.length table < s.table_length then invalid_arg "Dem.weigh_table: table too short";
  let nmech = Array.length s.mech_obs in
  let ps = Array.make nmech 0. in
  let j = ref 0 and k = ref 0 in
  for i = Bytes.length s.counts - 1 downto 0 do
    let n = Char.code (Bytes.unsafe_get s.counts i) in
    if n > 0 then begin
      let b = Int32.to_int (Bigarray.Array1.unsafe_get s.bases !j) in
      incr j;
      for _ = 1 to n do
        let x = Int32.to_int (Bigarray.Array1.unsafe_get s.contributions !k) in
        incr k;
        let m = x lsr 3 in
        let p = Array.unsafe_get table (b + comp_offset (x land 3)) in
        if x land 4 <> 0 then Array.unsafe_set ps m p
        else Array.unsafe_set ps m (combine (Array.unsafe_get ps m) p)
      done
    end
  done;
  Array.init nmech (fun m ->
      { p = ps.(m); detectors = s.mech_detectors.(m); obs_mask = s.mech_obs.(m) })

(* The circuit's own table: op i's recorded probabilities at 3i, 3i + 1,
   3i + 2 — (px, py, pz) of a Noise1, p/15 of a Depol2 at 3i. *)
let circuit_table (c : Circuit.t) =
  let ops = c.Circuit.ops in
  let t = Array.make (3 * Array.length ops) 0. in
  Array.iteri
    (fun i g ->
      match g with
      | Circuit.Noise1 { px; py; pz; _ } ->
          t.(3 * i) <- px;
          t.((3 * i) + 1) <- py;
          t.((3 * i) + 2) <- pz
      | Circuit.Depol2 { p; _ } -> t.(3 * i) <- p /. 15.
      | _ -> ())
    ops;
  t

let weigh s c =
  match s.shape with
  | Some shape when same_shape shape c -> Array.to_list (weigh_table s (circuit_table c))
  | Some _ -> invalid_arg "Dem.weigh: circuit shape differs"
  | None -> invalid_arg "Dem.weigh: the structure reads a noise table"

let of_circuit c = Array.to_list (weigh_table (walk ~keep_shape:false c) (circuit_table c))

let check_graphlike mechanisms =
  List.for_all (fun m -> Array.length m.detectors <= 2) mechanisms
