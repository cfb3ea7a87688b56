(* The dense structure pass [Dem.structure] replaced, kept only as a test
   oracle: one [Bitvec] row of width detectors + observables per qubit and
   Pauli, XOR-ed in place, and a signature table keyed on the live row.
   Mechanism ids are handed out in first-seen order, as that pass did;
   [Dem] renumbers its own into canonical order, so a comparison maps ids
   through the signatures. *)

type t = {
  detectors : int array array;  (* by mechanism id, first-seen order *)
  obs_masks : int array;
  contributions : (int * int * int) array;
      (* (op index, component, mechanism id), backward-pass order;
         components as in [Dem.contributions] *)
}

module Sig_table = Hashtbl.Make (struct
  type t = Bitvec.t

  let equal = Bitvec.equal

  let hash v =
    let h = ref (Bitvec.length v) in
    for w = 0 to Bitvec.word_count v - 1 do
      h := Hashtbl.hash (!h, Bitvec.get_word v w)
    done;
    !h
end)

let structure (c : Circuit.t) =
  let ops = c.Circuit.ops in
  let ndet = Array.length c.Circuit.detectors in
  let nobs = Array.length c.Circuit.observables in
  let width = ndet + nobs in
  let table = Sig_table.create 1024 in
  let mechs = ref [] and nmech = ref 0 and contribs = ref [] in
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
            mechs := (Array.of_list (List.rev !dets), !obs) :: !mechs;
            incr nmech;
            id
      in
      contribs := (op, comp, id) :: !contribs
    end
  in
  if width > 0 then begin
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
    for i = Array.length ops - 1 downto 0 do
      match ops.(i) with
      | Circuit.H q ->
          let t = sens_x.(q) in
          sens_x.(q) <- sens_z.(q);
          sens_z.(q) <- t
      | Circuit.S q -> Bitvec.xor_into ~dst:sens_x.(q) sens_z.(q)
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
  let mechs = Array.of_list (List.rev !mechs) in
  { detectors = Array.map fst mechs;
    obs_masks = Array.map snd mechs;
    contributions = Array.of_list (List.rev !contribs) }
