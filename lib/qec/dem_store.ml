(* Compiled-DEM persistence: one store record per circuit, holding the merged
   mechanism list and the matching graph's edge array.  Everything decode
   needs is re-derivable from these two; the graph edges are kept in
   construction order so the rebuilt incident lists — and therefore every
   union-find tie-break — match the cold build exactly. *)

let kind = "qec.dem"
let magic = "QECDEM"
let format_version = 2

let hits_total = Obs.Counter.create "qec.dem_store_hits_total"
let misses_total = Obs.Counter.create "qec.dem_store_misses_total"

(* ---------------------------------------------------------- circuit key --- *)

(* Unsigned LEB128 over the 63-bit pattern: injective on every int. *)
let rec add_varint b n =
  if n land lnot 0x7f = 0 then Buffer.add_uint8 b n
  else begin
    Buffer.add_uint8 b (n land 0x7f lor 0x80);
    add_varint b (n lsr 7)
  end

(* Canonical binary encoding of a circuit: qubit count, op count, every
   gate as a tag byte and its qubit indices, every noise parameter as raw
   IEEE-754 bits (so 1e-4 and the nearest neighboring double never
   collide), measurement count, and the detector and observable lists, each
   list prefixed by its length.  Every variable-length part carries its
   length, so distinct circuits never share an encoding; anything that can
   change the compiled DEM is in here, and the key is its content hash. *)
let encode_circuit (c : Circuit.t) =
  let b = Buffer.create 65536 in
  let gate tag q =
    Buffer.add_char b tag;
    add_varint b q
  in
  let gate2 tag q1 q2 =
    gate tag q1;
    add_varint b q2
  in
  let fbits x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  add_varint b c.Circuit.nqubits;
  add_varint b (Array.length c.Circuit.ops);
  Array.iter
    (fun (g : Circuit.gate) ->
      match g with
      | Circuit.H q -> gate 'H' q
      | Circuit.S q -> gate 'S' q
      | Circuit.X q -> gate 'X' q
      | Circuit.Y q -> gate 'Y' q
      | Circuit.Z q -> gate 'Z' q
      | Circuit.CX (a, t) -> gate2 'C' a t
      | Circuit.CZ (a, t) -> gate2 'E' a t
      | Circuit.SWAP (a, t) -> gate2 'W' a t
      | Circuit.M q -> gate 'M' q
      | Circuit.R q -> gate 'R' q
      | Circuit.Noise1 { px; py; pz; q } ->
          gate 'N' q;
          fbits px;
          fbits py;
          fbits pz
      | Circuit.Depol2 { p; a; b = t } ->
          gate2 'D' a t;
          fbits p)
    c.Circuit.ops;
  add_varint b c.Circuit.nmeas;
  let index_lists groups =
    add_varint b (Array.length groups);
    Array.iter
      (fun ms ->
        add_varint b (Array.length ms);
        Array.iter (add_varint b) ms)
      groups
  in
  index_lists c.Circuit.detectors;
  index_lists c.Circuit.observables;
  Buffer.contents b

let circuit_key c =
  Store.key ~kind
    ~fields:
      [ ("circuit", Content_hash.hash_hex (encode_circuit c));
        ("format", string_of_int format_version) ]

(* -------------------------------------------------------------- payload --- *)

let encode sampler graph =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Buffer.add_uint16_le b format_version;
  Buffer.add_int32_le b (Int32.of_int (Dem_sampler.ndet sampler));
  Buffer.add_int32_le b (Int32.of_int (Dem_sampler.nobs sampler));
  let mechs = Dem_sampler.mechanisms sampler in
  Buffer.add_int32_le b (Int32.of_int (Array.length mechs));
  Array.iter
    (fun (m : Dem.mechanism) ->
      Buffer.add_int64_le b (Int64.bits_of_float m.Dem.p);
      Buffer.add_uint16_le b (Array.length m.Dem.detectors);
      Array.iter (fun d -> Buffer.add_int32_le b (Int32.of_int d)) m.Dem.detectors;
      Buffer.add_int64_le b (Int64.of_int m.Dem.obs_mask))
    mechs;
  let edges = Decoder_uf.edge_list graph in
  Buffer.add_int32_le b (Int32.of_int (Decoder_uf.num_nodes graph));
  Buffer.add_int32_le b (Int32.of_int (Array.length edges));
  Array.iter
    (fun (u, v, weight, logical) ->
      Buffer.add_int32_le b (Int32.of_int u);
      Buffer.add_int32_le b (Int32.of_int v);
      Buffer.add_int32_le b (Int32.of_int weight);
      Buffer.add_uint8 b (if logical then 1 else 0))
    edges;
  Buffer.contents b

exception Malformed

let decode s =
  try
    let pos = ref 0 in
    let need n = if !pos + n > String.length s then raise Malformed in
    let u8 () =
      need 1;
      let v = Char.code s.[!pos] in
      incr pos;
      v
    in
    let u16 () =
      need 2;
      let v = String.get_uint16_le s !pos in
      pos := !pos + 2;
      v
    in
    let i32 () =
      need 4;
      let v = Int32.to_int (String.get_int32_le s !pos) in
      pos := !pos + 4;
      v
    in
    let i64 () =
      need 8;
      let v = String.get_int64_le s !pos in
      pos := !pos + 8;
      v
    in
    need (String.length magic);
    if String.sub s 0 (String.length magic) <> magic then raise Malformed;
    pos := String.length magic;
    if u16 () <> format_version then raise Malformed;
    let ndet = i32 () in
    let nobs = i32 () in
    let nmech = i32 () in
    if ndet < 0 || nobs < 0 || nmech < 0 then raise Malformed;
    let mechs = ref [] in
    for _ = 1 to nmech do
      let p = Int64.float_of_bits (i64 ()) in
      let ndets = u16 () in
      let detectors = Array.init ndets (fun _ -> i32 ()) in
      let obs_mask = Int64.to_int (i64 ()) in
      mechs := { Dem.p; detectors; obs_mask } :: !mechs
    done;
    let nodes = i32 () in
    let nedges = i32 () in
    if nodes <= 0 || nedges < 0 then raise Malformed;
    let edges = ref [] in
    for _ = 1 to nedges do
      let u = i32 () in
      let v = i32 () in
      let weight = i32 () in
      let logical = u8 () <> 0 in
      edges := (u, v, weight, logical) :: !edges
    done;
    if !pos <> String.length s then raise Malformed;
    let sampler = Dem_sampler.of_mechanisms ~ndet ~nobs (List.rev !mechs) in
    let graph = Decoder_uf.weighted_graph ~nodes ~edges:(List.rev !edges) in
    Some (sampler, graph)
  with Malformed | Invalid_argument _ -> None

(* ---------------------------------------------------------- store entry --- *)

let find store key =
  match Option.bind (Store.find store key) decode with
  | Some pair ->
      Obs.Counter.incr hits_total;
      Some pair
  | None ->
      Obs.Counter.incr misses_total;
      None

let put store key sampler graph = Store.put store key (encode sampler graph)

(* The key is computed once and serves both the lookup and the write-back. *)
let compile_cached circuit build =
  match Char_store.store () with
  | None -> build ()
  | Some store ->
      Obs.Trace.with_span "qec.dem_store" (fun () ->
          let key = circuit_key circuit in
          match find store key with
          | Some pair -> pair
          | None ->
              let sampler, graph = build () in
              put store key sampler graph;
              (sampler, graph))
