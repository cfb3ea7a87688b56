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

(* ------------------------------------------------------------- keys --- *)

(* The encoding is written through a fixed scratch that is handed to
   [flush] each time it fills and once at the end: [encode_skeleton]
   appends the pieces to a string, [skeleton_hash] hashes them as they
   come, so a hash never holds the encoding (about 270 kB at d=13).  Float bits go in with
   [Bytes.set_int64_le], so no writer call allocates. *)
type writer = { buf : Bytes.t; mutable pos : int; flush : Bytes.t -> int -> unit }

let scratch_bytes = 65536

let room w n =
  if w.pos + n > Bytes.length w.buf then begin
    w.flush w.buf w.pos;
    w.pos <- 0
  end

let add_u8 w v =
  room w 1;
  Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr v);
  w.pos <- w.pos + 1

let add_float w x =
  room w 8;
  Bytes.set_int64_le w.buf w.pos (Int64.bits_of_float x);
  w.pos <- w.pos + 8

(* Unsigned LEB128 over the 63-bit pattern: injective on every int. *)
let rec add_varint w n =
  if n land lnot 0x7f = 0 then add_u8 w n
  else begin
    add_u8 w (n land 0x7f lor 0x80);
    add_varint w (n lsr 7)
  end

let add_gate w tag q =
  add_u8 w (Char.code tag);
  add_varint w q

let add_gate2 w tag q1 q2 =
  add_gate w tag q1;
  add_varint w q2

let add_index_lists w groups =
  add_varint w (Array.length groups);
  for i = 0 to Array.length groups - 1 do
    let ms = groups.(i) in
    add_varint w (Array.length ms);
    for k = 0 to Array.length ms - 1 do
      add_varint w ms.(k)
    done
  done

(* Canonical binary encoding of a circuit skeleton: qubit count, op count,
   every gate as a tag byte and its qubit indices, every noise op's offset
   in the noise table its probabilities come from, measurement count, and
   the detector and observable lists, each list prefixed by its length.
   Every variable-length part carries its length, so distinct skeletons
   never share an encoding. *)
let write_skeleton flush (c : Circuit.t) ~index =
  let w = { buf = Bytes.create scratch_bytes; pos = 0; flush } in
  add_varint w c.Circuit.nqubits;
  let ops = c.Circuit.ops in
  add_varint w (Array.length ops);
  for i = 0 to Array.length ops - 1 do
    match ops.(i) with
    | Circuit.H q -> add_gate w 'H' q
    | Circuit.S q -> add_gate w 'S' q
    | Circuit.X q -> add_gate w 'X' q
    | Circuit.Y q -> add_gate w 'Y' q
    | Circuit.Z q -> add_gate w 'Z' q
    | Circuit.CX (a, t) -> add_gate2 w 'C' a t
    | Circuit.CZ (a, t) -> add_gate2 w 'E' a t
    | Circuit.SWAP (a, t) -> add_gate2 w 'W' a t
    | Circuit.M q -> add_gate w 'M' q
    | Circuit.R q -> add_gate w 'R' q
    | Circuit.Noise1 { q; _ } ->
        add_gate w 'N' q;
        add_varint w index.(i)
    | Circuit.Depol2 { a; b = t; _ } ->
        add_gate2 w 'D' a t;
        add_varint w index.(i)
  done;
  add_varint w c.Circuit.nmeas;
  add_index_lists w c.Circuit.detectors;
  add_index_lists w c.Circuit.observables;
  flush w.buf w.pos

let encode_skeleton c ~index =
  let b = Buffer.create scratch_bytes in
  write_skeleton (fun buf len -> Buffer.add_subbytes b buf 0 len) c ~index;
  Buffer.contents b

let skeleton_hash c ~index =
  let st = Content_hash.init () in
  write_skeleton (fun buf len -> Content_hash.feed st buf 0 len) c ~index;
  Content_hash.hex64 (Content_hash.digest st)

(* The table's length, then every entry's IEEE-754 bits. *)
let noise_hash table =
  let st = Content_hash.init () in
  let flush buf len = Content_hash.feed st buf 0 len in
  let w = { buf = Bytes.create 4096; pos = 0; flush } in
  add_varint w (Array.length table);
  Array.iter (add_float w) table;
  flush w.buf w.pos;
  Content_hash.hex64 (Content_hash.digest st)

(* A circuit is a function of its skeleton and its noise table, so two
   circuits that differ differ in one of the two fields. *)
let key ~shape ~noise =
  Store.key ~kind
    ~fields:[ ("shape", shape); ("noise", noise); ("format", string_of_int format_version) ]

(* -------------------------------------------------------------- payload --- *)

(* Written into one string of the exact size: a sweep writes one record
   per point, about 240 kB at d=13, and a growing buffer would copy it
   twice more. *)
let encode sampler graph =
  let mechs = Dem_sampler.mechanisms sampler in
  let edges = Decoder_uf.edge_list graph in
  let size =
    Array.fold_left
      (fun n (m : Dem.mechanism) -> n + 18 + (4 * Array.length m.Dem.detectors))
      (String.length magic + 2 + 12 + 8 + (13 * Array.length edges))
      mechs
  in
  let b = Bytes.create size in
  let pos = ref 0 in
  let u8 v =
    Bytes.set_uint8 b !pos v;
    pos := !pos + 1
  in
  let u16 v =
    Bytes.set_uint16_le b !pos v;
    pos := !pos + 2
  in
  let i32 v =
    Bytes.set_int32_le b !pos (Int32.of_int v);
    pos := !pos + 4
  in
  let i64 v =
    Bytes.set_int64_le b !pos v;
    pos := !pos + 8
  in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  pos := String.length magic;
  u16 format_version;
  i32 (Dem_sampler.ndet sampler);
  i32 (Dem_sampler.nobs sampler);
  i32 (Array.length mechs);
  Array.iter
    (fun (m : Dem.mechanism) ->
      i64 (Int64.bits_of_float m.Dem.p);
      u16 (Array.length m.Dem.detectors);
      Array.iter i32 m.Dem.detectors;
      i64 (Int64.of_int m.Dem.obs_mask))
    mechs;
  i32 (Decoder_uf.num_nodes graph);
  i32 (Array.length edges);
  Array.iter
    (fun (u, v, weight, logical) ->
      i32 u;
      i32 v;
      i32 weight;
      u8 (if logical then 1 else 0))
    edges;
  assert (!pos = size);
  Bytes.unsafe_to_string b

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

(* One key serves both the lookup and the write-back. *)
let compile_cached key build =
  match Char_store.store () with
  | None -> build ()
  | Some store ->
      Obs.Trace.with_span "qec.dem_store" (fun () ->
          match find store key with
          | Some pair -> pair
          | None ->
              let sampler, graph = build () in
              put store key sampler graph;
              (sampler, graph))
