(* Persistent content-addressed characterization store.

   The paper's >= 10^4 simulation-burden reduction comes from characterizing
   each standard cell *once* by density-matrix simulation and reusing the
   resulting channel everywhere.  This store makes that reuse a cross-process
   artifact: keys are 64-bit content hashes over the full characterization
   input (device parameters, cell topology, noise settings, plus a code
   version tag), values are opaque payloads — serialized channels — wrapped
   in a versioned, length-prefixed record with a checksum trailer.

   Robustness contract: a corrupt, truncated, or version-mismatched entry is
   a MISS, never an error; the caller recomputes and overwrites.  Writers
   are crash- and concurrency-safe by construction: every put writes a
   unique temp file in the entry's directory and atomically renames it into
   place, so readers only ever observe absent or complete records, and the
   last of two racing writers wins with identical bytes (values are pure
   functions of their key). *)

(* On-disk record framing: magic, format version, payload length, payload,
   then a 64-bit content-hash checksum of the payload as the trailer. *)
let magic = "HETSTORE"
let format_version = 1

(* Code-version tag mixed into every key: bump when the meaning of a
   characterization changes (new noise model, different op semantics), so
   stale entries from older code become unreachable rather than wrong. *)
let version_tag = "hetarch-char/1"

type t = { dir : string; lock : Mutex.t; mutable stats : stats }

and stats = { hits : int; misses : int; corrupt : int; writes : int }

let zero_stats = { hits = 0; misses = 0; corrupt = 0; writes = 0 }

(* Process-wide counters aggregate over every store instance. *)
let c_hits = Obs.Counter.create "dse.store_hits_total"
let c_misses = Obs.Counter.create "dse.store_misses_total"
let c_corrupt = Obs.Counter.create "dse.store_corrupt_total"
let c_writes = Obs.Counter.create "dse.store_writes_total"

let open_dir dir =
  Fs.mkdir_p dir;
  if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Store.open_dir: %s is not a directory" dir);
  { dir; lock = Mutex.create (); stats = zero_stats }

let dir t = t.dir

let key ~kind ~fields =
  if kind = "" then invalid_arg "Store.key: empty kind";
  List.iter
    (fun (k, _) -> if k = "" then invalid_arg "Store.key: empty field key")
    fields;
  Content_hash.of_components
    (version_tag :: kind
    :: List.concat_map
         (fun (k, v) -> [ k; v ])
         (List.sort (fun (a, _) (b, _) -> compare a b) fields))

(* Two-level fan-out by key prefix keeps directory listings short even for
   large sweeps; the key is normally the full 16-hex-digit content hash,
   but any non-empty string shards safely. *)
let entry_path t k =
  if k = "" then invalid_arg "Store.entry_path: empty key";
  let shard = String.sub k 0 (min 2 (String.length k)) in
  Filename.concat (Filename.concat t.dir shard) (k ^ ".chan")

let bump t f =
  Mutex.protect t.lock (fun () -> t.stats <- f t.stats)

let stats t = Mutex.protect t.lock (fun () -> t.stats)

(* Validate the whole record; any structural problem is reported as either
   a plain miss (file absent) or a corrupt entry (present but unreadable).
   header = magic + u32 version + u32 payload length; trailer = u64
   content hash of the payload. *)
let header_len = String.length magic + 8

let decode_record contents =
  let len = String.length contents in
  if len < header_len + 8 then None
  else if String.sub contents 0 (String.length magic) <> magic then None
  else
    let version = Int32.to_int (String.get_int32_le contents (String.length magic)) in
    let payload_len = Int32.to_int (String.get_int32_le contents (String.length magic + 4)) in
    if version <> format_version then None
    else if payload_len < 0 || len <> header_len + payload_len + 8 then None
    else
      let payload = String.sub contents header_len payload_len in
      let checksum = String.get_int64_le contents (header_len + payload_len) in
      if Int64.equal checksum (Content_hash.hash64 payload) then Some payload else None

(* The record goes out in three writes, header, payload and trailer,
   without copying the payload into one record string first. *)
let output_record oc payload =
  let header = Bytes.create header_len in
  Bytes.blit_string magic 0 header 0 (String.length magic);
  Bytes.set_int32_le header (String.length magic) (Int32.of_int format_version);
  Bytes.set_int32_le header (String.length magic + 4) (Int32.of_int (String.length payload));
  Out_channel.output_bytes oc header;
  Out_channel.output_string oc payload;
  let trailer = Bytes.create 8 in
  Bytes.set_int64_le trailer 0 (Content_hash.hash64 payload);
  Out_channel.output_bytes oc trailer

let find t k =
  let path = entry_path t k in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ ->
      bump t (fun s -> { s with misses = s.misses + 1 });
      Obs.Counter.incr c_misses;
      None
  | contents -> (
      match decode_record contents with
      | Some payload ->
          bump t (fun s -> { s with hits = s.hits + 1 });
          Obs.Counter.incr c_hits;
          Some payload
      | None ->
          (* Present but unreadable: degrade to a miss so the caller
             recomputes (and put overwrites the bad entry). *)
          bump t (fun s -> { s with corrupt = s.corrupt + 1; misses = s.misses + 1 });
          Obs.Counter.incr c_corrupt;
          Obs.Counter.incr c_misses;
          None)

let put t k payload =
  let path = entry_path t k in
  Fs.mkdir_p (Filename.dirname path);
  let ok =
    try
      Fs.write_atomic path (fun oc -> output_record oc payload);
      true
    with Sys_error _ -> false
  in
  if ok then begin
    bump t (fun s -> { s with writes = s.writes + 1 });
    Obs.Counter.incr c_writes
  end
