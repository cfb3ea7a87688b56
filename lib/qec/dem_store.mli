(** Persistence of compiled detector error models in the content-addressed
    {!Store}.

    The DEM compile and the matching-graph build of a point derive
    everything from its circuit.  This module serializes the compiled DEM
    ({!Dem_sampler.t}) together with its matching graph as one versioned
    record kind (["qec.dem"]), so a warm run (same [--cache-dir]) skips
    both entirely.

    A record's key ({!key}) has two content hashes.  The {e shape} hash
    covers the circuit's skeleton: every gate and its qubits, each noise
    op's offset into a noise table, and the detector and observable lists
    ({!skeleton_hash}).  The {e noise} hash covers the table itself, as
    IEEE-754 bits ({!noise_hash}).  A circuit is a function of the two, so
    distinct circuits get distinct keys, and a sweep over one skeleton
    hashes only a small table per point.  The skeleton encoding is binary:
    LEB128 varints for the qubit count, the op count, each gate's qubits,
    each noise op's table offset, the measurement count and every
    detector/observable list (each prefixed by its length), and a tag byte
    per gate.  Every variable-length part carries its length, so the
    encoding is injective.  Keys of earlier layouts (one hash of the whole
    circuit with its probabilities, under a ["circuit"] field) are never
    looked up again: their entries are orphaned misses.

    Record discipline matches HETSTORE/v1: a payload-level magic + format
    version inside the store's own framing, bit-exact float encoding
    (IEEE-754 bits, little-endian), and defensive decoding — truncated,
    corrupt, or version-mismatched payloads degrade to a miss and the next
    [put] heals the entry.  Graph edges round-trip in construction order, so
    a deserialized graph decodes bit-identically to the one built cold. *)

val format_version : int
(** Bump when the payload layout or the meaning of a compiled DEM changes;
    old entries then degrade to misses. *)

val encode_skeleton : Circuit.t -> index:int array -> string
(** The canonical binary skeleton encoding, as one string: noise op [i]
    writes [index.(i)] in place of its probabilities. *)

val skeleton_hash : Circuit.t -> index:int array -> string
(** 16-hex-digit content hash of {!encode_skeleton}.  The encoding is
    hashed as it is written, through a fixed 64 KiB scratch, so the hash
    allocates O(1) minor words and never holds the whole encoding. *)

val noise_hash : float array -> string
(** 16-hex-digit content hash of the table's length and its entries'
    IEEE-754 bits (so [0.] and [-0.] differ). *)

val key : shape:string -> noise:string -> string
(** The store key (via {!Store.key}, kind ["qec.dem"]) of a circuit with
    skeleton hash [shape] and noise-table hash [noise].  Pinned-value tests
    guard its stability. *)

val encode : Dem_sampler.t -> Decoder_uf.graph -> string
(** Versioned binary payload for a compiled DEM + matching graph pair. *)

val decode : string -> (Dem_sampler.t * Decoder_uf.graph) option
(** Inverse of {!encode}; [None] on any malformed payload. *)

val find : Store.t -> string -> (Dem_sampler.t * Decoder_uf.graph) option
(** Look up the compiled pair stored under a {!key}; counts a hit or a
    miss.  Never raises on a malformed record: it is a miss. *)

val put : Store.t -> string -> Dem_sampler.t -> Decoder_uf.graph -> unit
(** Write the compiled pair under a {!key}. *)

val compile_cached :
  string -> (unit -> Dem_sampler.t * Decoder_uf.graph) ->
  Dem_sampler.t * Decoder_uf.graph
(** [compile_cached key build] resolves [key] through the ambient
    characterization store ({!Char_store.store}, installed by
    [--cache-dir]): disk hit when present, otherwise [build ()] with
    write-back under the same key.  The whole round trip, [build]
    included, runs in a [qec.dem_store] span.  With no ambient store this
    is just [build ()]. *)

val hits_total : Obs.Counter.t
val misses_total : Obs.Counter.t
