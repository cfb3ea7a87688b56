(** Persistence of compiled detector error models in the content-addressed
    {!Store}.

    [Dem.of_circuit] walks the whole circuit backward (or, for a circuit
    shaped like the last one, reweights that walk's structure) and the
    matching-graph build re-derives edge weights from the merged mechanisms.
    This module serializes the compiled DEM ({!Dem_sampler.t}) together with
    its matching graph as one versioned record kind (["qec.dem"]) keyed by
    the content hash of the full circuit — every gate, noise parameter,
    detector and observable — so a warm run (same [--cache-dir]) skips both
    the DEM compile and graph construction entirely.

    Key encoding v2 ([format_version] 2) is binary: LEB128 varints for the
    qubit count, the op count, each gate's qubits, the measurement count
    and every detector/observable list (each prefixed by its length), a tag
    byte per gate, and raw little-endian IEEE-754 bits for every noise
    parameter.  Every variable-length part carries its length, so the
    encoding is injective.  Version 1 keys (a [Printf]-rendered text
    encoding) are never looked up again: their entries are orphaned
    misses.

    Record discipline matches HETSTORE/v1: a payload-level magic + format
    version inside the store's own framing, bit-exact float encoding
    (IEEE-754 bits, little-endian), and defensive decoding — truncated,
    corrupt, or version-mismatched payloads degrade to a miss and the next
    [put] heals the entry.  Graph edges round-trip in construction order, so
    a deserialized graph decodes bit-identically to the one built cold. *)

val format_version : int
(** Bump when the payload layout or the meaning of a compiled DEM changes;
    old entries then degrade to misses. *)

val encode_circuit : Circuit.t -> string
(** The canonical binary circuit encoding, as one string. *)

val circuit_key : Circuit.t -> string
(** Content-hash store key (via {!Store.key}, kind ["qec.dem"]) of
    {!encode_circuit}.  The encoding is hashed as it is written, through a
    fixed 64 KiB scratch, so the key allocates O(1) minor words and never
    holds the whole encoding.  Pinned-value tests guard its stability. *)

val encode : Dem_sampler.t -> Decoder_uf.graph -> string
(** Versioned binary payload for a compiled DEM + matching graph pair. *)

val decode : string -> (Dem_sampler.t * Decoder_uf.graph) option
(** Inverse of {!encode}; [None] on any malformed payload. *)

val find : Store.t -> string -> (Dem_sampler.t * Decoder_uf.graph) option
(** Look up the compiled pair stored under a {!circuit_key}; counts a hit or
    a miss. *)

val put : Store.t -> string -> Dem_sampler.t -> Decoder_uf.graph -> unit
(** Write the compiled pair under a {!circuit_key}. *)

val compile_cached :
  Circuit.t -> (unit -> Dem_sampler.t * Decoder_uf.graph) ->
  Dem_sampler.t * Decoder_uf.graph
(** [compile_cached circuit build] resolves through the ambient
    characterization store ({!Char_store.store}, installed by
    [--cache-dir]): disk hit when present, otherwise [build ()] with
    write-back.  The key is computed once for both.  The whole round trip,
    [build] included, runs in a [qec.dem_store] span.  With no ambient store
    this is just [build ()]. *)

val hits_total : Obs.Counter.t
val misses_total : Obs.Counter.t
