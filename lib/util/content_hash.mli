(** Stable 64-bit content hashing for cross-process identities.

    Task ids in the collect-campaign ledger and keys in the persistent
    characterization store are content hashes of a canonical description,
    never positional indices — so identity survives process restarts, sweep
    reordering, and OCaml upgrades.  The hash is hand-rolled (rotate-multiply
    absorption with a murmur-style finalizer) precisely because
    [Hashtbl.hash] is unspecified across compiler versions; its value is
    frozen and guarded by pinned-value tests. *)

val hash64 : string -> int64
(** 64-bit content hash of a byte string. *)

val hex64 : int64 -> string
(** 16 lowercase hex digits, most significant first (as [%016Lx]). *)

val hash_hex : string -> string
(** [hex64 (hash64 s)]. *)

val canonical : string list -> string
(** Length-prefixed encoding ["<len>:<bytes>..."] of the components, in
    order.  Injective: distinct component lists produce distinct strings, so
    hashing the result never conflates ["ab","c"] with ["a","bc"]. *)

val of_components : string list -> string
(** [hash_hex (canonical components)] — the standard key discipline. *)
