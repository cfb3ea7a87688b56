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

type state
(** A [hash64] computed over bytes fed in pieces. *)

val init : unit -> state

val feed : state -> Bytes.t -> int -> int -> unit
(** [feed st b off len] absorbs [len] bytes of [b] from [off].  Each call
    allocates O(1) words whatever [len] is. *)

val digest : state -> int64
(** [hash64] of everything fed so far, in order: feeding a string in any
    split gives [hash64] of the whole string. *)

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
