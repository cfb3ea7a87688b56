(** Packed bit vectors over 63-bit words.

    The DEM sampler and the batch decoder store one row per detector with
    bit [s] = shot [s]; xor-accumulation over whole words is the hot loop. *)

type t

val create : int -> t
(** [create n] is an all-zero vector of [n] bits. *)

val length : t -> int
val get : t -> int -> bool
val set : t -> int -> bool -> unit
val flip : t -> int -> unit
val clear : t -> unit
val copy : t -> t

val set_all : t -> unit
(** Set every bit. *)

val xor_into : dst:t -> t -> unit
(** [xor_into ~dst src] sets [dst <- dst xor src].  Lengths must match. *)

val xor_words : dst:t -> t -> t -> unit
(** [xor_words ~dst a b] sets [dst <- a xor b] word-parallel.  All three
    lengths must match; [dst] may alias [a] or [b]. *)

val or_into : dst:t -> t -> unit
(** [or_into ~dst src] sets [dst <- dst lor src]. *)

val and_into : dst:t -> t -> unit
(** [and_into ~dst src] sets [dst <- dst land src]. *)

val andnot_into : dst:t -> t -> unit
(** [andnot_into ~dst src] sets [dst <- dst land (lnot src)]: clear in [dst]
    every bit set in [src]. *)

val random_into : Rng.t -> t -> p:float -> unit
(** [random_into rng t ~p] overwrites [t] with independent Bernoulli(p) bits.
    Sparse probabilities use geometric gap sampling (expected [p*n + 1] RNG
    draws), [p = 0.5] consumes one raw word per 63 bits, dense [p] samples
    the complement — the batched noise-mask kernel of the DEM sampler. *)

val and_popcount : t -> t -> int
(** Number of positions set in both vectors. *)

val popcount : t -> int

val popcount_word : int -> int
(** Set bits of one int word, all 63 bits (a negative word counts its sign
    bit).  Branch-free, for the int bit-mask loops outside this module
    too. *)

val is_zero : t -> bool
val equal : t -> t -> bool

val iter_set : t -> (int -> unit) -> unit
(** Iterate indices of set bits in increasing order. *)

val word_count : t -> int
(** Number of 63-bit storage words. *)

val get_word : t -> int -> int
(** [get_word t w] is raw word [w] (bits [63w .. 63w+62], bit [b] of the
    word = bit [63w + b] of the vector).  The word-level transposition
    primitive of the batch decoder: one read covers 63 shots of one
    detector row. *)

val word_size : int
(** Bits per storage word (63). *)

val ctz : int -> int
(** Index of the lowest set bit of a nonzero word (0-based).  Raises
    [Invalid_argument] on zero.  Companion to {!get_word} for transposition
    loops that peel set bits with [w land (-w)]. *)

val to_string : t -> string
(** "0110..." rendering, index 0 first. *)
