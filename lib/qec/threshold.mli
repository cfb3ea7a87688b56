(** Pseudothreshold estimation (paper Table 3).

    A code with a single distance operates "below pseudothreshold" when its
    logical error rate is below the physical error rate of the hardware.  We
    estimate the crossing point of L(p) = p under code-capacity depolarizing
    noise with the code's own lookup decoder. *)

val logical_errors :
  ?jobs:int -> Code.t -> Decoder_lookup.t -> p:float -> shots:int -> Rng.t -> int
(** Monte-Carlo logical error {e count} under iid single-qubit depolarizing
    noise of strength [p] (each qubit suffers X, Y or Z with probability p/3
    each), with perfect syndrome extraction and lookup decoding.  A shot errs
    when either the X- or Z-type residual flips the logical qubit.  Errors
    are drawn batch-natively — per-qubit X/Z bit-plane rows from sparse
    disjoint Bernoulli masks, word-block-transposed into per-shot int masks
    for the decoder's mask-based fast path — and chunked through
    {!Parallel}: seed-deterministic at any [jobs] setting. *)

val logical_rate :
  ?jobs:int -> Code.t -> Decoder_lookup.t -> p:float -> shots:int -> Rng.t -> float
(** [logical_errors] divided by [shots]. *)

val pseudothreshold :
  ?jobs:int ->
  ?lo:float -> ?hi:float -> ?iters:int -> ?shots:int -> Code.t -> Rng.t -> float
(** Bisection solve of L(p) = p.  Defaults: lo = 1e-4, hi = 0.45, 12
    iterations, 20_000 shots per evaluation.  [jobs] is threaded to every
    {!logical_rate} evaluation; the chunked sampler keeps each evaluation —
    and therefore the bisection trajectory — bit-identical at any job
    count. *)
