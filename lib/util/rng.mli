(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256** (Blackman & Vigna).  Every simulation in
    HetArch threads an explicit [Rng.t] so that experiments are reproducible
    from a single seed and independent sub-simulations can be split off
    without correlation. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed.  The seed is expanded
    with splitmix64 so nearby seeds give unrelated streams. *)

val split : t -> t
(** [split t] returns a new generator statistically independent of [t],
    advancing [t]. *)

val copy : t -> t
(** Duplicate the current state (same future stream). *)

val bits64 : t -> int64
(** Next raw 64 random bits. *)

val int : t -> int -> int
(** [int t n] is uniform on [0, n-1].  Requires [n > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform on [0, x). *)

val uniform : t -> float
(** Uniform on [0, 1). *)

val bits53 : t -> int
(** The 53 random bits behind the next {!uniform}:
    [uniform t = float_of_int (bits53 t) *. 0x1.0p-53], consuming the same
    single draw.  The result is an immediate int, so a hot loop in another
    module can form its uniform locally and keep it unboxed. *)

val fill_bits53 : t -> int array -> int -> unit
(** [fill_bits53 t buf k] writes the next [k] values of {!bits53} into
    [buf.(0)] .. [buf.(k-1)] and leaves [t] in the state [k] calls to
    {!bits53} would: the same stream, drawn in one batch.  A hot loop
    whose draw count is known in advance forms each uniform as
    [float_of_int buf.(i) *. 0x1.0p-53], or compares [buf.(i)] with an
    integer threshold.  Raises [Invalid_argument] unless
    [0 <= k <= Array.length buf]. *)

val geometric : t -> log1mp:float -> int
(** [geometric t ~log1mp] is one sparse-Bernoulli gap draw:
    [int_of_float (log1p (-.(uniform t)) /. log1mp)] where
    [log1mp = log1p (-.p)], consuming exactly one [uniform].  Allocates
    nothing (no boxed intermediates), for the event-direct sampling hot
    paths. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate); mean [1. /. rate]. *)

val poisson : t -> float -> int
(** [poisson t lambda] samples a Poisson count with mean [lambda].  Uses
    inversion for small lambda and normal approximation above 500. *)

val gaussian : t -> float
(** Standard normal via Box–Muller. *)

val categorical : t -> float array -> int
(** [categorical t w] samples index [i] with probability [w.(i) /. sum w].
    Weights must be non-negative with positive sum. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
