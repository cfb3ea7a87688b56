(** Parameter-sweep combinators for design-space exploration. *)

val linspace : lo:float -> hi:float -> n:int -> float list
(** [n] evenly spaced points including both endpoints ([n >= 2]). *)

val logspace : lo:float -> hi:float -> n:int -> float list
(** Log-spaced points; [lo], [hi] must be positive. *)

val sweep : ?jobs:int -> 'a list -> f:('a -> 'b) -> ('a * 'b) list
(** Evaluate [f] at every point, fanning points across domains via
    {!Parallel}.  Results are in point order regardless of [jobs]; for
    seed-stable output, [f] must be deterministic per point (derive a fresh
    RNG per point rather than sharing a sequential stream).  Each point is
    timed under a [dse.sweep_point] span carrying the point's index as a
    [point] attribute.

    Cell characterizations inside the points read the characterization
    store installed by {!Char_store.with_store} (the CLI's [--cache-dir]),
    on any worker domain; results stay byte-identical with the store cold,
    warm, half-warm, or absent, at any [jobs]. *)

val grid : ?jobs:int -> 'a list -> 'b list -> f:('a -> 'b -> 'c) -> ('a * 'b * 'c) list
(** Cartesian product sweep, row-major; parallelised like {!sweep}. *)

val argmin : ('a * float) list -> 'a * float
(** Point with the smallest objective; raises on empty input. *)

val argmax : ('a * float) list -> 'a * float

val pareto : ('a * float * float) list -> ('a * float * float) list
(** Pareto-minimal points of a 2-objective sweep (both minimized), in input
    order. *)
