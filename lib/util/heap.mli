(** Mutable binary min-heap keyed by float priority.

    Used as the event queue of the discrete-event engine and as the frontier
    of shortest-path routing. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push h priority value] inserts; smaller priorities pop first. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element. *)

val peek : 'a t -> (float * 'a) option

val min_prio : 'a t -> float
(** The minimum priority, without allocating.  Raises [Invalid_argument] on
    an empty heap. *)

val pop_min : 'a t -> 'a
(** [pop] without the option and tuple: remove the minimum-priority element
    and return its value.  Raises [Invalid_argument] on an empty heap. *)

val clear : 'a t -> unit
