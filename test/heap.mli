(** Mutable binary min-heap keyed by float priority.

    The event queue of the {!Des} oracle engine, and the reference that
    [Distill_module.Events] must pop like. *)

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
