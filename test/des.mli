(** Discrete-event simulation engine, kept as a test oracle.

    Events are closures on a time-ordered {!Heap}; a handler may schedule
    further events.  [Ct_oracle] and [Distill_oracle] run the
    code-teleportation pipeline and the distillation module on it, the way
    [lib/] ran them before each got a loop of its own; the tests compare
    those loops with these closure versions bit for bit.

    [des.events_total] counts every processed event, added once when {!run}
    or {!run_until} returns, so that an oracle run and a [Distill_module]
    run can be compared by their deltas of that counter. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time, seconds. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** Enqueue an event [delay] seconds from now.  Raises [Invalid_argument]
    unless [delay >= 0] (a NaN delay included). *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** Enqueue at an absolute time.  Raises [Invalid_argument] if [time] is in
    the past or NaN. *)

val run_until : t -> float -> unit
(** Process events up to and including the given time; the clock ends at
    exactly that time. *)

val run : t -> unit
(** Process until the event queue is empty. *)

val pending : t -> int
val events_processed : t -> int
