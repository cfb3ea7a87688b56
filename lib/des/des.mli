(** Discrete-event simulation engine.

    Drives the code-teleportation protocol simulation ([Ct_protocol]):
    probabilistic EP collection and the pipeline steps that wait on it.
    Events are closures on a time-ordered heap; a handler may schedule
    further events.  The distillation module does not use it: its three
    event kinds run on a queue of their own in [Distill_module.run], which
    pops in the order this engine would.

    Instruments: [des.events_total] counts every processed event, added
    once when {!run} or {!run_until} returns (not per event: the counter is
    shared by every domain); the distillation loop adds its events to the
    same counter.  [des.handler_seconds] times the handlers of events 1,
    65, 129, ... of each queue (1 in 64); [des.queue_high_water] is the
    deepest queue seen.  Those two cover this engine only. *)

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
