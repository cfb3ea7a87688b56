(** Discrete-event simulation engine.

    Drives the stochastic module-level simulations (probabilistic EP arrival,
    scheduler reactions) of the distillation and code-teleportation
    experiments.  Events are closures on a time-ordered heap; a handler may
    schedule further events.

    Instruments: [des.events_total] counts every processed event, added
    once when {!run} or {!run_until} returns (not per event: the counter is
    shared by every domain);
    [des.handler_seconds] times the handlers of events 1, 65, 129, ... of
    each queue (1 in 64); [des.queue_high_water] is the deepest queue seen. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time, seconds. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** Enqueue an event [delay] seconds from now ([delay >= 0]). *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** Enqueue at an absolute time (must not be in the past). *)

val run_until : t -> float -> unit
(** Process events up to and including the given time; the clock ends at
    exactly that time. *)

val run : t -> unit
(** Process until the event queue is empty. *)

val pending : t -> int
val events_processed : t -> int
