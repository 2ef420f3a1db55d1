(** The trace handle threaded through the model core.

    [Trace.null] is the default everywhere: with it, every emission point
    is a single pattern match on an immediate — no event is built, no
    field list allocated, and model results are bit-for-bit identical to
    an instrumented run (the same discipline as [MPPM_SANITIZE=1]).
    {!memory} makes the same run collect typed events, which the caller
    renders afterwards with {!Render}. *)

type t
(** A possibly-null event collector. *)

val null : t
(** The no-op handle: emission points cost one branch. *)

val memory : unit -> t * (unit -> Event.t list)
(** A collecting handle: [let obs, events = memory ()] stores every
    emitted event; [events ()] returns them in emission order.  One
    collector belongs to one run on one domain. *)

val enabled : t -> bool
(** Whether events are being collected.  Instrumentation uses this to
    skip building payloads that only exist for the trace. *)

val emit : t -> (unit -> Event.t) -> unit
(** [emit t thunk] forces [thunk] and records the event only when [t]
    collects — the thunk must be side-effect-free on model state. *)
