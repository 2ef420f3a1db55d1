(** Pluggable event consumers.

    A sink is just an [emit] function plus a [close] hook.  The library
    ships only in-memory plumbing; file writers (JSONL, Chrome trace JSON)
    live in [bin/]/[tools/] so [lib/] never owns an output channel — all
    model-core output either returns data or flows through a sink the
    caller supplied. *)

type t
(** An event consumer. *)

val make : ?close:(unit -> unit) -> (Event.t -> unit) -> t
(** [make ?close emit] wraps an emit function; [close] (default no-op) is
    called once when the producer is done (flush/close files there). *)

val emit : t -> Event.t -> unit
(** Deliver one event. *)

val close : t -> unit
(** Run the sink's close hook. *)

val memory : unit -> t * (unit -> Event.t list)
(** A collecting sink: [let sink, events = memory ()] stores every event;
    [events ()] returns them in emission order.  Used by tests and by the
    CLI to buffer a trace before writing it in the requested format. *)
