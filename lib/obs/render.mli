(** Renderers for collected event lists: the pure [Event.t list -> bytes]
    layer under every trace file writer.

    A renderer owns the file framing — the JSONL newline discipline, the
    Chrome [trace_event] array brackets and separators — so writers in
    [bin/] and [bench/] only write one string to a channel and [lib/]
    never owns one (lint rules S1/O1).  Rendering is deterministic:
    identical event lists produce byte-identical files. *)

type t
(** An output format. *)

val jsonl : unit -> t
(** JSONL: every event renders as its {!Event.to_jsonl} line plus a
    newline; no header or trailer. *)

val chrome : ?lane:(Event.t -> int) -> unit -> t
(** A Chrome [trace_event] JSON array.  [lane] maps each event to its
    [tid] timeline row (default: everything on lane 0) — the bench phase
    trace uses it to put pool workers on per-domain lanes.  An empty
    list still renders a well-formed array. *)

val to_string : t -> Event.t list -> string
(** [to_string t events] renders the whole file in one call. *)
