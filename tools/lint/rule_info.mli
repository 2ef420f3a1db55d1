(** Registry of every lint rule.

    The per-file rules and the cross-module rules of [Mppm_sema] share
    one diagnostic stream, one suppression syntax and one output format;
    this module is the single list of rule ids and descriptions the
    driver and the SARIF renderer agree on. *)

type t = {
  id : string;  (** rule identifier, e.g. ["D1"] or ["S2"] *)
  summary : string;  (** one-sentence description, used in SARIF rules *)
}

val all : t list
(** Every known rule in report order.  SARIF [ruleIndex] values index into
    this list, so the order is stable and golden-tested. *)

val all_ids : string list
(** The ids of {!all}, in the same order. *)

val find : string -> t option
(** Look a rule up by id. *)
