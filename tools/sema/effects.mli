(** Transitive effect summaries and the S1/S5 effect-containment rules.

    Direct per-function effects come from {!Facts}; this module closes
    them over the cross-module call graph to a fixpoint over an explicit
    join-semilattice of {!summary} values, and reports any [lib/]
    function that can transitively reach file/channel I/O outside the
    allowlisted profile-store / experiment-context modules
    (S1), or the [Domain]/[Mutex]/[Condition]/[Atomic] concurrency surface
    outside [lib/pool/] (S5).  The closed summaries also back the S6/S7/S8
    parallel-determinism rules in {!Purity}. *)

type summary = {
  e_io : bool;  (** reaches file/channel I/O *)
  e_conc : bool;  (** reaches the OCaml 5 concurrency surface *)
  e_rng : bool;  (** draws from [Mppm_util.Rng] *)
  e_mut_top : bool;  (** writes module-level mutable state *)
  e_mut_arg : bool;  (** writes caller-owned state it was handed *)
  e_raises : bool;  (** may raise *)
  e_locks : string list;  (** sorted distinct lock classes acquired *)
}
(** One point of the effect lattice.  [e_locks] is kept sorted and
    duplicate-free, so the derived [compare]/[equal] are structural. *)

val bottom : summary
(** The lattice bottom: no effects, no locks. *)

val merge : summary -> summary -> summary
(** Least upper bound: pointwise disjunction, lock-set union.
    Idempotent, commutative, associative (qcheck-tested). *)

val equal : summary -> summary -> bool
(** Structural equality of summaries. *)

val leq : summary -> summary -> bool
(** Lattice order: [leq a b] iff [merge a b = b]. *)

val allowlist : string list
(** Compilation-unit keys ([lib/profile/profile], ...) sanctioned to
    perform file/channel I/O.  Propagation of the I/O effect is cut at
    these units: calling them does not taint the caller. *)

val conc_dir : string
(** Directory prefix ([lib/pool/]) whose units are sanctioned to use the
    concurrency surface.  Propagation of the concurrency effect is cut at
    these units: calling [Pool.map] does not taint the caller.  A
    concurrency prim on a line covered by an S5 allow comment (or in a
    file with an S5 allow-file) never enters the effect lattice at all,
    so a sanctioned use does not taint callers either. *)

val in_conc_allowlist : string -> bool
(** Whether a compilation-unit key lies under {!conc_dir}. *)

val purity_allowlist : string list
(** Compilation-unit keys outside [lib/pool/] sanctioned to hold and
    mutate module-level state: the obs registry (commutative counters
    under one lock) and the sanitizer's invariant-check registry
    (result-neutral by contract). *)

val in_purity_allowlist : string -> bool
(** Whether a unit may hold/mutate module state without tainting callers:
    under {!conc_dir} or listed in {!purity_allowlist}. *)

val lock_order : string list
(** The declared lock ordering for S8, outermost first:
    [["pool"; "registry"]] — the pool mutex is acquired before the
    registry mutex, never the other way around. *)

val lock_class_of_unit : string -> string option
(** The lock class a unit's mutex belongs to: ["pool"] for [lib/pool/]
    units, ["registry"] for the obs registry, [None] elsewhere. *)

val lock_rank : string -> int option
(** Position of a lock class in {!lock_order} (0 = outermost). *)

type info = {
  i_summary : summary;  (** transitively closed effects *)
  i_mut_arg0 : bool;
      (** direct fact: the function mutates its own first positional
          parameter (never propagated — it describes the callee's own
          parameters, not the caller's) *)
  i_mut_witness : string;
      (** how [e_mut_top] arose: a write site, a module-state argument,
          or the call that imported the taint *)
  i_unit : string;  (** compilation-unit key *)
  i_rel : string;
  i_fn_name : string;
  i_fn_line : int;
}
(** The resolved view of one analyzed function. *)

type table
(** The closed effect table: every analyzed function with its transitive
    summary, plus the resolution environment. *)

val build : Resolve.env -> Facts.t list -> table
(** Build nodes from direct facts, seed module-state-argument writes, and
    close over the call graph to a fixpoint. *)

val find : table -> Facts.t -> string list -> info option
(** [find t facts path] resolves a call path appearing in [facts] to the
    callee's closed summary.  Unqualified single-element paths resolve
    within the same unit. *)

val check : table -> Mppm_lint.Diag.t list
(** S1 and S5 findings (errors), sorted in {!Mppm_lint.Diag.compare}
    order.  Suppression is applied by the caller ({!Sema.analyze}). *)

val summaries : table -> (string * string * string) list
(** [(file, function, effects)] for every analyzed function, where
    [effects] is a comma-joined subset of [io], [conc], [rng], [mut-top],
    [mut-arg], [raises], [lock:<class>] after transitive propagation.
    Sorted; used by the driver's summary output. *)
