(** The per-file rules, checked on one parse tree.

    Rule ids (each suppressible at a finding's line, or the line above
    it, with a [(* lint: allow <rule> *)] comment):

    - [D1] — nondeterminism sources banned in [lib/]: the stdlib [Random]
      module, wall-clock reads ([Sys.time], [Unix.gettimeofday], ...),
      [Hashtbl.hash]-family functions, and [Hashtbl.create] without an
      explicit [~random:false].  Also flags [lib/] dune files linking the
      [unix] library.
    - [D2] — stdlib [Random] used outside [lib/]: all randomness must
      flow through [Mppm_util.Rng].
    - [F1] — float equality: polymorphic [=]/[==]/[<>]/[!=]/[compare]
      applied to a float constant; use [Float.equal] or an explicit
      tolerance.
    - [M1] — every public module under [lib/] has an [.mli], and every
      [val]/[external] item of a [lib/] [.mli] carries a doc comment
      ([type]/[exception] items get warnings).
    - [E1] — [failwith]/[invalid_arg] in [lib/] code applied to a string
      constant must prefix it with the module name ("Model.predict: ..."
      or "Metrics: ...").
    - [O1] — no console output from [lib/]: bare channel printers
      ([print_string], [prerr_endline], ...), [Printf.printf]/[eprintf],
      [Format.printf]/[eprintf], and [Format.std_formatter]/
      [err_formatter] are banned.  Library code returns data, renders
      through a caller-supplied formatter, or collects events in an
      [Mppm_obs] trace.

    Paths are matched after module-alias expansion and with a leading
    [Stdlib.] dropped, so [Stdlib.Random.int] and
    [module R = Random ... R.int] are both stdlib [Random]. *)

val structure :
  rel:string -> aliases:(string * string list) list -> Parsetree.structure ->
  Mppm_lint.Diag.t list
(** Findings of an implementation.  [aliases] are the file's
    [module X = A.B] aliases.  Suppression comments are not applied. *)

val signature :
  rel:string -> docs:(int * int) list -> Parsetree.signature ->
  Mppm_lint.Diag.t list
(** Findings of an interface; [docs] are its doc-comment line spans.
    Suppression comments are not applied. *)

val dune : rel:string -> string -> Mppm_lint.Diag.t list
(** Rules for [dune] files: [lib/] libraries must not link [unix] (D1). *)

val missing_mli : rel_ml:string -> Mppm_lint.Diag.t
(** The M1 finding for a [lib/] module lacking an [.mli]. *)
