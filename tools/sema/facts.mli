(** Per-file facts extracted from the compiler-libs parse tree.

    Facts are plain serializable data (no AST nodes), so they can be
    cached by source fingerprint ({!Cache}) and re-fed to the cross-module
    passes ({!Effects}, {!Seedflow}, {!Purity}, S4 in {!Sema}) without
    re-parsing; they also carry the findings of the per-file rules
    ({!Filecheck}), so the cache covers those too.  Extraction is purely
    syntactic; every judgment is a heuristic tuned to be zero-noise on
    this tree. *)

type mut_scope =
  | Mut_local
      (** the mutated value is let-bound to a fresh mutable allocation
          ([ref]/[Array.make]/[Hashtbl.create]/...) inside the function *)
  | Mut_arg
      (** the mutated value is bound somewhere in the function (a
          parameter, [let], or match case) but not to a visible fresh
          allocation — typically caller-owned state *)
  | Mut_toplevel
      (** the mutated value is free in the function: module-level state
          of this unit, or a qualified path into another unit *)

type mutation = {
  mut_target : string;  (** identifier (or qualified path) being written *)
  mut_prim : string;  (** [":="], ["<-"], ["Hashtbl.replace"], ... *)
  mut_scope : mut_scope;
  mut_line : int;
}
(** One direct write site: a [:=]/[<-] assignment or a stdlib mutation
    primitive over refs, arrays, [Bytes], [Hashtbl], [Buffer], [Queue],
    [Stack], [Atomic] or [Bigarray] values. *)

type closure = {
  ct_line : int;
  ct_writes : (string * string * string * int) list;
      (** [(target, prim, scope, line)] writes to values the closure does
          not bind itself; [scope] is ["captured"] or ["toplevel"] *)
  ct_calls : string list list;
      (** every value path referenced inside the closure, alias-expanded *)
  ct_escaping : (string list * string * int) list;
      (** [(callee, ident, line)] calls whose first positional argument
          is an identifier captured from outside the closure — paired
          with the callee's [mut_arg0] this detects shared state mutated
          on the closure's behalf *)
}
(** The S6 summary of a closure handed to the parallel surface. *)

type task =
  | Task_path of string list * string option
      (** a named task, possibly partially applied; the option is the
          first positional identifier applied at the call site *)
  | Task_closure of closure  (** an inline (or let-bound local) lambda *)

type pool_call = {
  pc_entry : string;
      (** ["Pool.map"], ["Pool.map_reduce"], ["Single_flight.get"], or
          ["Pool.map via <local wrapper>"] *)
  pc_line : int;
  pc_tasks : task list;
}
(** One call site handing work to pool domains or a single-flight memo. *)

type perf_site = {
  ps_rule : string;  (** ["P1"].."P4" *)
  ps_what : string;  (** human description of the offending shape *)
  ps_line : int;
}
(** One hot-path performance hazard: a heap allocation (P1), polymorphic
    comparison (P2), hashtable operation (P3) or boxed-float ref
    accumulation (P4).  Sites are collected per function and only become
    findings when {!Hotpath} proves the function reachable from a
    [(* mppm: hot *)] root. *)

type uop = U_add | U_sub | U_mul | U_div | U_minmax | U_cmp | U_rem
(** Arithmetic heads the unit algebra understands: additive ops require
    equal dimensions, [U_mul]/[U_div] compose and cancel them,
    [U_minmax]/[U_cmp]/[U_rem] require equal dimensions without changing
    them. *)

(** A serializable unit-relevant skeleton of an expression, extracted
    once per file and evaluated by {!Units} with a cross-module
    environment.  Conversion is lossy by design: shapes the unit algebra
    cannot reason about collapse to {!U_opaque} (which poisons inference
    and never produces a finding) or to containers whose children are
    still checked. *)
type uexpr =
  | U_opaque  (** unknown value: never produces a finding *)
  | U_const  (** literal or nullary constructor: unifies with anything *)
  | U_ident of string list  (** alias-expanded value path *)
  | U_field of string  (** record projection, by trailing field name *)
  | U_apply of {
      ua_path : string list;
          (** callee path, [[]] when the head is computed *)
      ua_args : (string option * uexpr) list;  (** (label, argument) *)
      ua_line : int;
    }
  | U_arith of { uo_op : uop; uo_lhs : uexpr; uo_rhs : uexpr; uo_line : int }
  | U_branch of uexpr list  (** if/match arms: result is the join *)
  | U_let of {
      ul_name : string;
      ul_rhs : uexpr;
      ul_body : uexpr;
      ul_line : int;
    }
  | U_fun of { uf_params : (string option * string) list; uf_body : uexpr }
  | U_seq of uexpr * uexpr  (** first checked, second is the value *)
  | U_stmt of uexpr list  (** unit-typed container: checked, result free *)
  | U_block of uexpr list  (** opaque container: checked, result unknown *)
  | U_record of { ur_fields : (string * uexpr) list; ur_line : int }
      (** record construction: each field expression is checked against
          the field's declared or conventional unit *)
  | U_setfield of { us_field : string; us_rhs : uexpr; us_line : int }
      (** [t.f <- e]: [e] is checked against [f]'s unit *)

type fn = {
  fn_name : string;  (** top-level binding name, or ["(init:<line>)"] *)
  fn_line : int;
  calls : string list list;
      (** every value path referenced inside the body, alias-expanded *)
  rng_fields : string list;
      (** record fields passed as the state argument of an [Rng] draw,
          including draws through a [let v = t.field] local alias *)
  prim_io : (string * int) list;
      (** [(primitive, line)] for each direct file/channel-I/O or
          filesystem primitive the body applies *)
  prim_conc : (string * int) list;
      (** [(primitive, line)] for each direct use of the OCaml 5
          concurrency surface ([Domain]/[Mutex]/[Condition]/[Atomic]);
          feeds the S5 containment and S8 lock-order rules *)
  has_rng : bool;  (** the body calls into [Mppm_util.Rng] *)
  mutations : mutation list;
      (** every direct write site in the body, scope-classified *)
  mut_arg0 : bool;
      (** the body directly mutates its own first positional parameter
          (the shape of every [Rng] draw and in-place simulator step) *)
  pool_calls : pool_call list;
      (** calls into the parallel surface, with their tasks *)
  top_arg_calls : (string list * string * int) list;
      (** [(callee, ident, line)] calls passing a module-level value as
          the callee's first positional argument *)
  raises : bool;  (** the body applies [raise]/[failwith]/[invalid_arg] *)
  fn_hot : bool;
      (** the binding carries a [(* mppm: hot *)] annotation on its line
          or the line above — a hotness root *)
  fn_has_loop : bool;
      (** the warm region contains a [while]/[for] loop; for an annotated
          root this restricts the hot region to its loops *)
  warm_sites : perf_site list;
      (** P1-P4 shapes anywhere in the body outside cold guards
          (branches conditioned on [Invariant]/[Trace]/[Prof.enabled],
          [Trace.emit] thunks and [Invariant] applications, and
          [(* mppm: cold *)]-marked expressions) *)
  loop_sites : perf_site list;
      (** the subset of {!warm_sites} inside [while]/[for] loops,
          including the bodies of local lambdas referenced from a loop *)
  warm_calls : string list list;
      (** value paths referenced outside cold guards — the hotness
          propagation edges of a transitively-hot (or loop-free root)
          function *)
  loop_calls : string list list;
      (** value paths referenced inside loops — the propagation edges of
          an annotated root whose hot region is its loops *)
  fn_uparams : (string option * string) list;
      (** every parameter in binding order: [(label, name)] *)
  fn_ubody : uexpr;
      (** unit skeleton of the body with parameters stripped; the {!Units}
          pass evaluates it to infer the result unit and check every
          arithmetic / call / record-construction site *)
  fn_unit_annot : string option;
      (** the [(* mppm: unit ... *)] annotation on the binding's line, the
          line above, or two above (stacking with a hot marker) *)
}

type rng_create = {
  rc_line : int;
  rc_constant_seed : bool;
      (** the [~seed] argument mentions no identifier at all — a baked-in
          literal *)
}

type float_accum = { fa_line : int; fa_context : string }
(** An order-sensitive float accumulation site (S3): float arithmetic
    inside a closure fed to unordered [Hashtbl] iteration. *)

type t = {
  rel : string;  (** normalized root-relative path *)
  unit_name : string;  (** capitalized stem, e.g. ["Generator"] *)
  dir : string;  (** e.g. ["lib/trace"] *)
  is_mli : bool;
  opens : string list list;  (** [open]ed module paths, file-wide *)
  aliases : (string * string list) list;  (** [module X = A.B] aliases *)
  fns : fn list;
  refs : string list list;  (** every value path referenced in the file *)
  mli_vals : (string * int) list;  (** [.mli] [val] items: [(name, line)] *)
  val_units : (string * string) list;
      (** [(val name, unit annotation)] for each [.mli] item carrying a
          [(* mppm: unit ... *)] comment on its line or the line above *)
  field_units : (string * string) list;
      (** [(record field, unit annotation)] pairs from the file's type
          declarations (both files of a [.ml]/[.mli] pair contribute) *)
  rng_creates : rng_create list;
  float_accums : float_accum list;
  toplevel_muts : (string * string * int) list;
      (** [(name, kind, line)] module-level mutable allocations — the S7
          inventory ([ref]/[Hashtbl.create]/[Buffer.create]/...).
          Mutable records and toplevel arrays are caught at their write
          sites instead, so constant tables stay unflagged. *)
  allows : (string * int) list;
      (** [(rule, line)] from [(* lint: allow ... *)] comments *)
  allow_files : string list;
      (** rules suppressed file-wide by [(* lint: allow-file ... *)] *)
  findings : Mppm_lint.Diag.t list;
      (** the per-file rules' findings ({!Filecheck}), before
          suppression *)
}

val unit_key_of_rel : string -> string
(** The globally unique compilation-unit key of a source path: the path
    without its extension, so a [.ml]/[.mli] pair shares one key. *)

val extract : rel:string -> string -> (t, Astparse.parse_error) result
(** [extract ~rel content] parses and scans one source file, [rel] being
    its normalized root-relative path.  Total: a file the compiler
    rejects yields [Error], never an exception. *)
