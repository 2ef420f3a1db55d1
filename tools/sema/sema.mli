(** The lint driver: every rule over compiler-libs parse trees.

    Per-file {!Facts} extraction carries the per-file rules D1 D2 F1 M1 E1 O1
    ({!Filecheck}) and feeds the cross-module checks: S1/S5 effect
    containment ({!Effects}), S2 seed-flow ({!Seedflow}), S3
    order-sensitive float accumulation over unordered [Hashtbl]
    iteration, S4 dead [.mli] exports, the S6/S7/S8
    parallel-determinism rules ({!Purity}), the P1-P4 hot-path perf
    rules ({!Hotpath}) and the U1-U3 unit rules ({!Units}).  Every
    finding obeys the same suppression comments:
    [(* lint: allow S1 *)] on (or above) the line, or
    [(* lint: allow-file S1 *)] anywhere in the file.

    A file the compiler rejects is an error of the whole run: the
    entry points return its {!Astparse.parse_error} instead of a
    report. *)

type input = { rel : string;  (** root-relative path *)
               content : string  (** full source text *) }
(** One source file handed to {!analyze}. *)

type report = {
  diags : Mppm_lint.Diag.t list;  (** suppression-filtered, sorted *)
  summaries : (string * string * string) list;
      (** [(file, function, effects)] transitive effect summaries *)
  hot : Hotpath.entry list;
      (** ranked hot-function inventory (the [--report hot] payload) *)
  units : Units.analysis;
      (** unit-inference outcome: coverage map ([--report units]),
          per-function classes and the [--fix] annotation suggestions *)
}
(** The outcome of one analysis run. *)

val lint_source :
  rel:string -> string -> (Mppm_lint.Diag.t list, Astparse.parse_error) result
(** [lint_source ~rel content] runs the per-file rules over one source
    ([.ml], [.mli] or [dune]) given as a string, with its suppression
    comments applied: a finding is dropped when its rule is allowed
    file-wide, or on its line or the line above.  [rel] decides
    applicability (scope, module name); a leading ["./"] and backslash
    separators are normalized away. *)

val analyze :
  dunes:(string * string) list -> input list ->
  (report, Astparse.parse_error list) result
(** [analyze ~dunes inputs] runs every rule over the given sources.
    [dunes] are the tree's dune files ([(rel, content)]), used to map
    wrapped-library alias modules to directories and checked for [unix]
    links. *)

val read_file : string -> string
(** Read a whole file as bytes. *)

val scanned_dirs : string list
(** The top-level directories a tree lint walks: [lib], [bin], [bench],
    [tools], [test], [examples]. *)

val collect_tree : root:string -> string list
(** Root-relative paths of every [.ml]/[.mli]/[dune] file under
    {!scanned_dirs}, sorted for deterministic reports (skipping
    [_build], [_profile_cache] and dot-directories). *)

val analyze_tree :
  root:string -> unit ->
  (report, Astparse.parse_error list) result
(** {!analyze} every file of {!collect_tree}, plus the M1 check that
    every [lib/] implementation has an interface. *)
