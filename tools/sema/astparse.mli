(** The lint's only view of OCaml source: compiler-libs' parser and
    lexer.

    A parse yields the tree together with the annotations read from the
    comments the compiler's lexer collected on the way ([lint: allow],
    [mppm: hot]/[cold]/[unit], and doc-comment spans).  Any parser or
    lexer exception comes back as a {!parse_error}, never escapes
    (qcheck-verified in [test/suite_sema.ml]). *)

type parse_error = {
  pe_rel : string;  (** the path the source was parsed under *)
  pe_line : int;  (** 1-based line the compiler reported *)
  pe_message : string;  (** the compiler's one-line message *)
}
(** Why a file could not be parsed. *)

type comments = {
  docs : (int * int) list;
      (** [(first, last)] line span of each [(** ... *)] doc comment *)
  allows : (string * int) list;
      (** [(rule, line)] for each [(* lint: allow <rule> ... *)] *)
  allow_files : string list;
      (** rules suppressed file-wide by [(* lint: allow-file <rule> *)] *)
  hots : int list;
      (** start lines of [(* mppm: hot ... *)] hot-root annotations *)
  colds : int list;  (** start lines of [(* mppm: cold ... *)] markers *)
  units : (string * int * bool) list;
      (** [(unit-expression, line, trailing)] for each
          [(* mppm: unit ... *)]; the unit expression runs to the first
          ["--"] (or dash) separator, and [trailing] records that code
          precedes the comment on its line *)
}
(** Annotations carried by one file's comments, in source order. *)

type 'a parsed = { ast : 'a; comments : comments }
(** A parse tree with its file's comment annotations. *)

val implementation :
  filename:string -> string ->
  (Parsetree.structure parsed, parse_error) result
(** Parse a [.ml] source given as a string. *)

val interface :
  filename:string -> string -> (Parsetree.signature parsed, parse_error) result
(** Parse a [.mli] source given as a string. *)

val flatten : Longident.t -> string list
(** [Longident.flatten], total ([[]] for functor applications). *)

val expand : (string * string list) list -> string list -> string list
(** [expand aliases path] rewrites a leading module alias
    ([module R = Random] maps [["R"; "int"]] to [["Random"; "int"]]). *)
