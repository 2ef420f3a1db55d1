(* The per-file rules D1 D2 F1 M1 E1 O1, matched on the parse tree.

   Value and type paths are alias-expanded and stripped of a leading
   [Stdlib.] before matching, so every spelling of a banned function
   resolves to the same rule. *)

module Diag = Mppm_lint.Diag

type scope = Lib | Exec | Testish

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [Lib] is lib/; [Testish] is test/ and examples/, where M1 and O1
   downgrade to warnings; [Exec] is bin/, bench/ and tools/. *)
let scope_of_rel rel =
  if starts_with "lib/" rel then Lib
  else if starts_with "test/" rel || starts_with "examples/" rel then Testish
  else Exec

let module_name rel =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename rel))

let diag rel ~line ~rule ~severity message =
  { Diag.file = rel; line; rule; severity; message }

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let resolve aliases lid =
  match Astparse.expand aliases (Astparse.flatten lid) with
  | "Stdlib" :: rest -> rest
  | path -> path

(* ---- D1 / D2: nondeterminism sources ------------------------------------ *)

let wall_clock_members = [ "gettimeofday"; "time"; "gmtime"; "localtime"; "times" ]
let hash_members = [ "hash"; "seeded_hash"; "hash_param"; "randomize" ]

let nondeterminism ~lib path =
  match path with
  | "Random" :: _ ->
      if lib then
        Some
          ( "D1",
            "stdlib Random is banned in lib/ (all randomness must flow \
             through Mppm_util.Rng)" )
      else
        Some
          ( "D2",
            "stdlib Random used outside Mppm_util.Rng; derive a seeded \
             Mppm_util.Rng.t instead" )
  | [ "Sys"; "time" ] when lib ->
      Some
        ( "D1",
          "wall-clock read (Sys.time) in the model path breaks bit-for-bit \
           determinism" )
  | [ "Unix"; m ] when lib && List.mem m wall_clock_members ->
      Some
        ( "D1",
          Printf.sprintf
            "wall-clock read (Unix.%s) in the model path breaks bit-for-bit \
             determinism"
            m )
  | [ "Hashtbl"; m ] when lib && List.mem m hash_members ->
      Some
        ( "D1",
          Printf.sprintf
            "Hashtbl.%s depends on the polymorphic hash; use \
             Mppm_util.Fingerprint or an explicit key function"
            m )
  | [ "Hashtbl"; "create" ] when lib ->
      Some
        ( "D1",
          "Hashtbl.create without ~random:false: iteration order must not \
           depend on OCAMLRUNPARAM=R" )
  | _ -> None

let random_false args =
  List.exists
    (fun (label, (a : Parsetree.expression)) ->
      match (label, a.pexp_desc) with
      | Asttypes.Labelled "random", Pexp_construct ({ txt = Lident "false"; _ }, None)
        ->
          true
      | _ -> false)
    args

(* ---- O1: console output --------------------------------------------------- *)

(* Bare stdlib channel printers.  [Format.pp_print_string ppf ...] is fine
   (the caller chose the formatter); writing straight to stdout/stderr
   from the model path is not. *)
let console_idents =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_int";
    "prerr_float"; "prerr_bytes";
  ]

let console path =
  match path with
  | [ id ] when List.mem id console_idents -> Some id
  | [ (("Printf" | "Format") as m); (("printf" | "eprintf") as f) ]
  | [ ("Format" as m); (("std_formatter" | "err_formatter") as f) ] ->
      Some (m ^ "." ^ f)
  | _ -> None

(* ---- F1 / E1: applications ------------------------------------------------ *)

let is_float_constant (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | _ -> false

let positional args =
  List.filter_map
    (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
    args

let equality_op = function
  | [ (("=" | "==" | "<>" | "!=" | "compare") as op) ] -> Some op
  | _ -> None

(* D1 D2 F1 E1 O1: one walk over every value and type path of a tree;
   [walk] runs the iterator over a structure or a signature. *)
let path_rules ~rel ~aliases walk =
  let scope = scope_of_rel rel in
  let lib = scope = Lib in
  let out = ref [] in
  let add ~line ~rule ~severity msg =
    out := diag rel ~line ~rule ~severity msg :: !out
  in
  let check_path loc path =
    (match nondeterminism ~lib path with
    | Some (rule, msg) -> add ~line:(line_of loc) ~rule ~severity:Diag.Error msg
    | None -> ());
    match console path with
    | Some what when scope <> Exec ->
        add ~line:(line_of loc) ~rule:"O1"
          ~severity:(if lib then Diag.Error else Diag.Warning)
          (Printf.sprintf
             "console output (%s) in %s: return data, render via a \
              caller-supplied formatter, or collect events in an Mppm_obs \
              trace"
             what
             (if lib then "lib/" else "test/examples code"))
    | _ -> ()
  in
  let check_apply loc path args =
    (match equality_op path with
    | Some op when List.exists is_float_constant (positional args) ->
        add ~line:(line_of loc) ~rule:"F1"
          ~severity:(if lib then Diag.Error else Diag.Warning)
          (Printf.sprintf
             "float equality via polymorphic %s: use Float.equal, or compare \
              against an explicit tolerance"
             op)
    | _ -> ());
    match (path, positional args) with
    | ( [ (("failwith" | "invalid_arg") as fn) ],
        { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ } :: _ )
      when lib ->
        let m = module_name rel in
        if not (starts_with (m ^ ".") s || starts_with (m ^ ":") s) then
          add ~line:(line_of loc) ~rule:"E1" ~severity:Diag.Error
            (Printf.sprintf
               "%s message %S must carry the module prefix (\"%s.\" or \
                \"%s:\")"
               fn s m m)
    | _ -> ()
  in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_ident { txt; loc } -> check_path loc (resolve aliases txt)
          | Pexp_apply (({ pexp_desc = Pexp_ident { txt; loc }; _ } as head), args)
            ->
              let path = resolve aliases txt in
              check_apply loc path args;
              (* [Hashtbl.create ~random:false n] is the sanctioned form:
                 skip the head so the bare-path D1 does not fire. *)
              if not (path = [ "Hashtbl"; "create" ] && random_false args)
              then it.expr it head;
              List.iter (fun (_, a) -> it.expr it a) args
          | _ -> default.expr it e);
      typ =
        (fun it t ->
          (match t.ptyp_desc with
          | Ptyp_constr ({ txt; loc }, _) -> check_path loc (resolve aliases txt)
          | _ -> ());
          default.typ it t);
    }
  in
  walk it;
  List.rev !out

let structure ~rel ~aliases str =
  path_rules ~rel ~aliases (fun it -> it.structure it str)

(* ---- M1: interface documentation ----------------------------------------- *)

let signature ~rel ~docs sg =
  let scope = scope_of_rel rel in
  let items =
    List.filter_map
      (fun (item : Parsetree.signature_item) ->
        let line = line_of item.psig_loc in
        match item.psig_desc with
        | Psig_value vd ->
            Some
              ( line,
                (if vd.pval_prim = [] then "val" else "external"),
                vd.pval_name.txt )
        | Psig_type (_, d :: _) | Psig_typesubst (d :: _) ->
            Some (line, "type", d.ptype_name.txt)
        | Psig_typext te ->
            Some
              ( line,
                "type",
                String.concat "." (Astparse.flatten te.ptyext_path.txt) )
        | Psig_exception te ->
            Some (line, "exception", te.ptyexn_constructor.pext_name.txt)
        | _ -> None)
      sg
  in
  let m1 =
    if scope = Exec then []
    else
      (* An item is documented by a doc comment ending on its line or the
         line above, or starting anywhere before the next item. *)
      let rec spans = function
        | [] -> []
        | [ it ] -> [ (it, max_int) ]
        | it :: (((next, _, _) :: _) as rest) -> (it, next - 1) :: spans rest
      in
      List.filter_map
        (fun ((line, kind, name), span_end) ->
          let documented =
            List.exists
              (fun (start, stop) ->
                line - stop = 0 || line - stop = 1
                || (start >= line && start <= span_end))
              docs
          in
          if documented then None
          else
            let severity =
              (* Interfaces under test/ and examples/ are held to the same
                 documentation bar, but only advisorily. *)
              if scope = Testish then Diag.Warning
              else if kind = "val" || kind = "external" then Diag.Error
              else Diag.Warning
            in
            Some
              (diag rel ~line ~rule:"M1" ~severity
                 (Printf.sprintf "%s %s has no doc comment" kind name)))
        (spans items)
  in
  path_rules ~rel ~aliases:[] (fun it -> it.signature it sg) @ m1

(* ---- dune files and missing interfaces ------------------------------------ *)

let dune ~rel content =
  if scope_of_rel rel <> Lib then []
  else
    let is_word_char c =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
      || c = '_'
    in
    let has_word line w =
      let n = String.length line and k = String.length w in
      let rec go i =
        i + k <= n
        && ((String.sub line i k = w
            && (i = 0 || not (is_word_char line.[i - 1]))
            && (i + k = n || not (is_word_char line.[i + k])))
           || go (i + 1))
      in
      go 0
    in
    String.split_on_char '\n' content
    |> List.mapi (fun idx line -> (idx + 1, line))
    |> List.filter_map (fun (line, text) ->
           if has_word text "unix" then
             Some
               (diag rel ~line ~rule:"D1" ~severity:Diag.Error
                  "lib/ libraries must not link unix (wall-clock and process \
                   state are banned from the model path)")
           else None)

let missing_mli ~rel_ml =
  diag rel_ml ~line:1 ~rule:"M1" ~severity:Diag.Error
    (Printf.sprintf "public module %s has no .mli interface"
       (module_name rel_ml))
