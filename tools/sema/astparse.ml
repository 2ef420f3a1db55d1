(* The lint's only view of OCaml source: compiler-libs' parser, plus the
   comment list its lexer collects while the parser pulls tokens.

   The lint must never crash on its input: any exception from the lexer
   or parser (syntax errors, malformed literals, even assertion failures
   on adversarial bytes) is caught and returned as a parse_error, which
   the driver reports and exits on.  This totality is qcheck-verified in
   test/suite_sema.ml. *)

type parse_error = { pe_rel : string; pe_line : int; pe_message : string }

type comments = {
  docs : (int * int) list;
  allows : (string * int) list;
  allow_files : string list;
  hots : int list;
  colds : int list;
  units : (string * int * bool) list;
}

type 'a parsed = { ast : 'a; comments : comments }

let flatten lid = try Longident.flatten lid with _ -> []

let expand aliases path =
  match path with
  | a :: rest when List.mem_assoc a aliases -> List.assoc a aliases @ rest
  | _ -> path

let words body =
  String.split_on_char ' ' (String.trim body) |> List.filter (fun s -> s <> "")

(* "mppm: hot" marks the toplevel binding on the same line (or the line
   below) as a hotness root; "mppm: cold" marks the expression starting
   there as off the hot path; "mppm: unit <expr>" attaches a physical
   unit to the item on the same line (or just below).  Free-form text
   may follow; a unit expression stops at the first "--" or dash. *)
type mark = Hot | Cold | Unit of string

let parse_mark body =
  match words body with
  | "mppm:" :: "hot" :: _ -> Some Hot
  | "mppm:" :: "cold" :: _ -> Some Cold
  | "mppm:" :: "unit" :: rest ->
      let rec until_sep = function
        | [] -> []
        | tok :: _
          when String.length tok >= 2
               && (String.sub tok 0 2 = "--" || String.sub tok 0 2 = "\xe2\x80")
          ->
            []
        | tok :: rest -> tok :: until_sep rest
      in
      Some (Unit (String.concat " " (until_sep rest)))
  | _ -> None

(* "lint: allow D1 F1 why" is a line-scoped allow, "lint: allow-file O1
   why" a whole-file one (ids may also be comma-separated).  Rule ids are
   an uppercase letter followed by digits; everything after the leading
   run of ids is free-form "why" text. *)
let parse_allow body =
  let is_rule_id s =
    String.length s >= 2
    && s.[0] >= 'A'
    && s.[0] <= 'Z'
    && String.for_all
         (fun c -> c >= '0' && c <= '9')
         (String.sub s 1 (String.length s - 1))
  in
  let rec leading_ids = function
    | tok :: rest when is_rule_id tok -> tok :: leading_ids rest
    | _ -> []
  in
  match words (String.map (fun c -> if c = ',' then ' ' else c) body) with
  | "lint:" :: "allow" :: rules -> Some (`Line, leading_ids rules)
  | "lint:" :: "allow-file" :: rules -> Some (`File, leading_ids rules)
  | _ -> None

let empty =
  { docs = []; allows = []; allow_files = []; hots = []; colds = []; units = [] }

(* Classify the lexer's comments.  Its doc comments come back with a
   body that starts with '*'; "(**)" and "(***)" come back as the bare
   "*" and are plain comments. *)
let comments_of source =
  List.fold_right
    (fun (body, (loc : Location.t)) acc ->
      let line = loc.loc_start.pos_lnum in
      if String.length body >= 2 && body.[0] = '*' then
        { acc with docs = (line, loc.loc_end.pos_lnum) :: acc.docs }
      else
        match parse_mark body with
        | Some Hot -> { acc with hots = line :: acc.hots }
        | Some Cold -> { acc with colds = line :: acc.colds }
        | Some (Unit u) ->
            (* Trailing: code precedes the comment on its line, so it
               belongs to that line's item only. *)
            let lead =
              String.sub source loc.loc_start.pos_bol
                (loc.loc_start.pos_cnum - loc.loc_start.pos_bol)
            in
            { acc with units = (u, line, String.trim lead <> "") :: acc.units }
        | None -> (
            match parse_allow body with
            | Some (`Line, rules) ->
                {
                  acc with
                  allows = List.map (fun r -> (r, line)) rules @ acc.allows;
                }
            | Some (`File, rules) ->
                { acc with allow_files = rules @ acc.allow_files }
            | None -> acc))
    (Lexer.comments ()) empty

let error_of_exn ~filename exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) ->
      let msg = report.Location.main in
      {
        pe_rel = filename;
        pe_line = max 1 msg.Location.loc.loc_start.pos_lnum;
        pe_message = Format.asprintf "%t" msg.Location.txt;
      }
  | _ -> { pe_rel = filename; pe_line = 1; pe_message = Printexc.to_string exn }

let parse parser ~filename source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  match parser lexbuf with
  | ast -> Ok { ast; comments = comments_of source }
  | exception exn -> Error (error_of_exn ~filename exn)

let implementation = parse Parse.implementation
let interface = parse Parse.interface
