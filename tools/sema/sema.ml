(* The lint driver.

   Extraction (per file) runs the per-file rules (Filecheck)
   and feeds the cross-checks: S1/S5 effect containment (Effects), S2
   seed-flow (Seedflow), S3 order-sensitive float accumulation and S4
   dead exports (here), the S6/S7/S8 parallel-determinism rules
   (Purity), the P rules (Hotpath) and the U rules (Units).  One
   suppression pass over the merged findings applies every file's
   [(* lint: allow ... *)] comments. *)

module Diag = Mppm_lint.Diag

type input = { rel : string; content : string }

type report = {
  diags : Diag.t list;
  summaries : (string * string * string) list;
  hot : Hotpath.entry list;
  units : Units.analysis;
}

(* Strip leading "./" segments and use '/' separators, so reports are
   stable root-relative paths whatever form the caller handed in. *)
let normalize_rel rel =
  let rec strip rel =
    if String.length rel >= 2 && String.sub rel 0 2 = "./" then
      strip (String.sub rel 2 (String.length rel - 2))
    else rel
  in
  strip (String.map (fun c -> if c = '\\' then '/' else c) rel)

(* Drop findings whose rule is allowed file-wide, or on the finding's
   line or the line above. *)
let suppress ~allows ~allow_files diags =
  List.filter
    (fun d ->
      (not (List.mem d.Diag.rule allow_files))
      && not
           (List.exists
              (fun (rule, line) ->
                rule = d.Diag.rule
                && (line = d.Diag.line || line = d.Diag.line - 1))
              allows))
    diags

let lint_source ~rel content =
  let rel = normalize_rel rel in
  if Filename.basename rel = "dune" then Ok (Filecheck.dune ~rel content)
  else
    Result.map
      (fun (f : Facts.t) ->
        List.sort Diag.compare
          (suppress ~allows:f.Facts.allows ~allow_files:f.Facts.allow_files
             f.Facts.findings))
      (Facts.extract ~rel content)

let in_lib rel = String.length rel >= 4 && String.sub rel 0 4 = "lib/"

(* S3: float accumulation over unordered Hashtbl iteration.  Iteration
   order depends on the hash layout, so a float sum folded over it is not
   reproducible across table histories — an error in lib/, a warning in
   executable and test code. *)
let s3 facts_list =
  List.concat_map
    (fun (f : Facts.t) ->
      List.map
        (fun (fa : Facts.float_accum) ->
          {
            Diag.file = f.Facts.rel;
            line = fa.Facts.fa_line;
            rule = "S3";
            severity =
              (if in_lib f.Facts.rel then Diag.Error else Diag.Warning);
            message =
              Printf.sprintf
                "float accumulation over unordered %s; iteration order is \
                 not deterministic — accumulate over a sorted projection \
                 instead"
                fa.Facts.fa_context;
          })
        f.Facts.float_accums)
    facts_list

(* S4: lib/ .mli exports referenced by no other compilation unit.  Uses
   are collected from every scanned file's alias-expanded value paths;
   unqualified names in a file that [open]s a unit count as potential
   uses of that unit (an over-approximation, so S4 under-reports rather
   than false-positives). *)
let s4 env facts_list =
  let used : (string * string, unit) Hashtbl.t =
    Hashtbl.create ~random:false 1024
  in
  List.iter
    (fun (f : Facts.t) ->
      let self = Facts.unit_key_of_rel f.Facts.rel in
      let opened_units =
        List.filter_map
          (fun open_path ->
            match Resolve.resolve env f (open_path @ [ "_" ]) with
            | Some (u, _) when u <> self -> Some u
            | _ -> None)
          f.Facts.opens
      in
      List.iter
        (fun path ->
          match path with
          | [ name ] ->
              List.iter (fun u -> Hashtbl.replace used (u, name) ()) opened_units
          | _ -> (
              match Resolve.resolve env f path with
              | Some (u, m) when u <> self -> Hashtbl.replace used (u, m) ()
              | _ -> ()))
        f.Facts.refs)
    facts_list;
  List.concat_map
    (fun (f : Facts.t) ->
      if f.Facts.is_mli && in_lib f.Facts.rel then
        let self = Facts.unit_key_of_rel f.Facts.rel in
        List.filter_map
          (fun (name, line) ->
            if Hashtbl.mem used (self, name) then None
            else
              Some
                {
                  Diag.file = f.Facts.rel;
                  line;
                  rule = "S4";
                  severity = Diag.Warning;
                  message =
                    Printf.sprintf
                      "val %s is exported but referenced by no other \
                       compilation unit; drop it from the .mli or mark the \
                       intent with an allow comment"
                      name;
                })
          f.Facts.mli_vals
      else [])
    facts_list

let analyze ~dunes inputs =
  let extracted =
    List.map
      (fun { rel; content } -> Facts.extract ~rel:(normalize_rel rel) content)
      inputs
  in
  match List.filter_map (function Error e -> Some e | Ok _ -> None) extracted with
  | _ :: _ as errors -> Error errors
  | [] ->
      let facts_list = List.filter_map Result.to_option extracted in
      let env =
        Resolve.build ~dunes
          ~files:(List.map (fun (f : Facts.t) -> f.Facts.rel) facts_list)
      in
      let table = Effects.build env facts_list in
      let units = Units.analyze env facts_list in
      let raw =
        List.concat_map (fun (f : Facts.t) -> f.Facts.findings) facts_list
        @ List.concat_map (fun (rel, content) -> Filecheck.dune ~rel content) dunes
        @ Effects.check table
        @ Seedflow.check facts_list
        @ Purity.check table facts_list
        @ Hotpath.check env facts_list
        @ units.Units.u_diags
        @ s3 facts_list
        @ s4 env facts_list
      in
      let allows_of : (string, (string * int) list * string list) Hashtbl.t =
        Hashtbl.create ~random:false 256
      in
      List.iter
        (fun (f : Facts.t) ->
          Hashtbl.replace allows_of f.Facts.rel
            (f.Facts.allows, f.Facts.allow_files))
        facts_list;
      let diags =
        List.filter
          (fun d ->
            match Hashtbl.find_opt allows_of d.Diag.file with
            | Some (allows, allow_files) ->
                suppress ~allows ~allow_files [ d ] <> []
            | None -> true)
          raw
        |> List.sort Diag.compare
      in
      Ok
        {
          diags;
          summaries = Effects.summaries table;
          hot = Hotpath.analyze env facts_list;
          units;
        }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scanned_dirs = [ "lib"; "bin"; "bench"; "tools"; "test"; "examples" ]

let skip_dir name =
  name = "_build" || name = "_profile_cache"
  || (String.length name > 0 && name.[0] = '.')

let rec collect root rel_dir =
  let abs = Filename.concat root rel_dir in
  if not (Sys.file_exists abs && Sys.is_directory abs) then []
  else
    Sys.readdir abs |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun name ->
           let rel = rel_dir ^ "/" ^ name in
           if Sys.is_directory (Filename.concat root rel) then
             if skip_dir name then [] else collect root rel
           else if
             Filename.check_suffix name ".ml"
             || Filename.check_suffix name ".mli"
             || name = "dune"
           then [ rel ]
           else [])

let collect_tree ~root = List.concat_map (collect root) scanned_dirs

let analyze_tree ~root () =
  let files = collect_tree ~root in
  let dunes, sources =
    List.partition (fun rel -> Filename.basename rel = "dune") files
  in
  let read rel = read_file (Filename.concat root rel) in
  (* Every lib/ implementation must have an interface. *)
  let missing =
    List.filter_map
      (fun rel ->
        if
          in_lib rel
          && Filename.check_suffix rel ".ml"
          && not (List.mem (rel ^ "i") sources)
        then Some (Filecheck.missing_mli ~rel_ml:rel)
        else None)
      sources
  in
  Result.map
    (fun report ->
      { report with diags = List.sort Diag.compare (missing @ report.diags) })
    (analyze
       ~dunes:(List.map (fun rel -> (rel, read rel)) dunes)
       (List.map (fun rel -> { rel; content = read rel }) sources))
