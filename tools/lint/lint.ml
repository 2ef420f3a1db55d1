(* mppm-lint driver: run every rule over the tree, print the findings,
   exit 1 on errors.

   The rules (per-file D1 D2 F1 M1 E1 O1, the cross-module S1-S8, the
   hot-path perf rules P1-P4 and the unit rules U1-U3) all run over
   compiler-libs parse trees in Mppm_sema and share the
   [(* lint: allow ... *)] suppression comments.  A file the compiler
   rejects is a usage-level failure: exit 2 naming the file and line.

   Usage: lint.exe [--root DIR] [--format text|json|sarif] [--only RULE]...
                   [--rules R1,R2] [--fix] [--report hot|units] *)

module Diag = Mppm_lint.Diag
module Sarif = Mppm_lint.Sarif
module Sema = Mppm_sema.Sema
module Fix = Mppm_sema.Fix

type format = Text | Json | Sarif

let usage =
  "lint.exe [--root DIR] [--format text|json|sarif] [--only RULE]... \
   [--rules R1,R2] [--fix] [--report hot|units]"

(* --report hot: the ranked hot-path inventory.  Findings stay with the
   normal lint run; this mode is the work-list view — every function the
   hotness propagation reached, its shortest chain back to a
   (* mppm: hot *) root, and its P1-P4 sites (open or allow-suppressed). *)
let report_hot (report : Mppm_sema.Sema.report) =
  let hot = report.Mppm_sema.Sema.hot in
  let roots = List.filter (fun e -> e.Mppm_sema.Hotpath.h_root) hot in
  let sites = List.concat_map (fun e -> e.Mppm_sema.Hotpath.h_sites) hot in
  let open_sites = List.filter (fun (_, allowed) -> not allowed) sites in
  Printf.printf
    "hot-path inventory: %d hot function%s (%d root%s), %d site%s (%d \
     open, %d allowed)\n"
    (List.length hot)
    (if List.length hot = 1 then "" else "s")
    (List.length roots)
    (if List.length roots = 1 then "" else "s")
    (List.length sites)
    (if List.length sites = 1 then "" else "s")
    (List.length open_sites)
    (List.length sites - List.length open_sites);
  List.iter
    (fun e ->
      if e.Mppm_sema.Hotpath.h_sites <> [] then begin
        Printf.printf "\n%s (%s:%d)\n" e.Mppm_sema.Hotpath.h_label
          e.Mppm_sema.Hotpath.h_rel e.Mppm_sema.Hotpath.h_line;
        Printf.printf "  chain: %s\n"
          (String.concat " -> " e.Mppm_sema.Hotpath.h_chain);
        List.iter
          (fun ((s : Mppm_sema.Facts.perf_site), allowed) ->
            Printf.printf "  %s:%d  %s  %s%s\n" e.Mppm_sema.Hotpath.h_rel
              s.Mppm_sema.Facts.ps_line s.Mppm_sema.Facts.ps_rule
              s.Mppm_sema.Facts.ps_what
              (if allowed then "  [allowed]" else ""))
          e.Mppm_sema.Hotpath.h_sites
      end)
    hot;
  let clean =
    List.filter (fun e -> e.Mppm_sema.Hotpath.h_sites = []) hot
  in
  if clean <> [] then
    Printf.printf "\n%d hot function%s with no perf sites: %s\n"
      (List.length clean)
      (if List.length clean = 1 then "" else "s")
      (String.concat ", "
         (List.map (fun e -> e.Mppm_sema.Hotpath.h_label) clean))

(* --report units: the annotation coverage map.  One row per lib/
   module — public .mli values that are annotated, inferred or opaque —
   plus the hot-path opacity check: every function on a
   (* mppm: hot *) path must carry or infer a unit, so the per-quantum
   math stays inside the checked algebra.  Exit 1 when a lib/ hot-path
   function has an opaque unit. *)
let report_units (report : Mppm_sema.Sema.report) =
  let module U = Mppm_sema.Units in
  let cov = report.Mppm_sema.Sema.units.U.u_coverage in
  let tot f = List.fold_left (fun a c -> a + f c) 0 cov in
  let ann = tot (fun c -> c.U.cov_annotated)
  and inf = tot (fun c -> c.U.cov_inferred)
  and opq = tot (fun c -> c.U.cov_opaque) in
  let total = ann + inf + opq in
  let pct a b = if b = 0 then 100.0 else 100.0 *. float_of_int a /. float_of_int b in
  Printf.printf
    "unit coverage: %d public values across %d lib/ modules — %d annotated, \
     %d inferred, %d opaque (%.1f%% covered)\n\n"
    total (List.length cov) ann inf opq
    (pct (ann + inf) total);
  Printf.printf "  %-34s %9s %8s %6s\n" "module" "annotated" "inferred"
    "opaque";
  List.iter
    (fun (c : U.coverage) ->
      Printf.printf "  %-34s %9d %8d %6d\n" c.U.cov_key c.U.cov_annotated
        c.U.cov_inferred c.U.cov_opaque)
    cov;
  let opaque_rows =
    List.filter (fun (c : U.coverage) -> c.U.cov_opaque_names <> []) cov
  in
  if opaque_rows <> [] then begin
    Printf.printf "\nopaque values:\n";
    List.iter
      (fun (c : U.coverage) ->
        Printf.printf "  %s: %s\n" c.U.cov_key
          (String.concat ", " c.U.cov_opaque_names))
      opaque_rows
  end;
  let class_of = Hashtbl.create 512 in
  List.iter
    (fun (k, c) -> Hashtbl.replace class_of k c)
    report.Mppm_sema.Sema.units.U.u_fn_class;
  let in_lib rel = String.length rel >= 4 && String.sub rel 0 4 = "lib/" in
  let hot_lib =
    List.filter
      (fun (e : Mppm_sema.Hotpath.entry) -> in_lib e.Mppm_sema.Hotpath.h_rel)
      report.Mppm_sema.Sema.hot
  in
  let opaque_hot =
    List.filter
      (fun (e : Mppm_sema.Hotpath.entry) ->
        Hashtbl.find_opt class_of e.Mppm_sema.Hotpath.h_key
        = Some U.Opaque_unit)
      hot_lib
  in
  if opaque_hot = [] then
    Printf.printf
      "\nhot-path units: %d hot lib/ functions, none with an opaque unit\n"
      (List.length hot_lib)
  else begin
    Printf.printf "\nhot-path functions with an opaque unit:\n";
    List.iter
      (fun (e : Mppm_sema.Hotpath.entry) ->
        Printf.printf "  %s (%s:%d)\n" e.Mppm_sema.Hotpath.h_label
          e.Mppm_sema.Hotpath.h_rel e.Mppm_sema.Hotpath.h_line)
      opaque_hot
  end;
  opaque_hot = []

(* --fix, unit annotations: insert a missing (* mppm: unit ... *)
   annotation at the end of an .mli val line whose unit the strict
   (fallback-free) inference determined uniquely from its definition.
   End-of-line placement keeps the annotation inside its attachment
   window without disturbing M1's doc-comment association.  Idempotent: an
   annotated item is never suggested again. *)
let apply_unit_suggestions ~root suggestions =
  let by_file = Hashtbl.create 16 in
  List.iter
    (fun (rel, line, name, u) ->
      let prev =
        match Hashtbl.find_opt by_file rel with Some l -> l | None -> []
      in
      Hashtbl.replace by_file rel ((line, name, u) :: prev))
    suggestions;
  Hashtbl.fold (fun rel items acc -> (rel, items) :: acc) by_file []
  |> List.sort compare
  |> List.map (fun (rel, items) ->
         let path = Filename.concat root rel in
         let ic = open_in_bin path in
         let text =
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> really_input_string ic (in_channel_length ic))
         in
         let lines = String.split_on_char '\n' text in
         let fixed =
           List.mapi
             (fun i l ->
               match
                 List.find_opt (fun (line, _, _) -> line = i + 1) items
               with
               | Some (_, _, u) ->
                   Printf.sprintf "%s  (* mppm: unit %s *)" l u
               | None -> l)
             lines
         in
         let oc = open_out_bin path in
         Fun.protect
           ~finally:(fun () -> close_out_noerr oc)
           (fun () -> output_string oc (String.concat "\n" fixed));
         (rel, List.length items))

let () =
  let root = ref "." in
  let format = ref Text in
  let only = ref [] in
  let fix = ref false in
  let report_mode = ref "" in
  let add_rule r =
    if not (List.mem r Mppm_lint.Rule_info.all_ids) then begin
      Printf.eprintf "lint: unknown rule %s (known: %s)\n" r
        (String.concat " " (List.sort compare Mppm_lint.Rule_info.all_ids));
      exit 2
    end;
    if not (List.mem r !only) then only := r :: !only
  in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR  repository root to lint (default .)");
      ( "--format",
        Arg.Symbol
          ( [ "text"; "json"; "sarif" ],
            fun s ->
              format := (match s with "json" -> Json | "sarif" -> Sarif | _ -> Text) ),
        "  output format (default text)" );
      ( "--only",
        Arg.String add_rule,
        "RULE  restrict to one rule id (repeatable)" );
      ( "--rules",
        Arg.String
          (fun s ->
            List.iter
              (fun r ->
                let r = String.trim r in
                if r <> "" then add_rule r)
              (String.split_on_char ',' s)),
        "R1,R2  restrict to a comma-separated set of rule ids" );
      ( "--fix",
        Arg.Set fix,
        "  rewrite sources in place, applying the mechanical fixes (D1 \
         ~random:false, E1 message prefix) before linting" );
      ( "--report",
        Arg.String
          (fun s ->
            if s <> "hot" && s <> "units" then begin
              Printf.eprintf "lint: unknown report %s (known: hot units)\n" s;
              exit 2
            end;
            report_mode := s),
        "hot|units  print the ranked hot-path inventory or the unit \
         annotation coverage map instead of findings" );
    ]
  in
  Arg.parse spec
    (fun a ->
      Printf.eprintf "lint: unexpected argument %s\n" a;
      exit 2)
    usage;
  (* A typo'd --root must not pass as an empty (hence clean) tree. *)
  if
    not
      (List.exists
         (fun d -> Sys.file_exists (Filename.concat !root d))
         Sema.scanned_dirs)
  then begin
    Printf.eprintf "lint: %s contains none of the scanned directories (%s)\n"
      !root
      (String.concat " " Sema.scanned_dirs);
    exit 2
  end;
  if !fix then begin
    let fixed = Fix.fix_tree ~root:!root in
    List.iter
      (fun (rel, n) ->
        Printf.printf "fixed %s (%d change%s)\n" rel n
          (if n = 1 then "" else "s"))
      fixed
  end;
  let analyze () =
    match Sema.analyze_tree ~root:!root () with
    | Ok report -> report
    | Error errors ->
        List.iter
          (fun (e : Mppm_sema.Astparse.parse_error) ->
            Printf.eprintf "lint: %s:%d: %s\n" e.pe_rel e.pe_line e.pe_message)
          errors;
        exit 2
  in
  let report = analyze () in
  let report =
    if not !fix then report
    else
      match report.Mppm_sema.Sema.units.Mppm_sema.Units.u_suggest with
      | [] -> report
      | suggestions ->
          List.iter
            (fun (rel, n) ->
              Printf.printf "fixed %s (%d unit annotation%s)\n" rel n
                (if n = 1 then "" else "s"))
            (apply_unit_suggestions ~root:!root suggestions);
          (* Re-analyze so findings and reports reflect the fixed tree. *)
          analyze ()
  in
  if !report_mode = "hot" then begin
    report_hot report;
    exit 0
  end;
  if !report_mode = "units" then exit (if report_units report then 0 else 1);
  let diags =
    match !only with
    | [] -> report.Sema.diags
    | rules -> List.filter (fun d -> List.mem d.Diag.rule rules) report.Sema.diags
  in
  let errors = List.filter (fun d -> d.Diag.severity = Diag.Error) diags in
  (match !format with
  | Json -> print_endline (Diag.list_to_json diags)
  | Sarif -> print_string (Sarif.render diags)
  | Text ->
      List.iter (fun d -> print_endline (Diag.to_text d)) diags;
      Printf.printf "%d finding%s (%d error%s, %d warning%s)\n"
        (List.length diags)
        (if List.length diags = 1 then "" else "s")
        (List.length errors)
        (if List.length errors = 1 then "" else "s")
        (List.length diags - List.length errors)
        (if List.length diags - List.length errors = 1 then "" else "s"));
  exit (if errors <> [] then 1 else 0)
