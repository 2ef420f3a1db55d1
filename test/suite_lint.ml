(* Tests for the mppm-lint static-analysis pass, the runtime invariant
   sanitizer, and the fingerprint-based profile cache keys.

   The tree test lints the real sources (made visible in the build
   directory via source_tree deps in test/dune) and asserts the repo is
   lint-clean; the synthetic tests feed each per-file rule a positive and
   a suppressed snippet through [Sema.lint_source], and the rule audit
   proves every rule id fires on a fixture of its own. *)

module Diag = Mppm_lint.Diag
module Sema = Mppm_sema.Sema
module Invariant = Mppm_util.Invariant
module Fingerprint = Mppm_util.Fingerprint
module Model = Mppm_core.Model
module Mix = Mppm_workload.Mix
open Mppm_experiments

(* ---- Linting the real tree ---------------------------------------------- *)

(* Tests run from the test stanza's build directory; the source_tree deps
   place lib/, bin/, bench/ and tools/ one level up.  MPPM_LINT_ROOT
   overrides the search (e.g. to lint a checkout directly). *)
let lint_root () =
  let candidates =
    (match Sys.getenv_opt "MPPM_LINT_ROOT" with Some r -> [ r ] | None -> [])
    @ [ ".."; "../.."; "." ]
  in
  List.find_opt
    (fun root ->
      let dir = Filename.concat root "lib" in
      Sys.file_exists dir && Sys.is_directory dir)
    candidates

let test_tree_is_clean () =
  match lint_root () with
  | None -> Alcotest.fail "cannot locate the source tree to lint"
  | Some root ->
      let findings =
        match Sema.analyze_tree ~root () with
        | Ok report -> report.Sema.diags
        | Error (e :: _) ->
            Alcotest.failf "%s:%d: %s" e.Mppm_sema.Astparse.pe_rel e.pe_line
              e.pe_message
        | Error [] -> Alcotest.fail "parse error without detail"
      in
      let errors =
        List.filter (fun d -> d.Diag.severity = Diag.Error) findings
      in
      let render ds =
        String.concat "\n" (List.map Diag.to_text ds)
      in
      Alcotest.(check string) "no lint errors" "" (render errors);
      Alcotest.(check string) "no lint warnings" "" (render findings)

(* ---- Synthetic rule cases ----------------------------------------------- *)

let lint_source ~rel src =
  match Sema.lint_source ~rel src with
  | Ok diags -> diags
  | Error e ->
      Alcotest.failf "fixture does not parse: %s:%d: %s"
        e.Mppm_sema.Astparse.pe_rel e.pe_line e.pe_message

let rules_of ~rel src = List.map (fun d -> d.Diag.rule) (lint_source ~rel src)

let has_rule rule ~rel src = List.mem rule (rules_of ~rel src)

let test_d1_random () =
  Alcotest.(check bool) "Random in lib flagged" true
    (has_rule "D1" ~rel:"lib/core/foo.ml" "let x = Random.int 5\n");
  Alcotest.(check bool) "allow comment suppresses" false
    (has_rule "D1" ~rel:"lib/core/foo.ml"
       "(* lint: allow D1 *)\nlet x = Random.int 5\n");
  Alcotest.(check bool) "qualified path not confused" false
    (has_rule "D1" ~rel:"lib/core/foo.ml"
       "let x = Mppm_util.Rng.int rng 5\n")

let test_d1_wall_clock_and_hash () =
  Alcotest.(check bool) "Sys.time flagged" true
    (has_rule "D1" ~rel:"lib/core/foo.ml" "let t = Sys.time ()\n");
  Alcotest.(check bool) "Unix.gettimeofday flagged" true
    (has_rule "D1" ~rel:"lib/core/foo.ml" "let t = Unix.gettimeofday ()\n");
  Alcotest.(check bool) "Hashtbl.hash flagged" true
    (has_rule "D1" ~rel:"lib/core/foo.ml" "let h = Hashtbl.hash v\n");
  Alcotest.(check bool) "Hashtbl.create bare flagged" true
    (has_rule "D1" ~rel:"lib/core/foo.ml" "let t = Hashtbl.create 16\n");
  Alcotest.(check bool) "Hashtbl.create ~random:false ok" false
    (has_rule "D1" ~rel:"lib/core/foo.ml"
       "let t = Hashtbl.create ~random:false 16\n");
  Alcotest.(check bool) "outside lib not D1" false
    (has_rule "D1" ~rel:"bench/foo.ml" "let t = Hashtbl.create 16\n")

let test_d2_random_outside_lib () =
  Alcotest.(check bool) "Random in bench flagged as D2" true
    (has_rule "D2" ~rel:"bench/foo.ml" "let x = Random.int 5\n");
  Alcotest.(check bool) "suppressed on same line" false
    (has_rule "D2" ~rel:"bench/foo.ml"
       "let x = Random.int 5 (* lint: allow D2 *)\n")

let test_f1_float_equality () =
  Alcotest.(check bool) "if x = 0.5 flagged" true
    (has_rule "F1" ~rel:"lib/core/foo.ml" "let f x = if x = 0.5 then 1 else 2\n");
  Alcotest.(check bool) "when clause flagged" true
    (has_rule "F1" ~rel:"lib/core/foo.ml"
       "let f x = match x with y when y = 1.0 -> 0 | _ -> 1\n");
  Alcotest.(check bool) "let binding not flagged" false
    (has_rule "F1" ~rel:"lib/core/foo.ml" "let x = 0.5\n");
  Alcotest.(check bool) "optional default not flagged" false
    (has_rule "F1" ~rel:"lib/core/foo.ml" "let f ?(eps = 1e-9) x = x +. eps\n");
  Alcotest.(check bool) "Float.equal not flagged" false
    (has_rule "F1" ~rel:"lib/core/foo.ml"
       "let f x = if Float.equal x 0.5 then 1 else 2\n");
  Alcotest.(check bool) "suppression works" false
    (has_rule "F1" ~rel:"lib/core/foo.ml"
       "(* lint: allow F1 *)\nlet f x = if x = 0.5 then 1 else 2\n")

let test_m1_mli_docs () =
  Alcotest.(check bool) "undocumented val flagged" true
    (has_rule "M1" ~rel:"lib/core/foo.mli" "val f : int -> int\n");
  Alcotest.(check bool) "doc after val ok" false
    (has_rule "M1" ~rel:"lib/core/foo.mli"
       "val f : int -> int\n(** Doubles. *)\n");
  Alcotest.(check bool) "doc before val ok" false
    (has_rule "M1" ~rel:"lib/core/foo.mli"
       "(** Doubles. *)\nval f : int -> int\n");
  Alcotest.(check bool) "mli outside lib ignored" false
    (has_rule "M1" ~rel:"tools/foo.mli" "val f : int -> int\n")

let test_e1_error_prefixes () =
  Alcotest.(check bool) "bare failwith flagged" true
    (has_rule "E1" ~rel:"lib/core/foo.ml" "let f () = failwith \"bad input\"\n");
  Alcotest.(check bool) "prefixed failwith ok" false
    (has_rule "E1" ~rel:"lib/core/foo.ml"
       "let f () = failwith \"Foo.f: bad input\"\n");
  Alcotest.(check bool) "prefixed invalid_arg ok" false
    (has_rule "E1" ~rel:"lib/core/foo.ml"
       "let f () = invalid_arg \"Foo: bad input\"\n");
  Alcotest.(check bool) "outside lib ignored" false
    (has_rule "E1" ~rel:"bin/foo.ml" "let f () = failwith \"bad input\"\n")

let test_o1_console_output () =
  Alcotest.(check bool) "print_endline in lib flagged" true
    (has_rule "O1" ~rel:"lib/core/foo.ml" "let f () = print_endline \"x\"\n");
  Alcotest.(check bool) "prerr_string in lib flagged" true
    (has_rule "O1" ~rel:"lib/core/foo.ml" "let f () = prerr_string \"x\"\n");
  Alcotest.(check bool) "Printf.printf in lib flagged" true
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "let f n = Printf.printf \"%d\" n\n");
  Alcotest.(check bool) "Format.eprintf in lib flagged" true
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "let f n = Format.eprintf \"%d\" n\n");
  Alcotest.(check bool) "Format.std_formatter in lib flagged" true
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "let f () = Format.fprintf Format.std_formatter \"x\"\n");
  Alcotest.(check bool) "Printf.sprintf not flagged" false
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "let f n = Printf.sprintf \"%d\" n\n");
  Alcotest.(check bool) "caller-supplied formatter not flagged" false
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "let pp ppf n = Format.fprintf ppf \"%d\" n\n");
  Alcotest.(check bool) "projection not confused with bare printer" false
    (has_rule "O1" ~rel:"lib/core/foo.ml" "let f x = X.print_endline x\n");
  Alcotest.(check bool) "outside lib ignored" false
    (has_rule "O1" ~rel:"bin/foo.ml" "let f () = print_endline \"x\"\n");
  Alcotest.(check bool) "suppression works" false
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "(* lint: allow O1 *)\nlet f () = print_endline \"x\"\n")

let test_testish_scope () =
  let o1 rel src =
    List.filter (fun d -> d.Diag.rule = "O1") (lint_source ~rel src)
  in
  (match o1 "test/foo.ml" "let f () = print_endline \"x\"\n" with
  | [ d ] ->
      Alcotest.(check bool) "O1 downgraded to warning in test/" true
        (d.Diag.severity = Diag.Warning)
  | ds -> Alcotest.failf "expected one O1, got %d" (List.length ds));
  (match o1 "examples/foo.ml" "let f () = print_endline \"x\"\n" with
  | [ d ] ->
      Alcotest.(check bool) "O1 downgraded to warning in examples/" true
        (d.Diag.severity = Diag.Warning)
  | ds -> Alcotest.failf "expected one O1, got %d" (List.length ds));
  (match lint_source ~rel:"test/foo.mli" "val f : int -> int\n" with
  | [ d ] ->
      Alcotest.(check string) "M1 applies to test .mli" "M1" d.Diag.rule;
      Alcotest.(check bool) "as a warning" true (d.Diag.severity = Diag.Warning)
  | ds -> Alcotest.failf "expected one M1, got %d" (List.length ds))

let test_allow_file () =
  Alcotest.(check bool) "allow-file suppresses anywhere in the file" false
    (has_rule "O1" ~rel:"lib/core/foo.ml"
       "(* lint: allow-file O1 demo *)\nlet pad = 0\nlet f () = print_endline \"x\"\n");
  Alcotest.(check bool) "allow-file is per-rule" true
    (has_rule "D1" ~rel:"lib/core/foo.ml"
       "(* lint: allow-file O1 demo *)\nlet t = Hashtbl.create 16\n");
  Alcotest.(check bool) "why text after the rule id is ignored" false
    (has_rule "D1" ~rel:"lib/core/foo.ml"
       "(* lint: allow D1 wall-clock by design *)\nlet t = Hashtbl.create 16\n")

let test_dune_unix_in_lib () =
  let findings =
    lint_source ~rel:"lib/core/dune"
      "(library (name mppm_core) (libraries unix))\n"
  in
  Alcotest.(check bool) "unix link flagged" true
    (List.exists (fun d -> d.Diag.rule = "D1") findings);
  Alcotest.(check (list string)) "unix as substring not flagged" []
    (List.map
       (fun d -> d.Diag.rule)
       (lint_source ~rel:"lib/core/dune"
          "(library (name mppm_unixish))\n"))

(* Shapes that need resolved paths (a [Stdlib.] prefix, a module alias)
   or the parse tree (a comparison whose result is let-bound). *)
let test_resolved_shapes () =
  let lines rule src =
    List.filter_map
      (fun d -> if d.Diag.rule = rule then Some d.Diag.line else None)
      (lint_source ~rel:"lib/core/foo.ml" src)
  in
  Alcotest.(check (list int)) "Stdlib.Random is D1" [ 1 ]
    (lines "D1" "let x = Stdlib.Random.int 5\n");
  Alcotest.(check (list int)) "Random through a module alias is D1" [ 2 ]
    (lines "D1" "module R = Random\nlet x = R.int 5\n");
  Alcotest.(check (list int)) "let-bound float equality is F1" [ 1 ]
    (lines "F1" "let f x = let eq = x = 0.0 in eq\n");
  Alcotest.(check (list int)) "Stdlib.Printf.printf is O1" [ 1 ]
    (lines "O1" "let f () = Stdlib.Printf.printf \"hi\"\n");
  Alcotest.(check (list int)) "Stdlib.failwith is E1" [ 1 ]
    (lines "E1" "let f () = Stdlib.failwith \"no prefix\"\n")

(* ---- Rule audit ------------------------------------------------------------ *)

(* One row per rule id: fixture files for [Sema.analyze] (with the dune
   files cross-library references need).  A rule may have several rows.
   The F1 and D1 rows on a hot path record the audit of suspected
   overlaps: there F1 co-fires with P2 and D1 with P3, but P2 and P3 fire
   only on hot paths, so the plain rows keep F1 and D1 necessary. *)
let hot src = "(* mppm: hot *)\n" ^ src

let audit_fixtures =
  let leaky =
    "let save x =\n  let oc = open_out \"f.txt\" in\n  output_string oc x;\n\
    \  close_out oc\n"
  in
  let locky =
    "let m = Mutex.create ()\nlet guard f =\n  Mutex.lock m;\n  let r = f () in\n\
    \  Mutex.unlock m;\n  r\n"
  in
  let units mli ml = [ ("lib/demo/u.mli", mli); ("lib/demo/u.ml", ml) ] in
  let lock_dunes =
    [ ("lib/pool/dune", "(name mppm_pool)"); ("lib/obs/dune", "(name mppm_obs)") ]
  in
  [
    ("D1", [], [ ("lib/demo/d.ml", "let h v = Hashtbl.hash v\n") ]);
    ("D1", [], [ ("lib/demo/d.ml", hot "let h v = Hashtbl.hash v\n") ]);
    ("D1", [ ("lib/demo/dune", "(libraries unix)") ], []);
    ("D2", [], [ ("bench/d.ml", "let x = Random.int 5\n") ]);
    ("F1", [], [ ("lib/demo/f.ml", "let f x = if x = 0.5 then 1 else 2\n") ]);
    ("F1", [], [ ("lib/demo/f.ml", hot "let f x = x = 0.5\n") ]);
    ("M1", [], [ ("test/m.mli", "val f : int -> int\n") ]);
    ("E1", [], [ ("lib/demo/e.ml", "let f () = failwith \"bad input\"\n") ]);
    ("O1", [], [ ("lib/demo/o.ml", "let f () = print_endline \"x\"\n") ]);
    ("S1", [], [ ("lib/demo/leaky.ml", leaky) ]);
    ("S2", [], [ ("lib/demo/c.ml", "let r = Mppm_util.Rng.create ~seed:42\n") ]);
    ( "S3",
      [],
      [ ("lib/demo/acc.ml", "let total t = Hashtbl.fold (fun _ v a -> a +. v) t 0.0\n") ]
    );
    ( "S4",
      [],
      [
        ("lib/demo/a.ml", "let used n = n + 1\nlet dead n = n - 1\n");
        ( "lib/demo/a.mli",
          "val used : int -> int\n(** Used. *)\nval dead : int -> int\n(** Dead. *)\n" );
        ("lib/demo/b.ml", "let x = A.used 1\n");
      ] );
    ("S5", [], [ ("lib/demo/locky.ml", locky) ]);
    ( "S6",
      [],
      [
        ( "lib/demo/par.ml",
          "let run pool xs =\n  let hits = ref 0 in\n\
          \  Mppm_pool.Pool.map pool (fun x -> incr hits; x + 1) xs\n" );
      ] );
    ("S7", [], [ ("lib/demo/glob.ml", "let total = ref 0\nlet bump x = total := !total + x\n") ]);
    ( "S8",
      lock_dunes,
      [
        ("lib/pool/pool.ml", "let m = Mutex.create ()\nlet poke () = Mutex.lock m; Mutex.unlock m\n");
        ( "lib/obs/registry.ml",
          "(* lint: allow-file S5 sanctioned registry lock *)\n\
           let m = Mutex.create ()\nlet bad () =\n  Mutex.lock m;\n\
          \  Mppm_pool.Pool.poke ();\n  Mutex.unlock m\n" );
      ] );
    ("P1", [], [ ("lib/demo/h.ml", hot "let f xs = List.map (fun x -> x + 1) xs\n") ]);
    ("P2", [], [ ("lib/demo/h.ml", hot "let f a b = a = b\n") ]);
    ("P3", [], [ ("lib/demo/h.ml", hot "let f h k = Hashtbl.find h k\n") ]);
    ("P4", [], [ ("lib/demo/h.ml", hot "let f acc x = acc := !acc +. x\n") ]);
    ( "U1",
      [],
      units "val cyc : float  (* mppm: unit cycles *)\nval ins : float  (* mppm: unit insns *)\n"
        "let cyc = 1.0\nlet ins = 2.0\nlet bad = cyc +. ins\n" );
    ( "U2",
      [],
      units
        "val total : float  (* mppm: unit cumulative accesses *)\n\
         val total2 : float  (* mppm: unit cumulative accesses *)\n"
        "let total = 100.0\nlet total2 = 160.0\nlet worse = total +. total2\n" );
    ( "U3",
      [],
      units
        "val cpi : float  (* mppm: unit cycles/insns *)\n\
         val ipc : float  (* mppm: unit insns/cycles *)\n"
        "let cpi = 2.0\nlet ipc = 0.5\nlet bad = cpi +. ipc\n" );
  ]

let audit_findings (dunes, files) =
  match
    Sema.analyze ~dunes
      (List.map (fun (rel, content) -> { Sema.rel; content }) files)
  with
  | Ok report -> report.Sema.diags
  | Error _ -> Alcotest.fail "audit fixture does not parse"

let test_rule_audit () =
  List.iter
    (fun id ->
      let rows = List.filter (fun (r, _, _) -> r = id) audit_fixtures in
      if rows = [] then Alcotest.failf "rule %s has no audit fixture" id;
      (* Every row fires its rule; a rule is redundant when each of its
         findings shares a file and line with another rule's finding. *)
      let alone =
        List.exists
          (fun (_, dunes, files) ->
            let diags = audit_findings (dunes, files) in
            let mine = List.filter (fun d -> d.Diag.rule = id) diags in
            if mine = [] then Alcotest.failf "rule %s does not fire" id;
            List.exists
              (fun d ->
                not
                  (List.exists
                     (fun o ->
                       o.Diag.rule <> id && o.Diag.file = d.Diag.file
                       && o.Diag.line = d.Diag.line)
                     diags))
              mine)
          rows
      in
      if not alone then
        Alcotest.failf "rule %s only fires where another rule does" id)
    Mppm_lint.Rule_info.all_ids;
  (* The recorded overlaps, on hot paths only. *)
  let rules_at line files =
    audit_findings ([], files)
    |> List.filter (fun d -> d.Diag.line = line)
    |> List.map (fun d -> d.Diag.rule)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "hot float equality is F1 and P2"
    [ "F1"; "P2" ]
    (rules_at 2 [ ("lib/demo/f.ml", hot "let f x = x = 0.5\n") ]);
  Alcotest.(check (list string)) "hot Hashtbl.hash is D1 and P3" [ "D1"; "P3" ]
    (rules_at 2 [ ("lib/demo/d.ml", hot "let h v = Hashtbl.hash v\n") ])

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_diag_render () =
  let d =
    {
      Diag.file = "lib/a.ml";
      line = 3;
      rule = "D1";
      severity = Diag.Error;
      message = "a \"quoted\" message";
    }
  in
  Alcotest.(check string) "text form" "lib/a.ml:3: [D1] error: a \"quoted\" message"
    (Diag.to_text d);
  let json = Diag.list_to_json [ d ] in
  Alcotest.(check bool) "json escapes quotes" true
    (contains json "a \\\"quoted\\\" message");
  Alcotest.(check bool) "json carries line" true (contains json "\"line\":3")

(* ---- qcheck properties --------------------------------------------------- *)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"lexer/linter total on arbitrary input" ~count:500
      QCheck.(string)
      (fun s ->
        ignore (Sema.lint_source ~rel:"lib/x/y.ml" s);
        ignore (Sema.lint_source ~rel:"lib/x/y.mli" s);
        true);
    QCheck.Test.make ~name:"F1 fires once per generated comparison" ~count:200
      QCheck.(pair (int_range 0 999) (int_range 0 99))
      (fun (a, b) ->
        let lit = Printf.sprintf "%d.%d" a b in
        let src = Printf.sprintf "let f x = if x = %s then 1 else 2\n" lit in
        let hits =
          List.filter
            (fun d -> d.Diag.rule = "F1")
            (lint_source ~rel:"lib/x/y.ml" src)
        in
        List.length hits = 1);
    QCheck.Test.make ~name:"F1 suppressed by allow comment" ~count:200
      QCheck.(pair (int_range 0 999) (int_range 0 99))
      (fun (a, b) ->
        let lit = Printf.sprintf "%d.%d" a b in
        let src =
          Printf.sprintf
            "let f x = if x = %s then 1 else 2 (* lint: allow F1 *)\n" lit
        in
        not (has_rule "F1" ~rel:"lib/x/y.ml" src));
  ]

(* ---- Runtime sanitizer ---------------------------------------------------- *)

let canonical_mix = Mix.of_names [| "gamess"; "gamess"; "hmmer"; "soplex" |]
let tiny_scale = Scale.of_trace 100_000

let test_invariant_counters () =
  Invariant.reset ();
  Invariant.set_enabled true;
  Invariant.check "test.pass" true;
  Invariant.check "test.fail" false;
  Invariant.checkf "test.detail" false (fun () -> "x = 42");
  Alcotest.(check int) "checks counted" 3 (Invariant.checks_run ());
  Alcotest.(check int) "violations counted" 2 (Invariant.violations ());
  Alcotest.(check bool) "report names the invariant" true
    (contains (Invariant.report ()) "test.fail");
  Alcotest.(check bool) "report carries the detail" true
    (contains (Invariant.report ()) "x = 42");
  Invariant.set_enabled false;
  Invariant.check "test.disabled" false;
  Alcotest.(check int) "disabled checks are no-ops" 2 (Invariant.violations ());
  Invariant.reset ();
  Alcotest.(check int) "reset clears" 0 (Invariant.checks_run ())

(* The canonical mix, predicted and detail-simulated with the sanitizer on:
   zero violations, and the prediction is bit-for-bit what it is with the
   sanitizer off. *)
let test_sanitizer_smoke () =
  let baseline =
    Suite_experiments.with_ctx @@ fun ctx ->
    Context.predict ctx ~llc_config:1 canonical_mix
  in
  Invariant.reset ();
  Invariant.set_enabled true;
  let sanitized, measured =
    Suite_experiments.with_ctx @@ fun ctx ->
    let p = Context.predict ctx ~llc_config:1 canonical_mix in
    let m = Context.detailed ctx ~llc_config:1 canonical_mix in
    (p, m)
  in
  Invariant.set_enabled false;
  Alcotest.(check bool) "checkpoints exercised" true (Invariant.checks_run () > 0);
  Alcotest.(check int) "zero violations" 0 (Invariant.violations ());
  ignore measured;
  let bits = Int64.bits_of_float in
  let check_bitwise name a b =
    Alcotest.(check int64) name (bits a) (bits b)
  in
  check_bitwise "stp bit-for-bit" baseline.Model.stp sanitized.Model.stp;
  check_bitwise "antt bit-for-bit" baseline.Model.antt sanitized.Model.antt;
  Array.iteri
    (fun i p ->
      let q = sanitized.Model.programs.(i) in
      check_bitwise
        (Printf.sprintf "slowdown %d bit-for-bit" i)
        p.Model.slowdown q.Model.slowdown)
    baseline.Model.programs

(* ---- Fingerprint and cache paths ------------------------------------------ *)

let test_fingerprint_golden () =
  (* Golden FNV-1a 64 values: pin the algorithm so cache filenames stay
     stable across runs and refactors. *)
  Alcotest.(check string) "empty" "cbf29ce484222325"
    (Fingerprint.to_hex Fingerprint.empty);
  Alcotest.(check string) "\"a\"" "af63dc4c8601ec8c"
    (Fingerprint.to_hex (Fingerprint.of_string "a"));
  Alcotest.(check string) "\"foobar\"" "85944171f73967e8"
    (Fingerprint.to_hex (Fingerprint.of_string "foobar"))

let test_fingerprint_separation () =
  let h a b =
    Fingerprint.to_hex (Fingerprint.add_string (Fingerprint.of_string a) b)
  in
  Alcotest.(check string) "add_string is a plain byte fold" (h "ab" "c") (h "a" "bc");
  Alcotest.(check bool) "of_value distinguishes values" true
    (Fingerprint.of_value (1, "x") <> Fingerprint.of_value (2, "x"));
  Alcotest.(check bool) "of_value is stable" true
    (Fingerprint.of_value (1, "x") = Fingerprint.of_value (1, "x"))

let test_cache_path_digest () =
  let dir = Filename.get_temp_dir_name () in
  let ctx1 = Context.create ~seed:7 ~cache_dir:dir tiny_scale in
  let ctx2 = Context.create ~seed:7 ~cache_dir:dir tiny_scale in
  let path ctx = Context.cache_path ctx ~llc_config:1 0 in
  Alcotest.(check string) "same parameters, same path" (path ctx1) (path ctx2);
  Alcotest.(check bool) "benchmark name in path" true
    (contains (path ctx1) Mppm_trace.Suite.names.(0));
  Alcotest.(check bool) "different LLC config, different path" true
    (path ctx1 <> Context.cache_path ctx1 ~llc_config:2 0);
  let channel = Context.create ~bandwidth:16.0 ~seed:7 ~cache_dir:dir tiny_scale in
  Alcotest.(check bool) "different bandwidth, different path" true
    (path ctx1 <> path channel)

let tests =
  [
    ( "lint.tree",
      [ Alcotest.test_case "repository is lint-clean" `Quick test_tree_is_clean ] );
    ( "lint.rules",
      [
        Alcotest.test_case "D1 random" `Quick test_d1_random;
        Alcotest.test_case "D1 wall clock and hash" `Quick test_d1_wall_clock_and_hash;
        Alcotest.test_case "D2 random outside lib" `Quick test_d2_random_outside_lib;
        Alcotest.test_case "F1 float equality" `Quick test_f1_float_equality;
        Alcotest.test_case "M1 mli docs" `Quick test_m1_mli_docs;
        Alcotest.test_case "E1 error prefixes" `Quick test_e1_error_prefixes;
        Alcotest.test_case "O1 console output" `Quick test_o1_console_output;
        Alcotest.test_case "testish scope downgrades" `Quick test_testish_scope;
        Alcotest.test_case "allow-file suppression" `Quick test_allow_file;
        Alcotest.test_case "dune unix in lib" `Quick test_dune_unix_in_lib;
        Alcotest.test_case "diagnostic rendering" `Quick test_diag_render;
        Alcotest.test_case "resolved paths and bindings" `Quick
          test_resolved_shapes;
      ] );
    ("lint.audit", [ Alcotest.test_case "every rule fires alone" `Quick test_rule_audit ]);
    ("lint.properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ( "lint.sanitizer",
      [
        Alcotest.test_case "counters" `Quick test_invariant_counters;
        Alcotest.test_case "canonical mix smoke" `Slow test_sanitizer_smoke;
      ] );
    ( "lint.fingerprint",
      [
        Alcotest.test_case "golden FNV values" `Quick test_fingerprint_golden;
        Alcotest.test_case "separation" `Quick test_fingerprint_separation;
        Alcotest.test_case "cache path digest" `Quick test_cache_path_digest;
      ] );
  ]
