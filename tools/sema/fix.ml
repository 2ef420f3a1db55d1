(* Autofixes for the mechanical rules (--fix):

   - D1's [Hashtbl.create] form: insert [~random:false] after the call.
   - E1: prefix the [failwith]/[invalid_arg] string literal with the
     module name.

   Fixes are driven by re-linting, so suppressed findings are never
   rewritten, and a pass is repeated until the file re-lints clean of the
   fixable shapes (bounded, in case a line resists fixing).  A file that
   does not parse is left alone. *)

module Diag = Mppm_lint.Diag

let substr_index_from line start needle =
  let n = String.length needle and h = String.length line in
  let rec go i =
    if i + n > h then None
    else if String.sub line i n = needle then Some i
    else go (i + 1)
  in
  go start

(* Insert [" ~random:false"] after every [Hashtbl.create] on the line that
   is not already followed by a [~random] label. *)
let fix_hashtbl_create line =
  let needle = "Hashtbl.create" in
  let buf = Buffer.create (String.length line + 16) in
  let rec go pos =
    match substr_index_from line pos needle with
    | None -> Buffer.add_string buf (String.sub line pos (String.length line - pos))
    | Some i ->
        let stop = i + String.length needle in
        Buffer.add_string buf (String.sub line pos (stop - pos));
        let rec skip_spaces j =
          if j < String.length line && line.[j] = ' ' then skip_spaces (j + 1)
          else j
        in
        let j = skip_spaces stop in
        let already =
          j + 7 <= String.length line && String.sub line j 7 = "~random"
        in
        if not already then Buffer.add_string buf " ~random:false";
        go stop
  in
  go 0;
  Buffer.contents buf

(* Insert ["Module: "] after the opening quote of the first
   [failwith "..."] / [invalid_arg "..."] on the line. *)
let fix_error_prefix ~module_name line =
  let try_fn fn =
    match substr_index_from line 0 fn with
    | None -> None
    | Some i -> (
        match substr_index_from line (i + String.length fn) "\"" with
        | None -> None
        | Some q ->
            Some
              (String.sub line 0 (q + 1)
              ^ module_name ^ ": "
              ^ String.sub line (q + 1) (String.length line - q - 1)))
  in
  match try_fn "failwith" with
  | Some fixed -> Some fixed
  | None -> try_fn "invalid_arg"

let is_fixable d =
  match d.Diag.rule with
  | "E1" -> true
  | "D1" ->
      (* Only the Hashtbl.create form of D1 is mechanical. *)
      let msg = d.Diag.message in
      let rec contains i =
        i + 13 <= String.length msg
        && (String.sub msg i 13 = "~random:false" || contains (i + 1))
      in
      contains 0
  | _ -> false

let apply_once ~rel content =
  let diags =
    match Sema.lint_source ~rel content with
    | Ok diags -> List.filter is_fixable diags
    | Error _ -> []
  in
  if diags = [] then (content, 0)
  else
    let module_name =
      String.capitalize_ascii
        (Filename.remove_extension (Filename.basename rel))
    in
    let lines = Array.of_list (String.split_on_char '\n' content) in
    let applied = ref 0 in
    List.iter
      (fun d ->
        let idx = d.Diag.line - 1 in
        if idx >= 0 && idx < Array.length lines then begin
          let line = lines.(idx) in
          let fixed =
            match d.Diag.rule with
            | "D1" -> Some (fix_hashtbl_create line)
            | "E1" -> fix_error_prefix ~module_name line
            | _ -> None
          in
          match fixed with
          | Some f when f <> line ->
              lines.(idx) <- f;
              incr applied
          | _ -> ()
        end)
      diags;
    (String.concat "\n" (Array.to_list lines), !applied)

let fix_source ~rel content =
  let rec go content total pass =
    if pass >= 5 then (content, total)
    else
      let content', n = apply_once ~rel content in
      if n = 0 then (content', total) else go content' (total + n) (pass + 1)
  in
  go content 0 0

let fix_tree ~root =
  Sema.collect_tree ~root
  |> List.filter_map (fun rel ->
         if not (Filename.check_suffix rel ".ml") then None
         else
           let path = Filename.concat root rel in
           let content = Sema.read_file path in
           let fixed, n = fix_source ~rel content in
           if n = 0 then None
           else begin
             let oc = open_out_bin path in
             Fun.protect
               ~finally:(fun () -> close_out_noerr oc)
               (fun () -> output_string oc fixed);
             Some (rel, n)
           end)
