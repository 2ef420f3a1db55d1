(* SARIF 2.1.0 rendering of a diagnostic stream.

   The output is deterministic (rule order fixed by Rule_info.all, results
   in Diag.compare order, two-space indentation) so it can be golden-tested
   and diffed across runs.  Only the subset of the schema that GitHub code
   scanning consumes is emitted: tool.driver with a rules table, and one
   result per finding with ruleId/ruleIndex/level/message/locations. *)

let schema_uri = "https://json.schemastore.org/sarif-2.1.0.json"
let tool_name = "mppm-lint"
let tool_version = "2.0.0"

let esc = Diag.json_escape

let rule_to_json r =
  Printf.sprintf
    "{\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"}}"
    (esc r.Rule_info.id)
    (esc r.Rule_info.summary)

let level_of = function Diag.Error -> "error" | Diag.Warning -> "warning"

let rule_index rule =
  let rec go i = function
    | [] -> -1
    | r :: rest -> if r.Rule_info.id = rule then i else go (i + 1) rest
  in
  go 0 Rule_info.all

let result_to_json d =
  Printf.sprintf
    "{\"ruleId\":\"%s\",\"ruleIndex\":%d,\"level\":\"%s\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\",\"uriBaseId\":\"%%SRCROOT%%\"},\"region\":{\"startLine\":%d}}}]}"
    (esc d.Diag.rule) (rule_index d.Diag.rule)
    (level_of d.Diag.severity)
    (esc d.Diag.message) (esc d.Diag.file) d.Diag.line

let render diags =
  let diags = List.sort Diag.compare diags in
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add "{\n";
  add (Printf.sprintf "  \"$schema\": \"%s\",\n" schema_uri);
  add "  \"version\": \"2.1.0\",\n";
  add "  \"runs\": [\n";
  add "    {\n";
  add "      \"tool\": {\n";
  add "        \"driver\": {\n";
  add (Printf.sprintf "          \"name\": \"%s\",\n" tool_name);
  add (Printf.sprintf "          \"version\": \"%s\",\n" tool_version);
  add "          \"rules\": [\n";
  List.iteri
    (fun i r ->
      add "            ";
      add (rule_to_json r);
      if i < List.length Rule_info.all - 1 then add ",";
      add "\n")
    Rule_info.all;
  add "          ]\n";
  add "        }\n";
  add "      },\n";
  add "      \"results\": [\n";
  List.iteri
    (fun i d ->
      add "        ";
      add (result_to_json d);
      if i < List.length diags - 1 then add ",";
      add "\n")
    diags;
  add "      ]\n";
  add "    }\n";
  add "  ]\n";
  add "}\n";
  Buffer.contents buf
