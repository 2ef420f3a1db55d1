(* benchdiff: compare two bench/perf results, each the last stdout line
   of [perf.exe --workload all]: one JSON object mapping every workload
   to its result line {"correct", "attempted", "failed", "metrics"}.

   End-to-end metrics gate on the [better] and [bound] BENCHMARK.json
   declares for them (the file is found by walking up from the working
   directory); per-layer metrics are printed with their ratio and never
   gate.  Exit codes: 0 = no problem (or --warn-only), 1 = a problem,
   2 = unreadable or malformed input. *)

exception Bad_input of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_input m)) fmt

let read_json path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> bad "%s" msg
  in
  match Json.parse text with Ok j -> j | Error e -> bad "%s: %s" path e

let rec find_upward dir file =
  let p = Filename.concat dir file in
  if Sys.file_exists p then p
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then
      bad "%s not found above the working directory" file
    else find_upward parent file

let fields what = function
  | Some (Json.Obj kvs) -> kvs
  | _ -> bad "%s: not an object" what

let num what = function
  | Some (Json.Num f) -> f
  | _ -> bad "%s: not a number" what

(* Each end-to-end metric's name, whether lower is better, and its bound
   as a fraction of the baseline. *)
let bounds spec =
  Json.to_list (Option.value (Json.member "end_to_end" spec) ~default:Json.Null)
  |> List.map (fun m ->
         match (Json.member "name" m, Json.member "better" m) with
         | Some (Json.Str name), Some (Json.Str better) ->
             ( name,
               (String.equal better "lower", num name (Json.member "bound" m))
             )
         | _ -> bad "BENCHMARK.json: malformed end_to_end entry")

let failed_share w r =
  let attempted = num (w ^ " attempted") (Json.member "attempted" r) in
  if attempted > 0.0 then
    num (w ^ " failed") (Json.member "failed" r) /. attempted
  else 0.0

(* One row per baseline metric: prints it and returns its problem, if
   it is an end-to-end metric beyond its bound or missing. *)
let compare_metric bounds w cur_metrics (name, m) =
  let what = w ^ " " ^ name in
  let b = num what (Json.member "value" m) in
  match List.assoc_opt name cur_metrics with
  | None -> Some (what ^ ": missing from the current result")
  | Some m ->
      let c = num what (Json.member "value" m) in
      let bound, problem =
        match List.assoc_opt name bounds with
        | None -> ("", None)
        | Some (lower, bound) ->
            let worse = (if lower then c -. b else b -. c) /. b in
            ( Printf.sprintf "%.2f" bound,
              if worse > bound then
                Some
                  (Printf.sprintf
                     "%s: %.1f%% worse than the baseline (bound %.0f%%)" what
                     (100.0 *. worse) (100.0 *. bound))
              else None )
      in
      Printf.printf "%-14s %-34s %12.6g %12.6g %7.3f %5s%s\n" w name b c
        (c /. b) bound
        (if Option.is_some problem then "  WORSE" else "");
      problem

let compare_workload bounds current (w, base) =
  match List.assoc_opt w current with
  | None -> [ w ^ ": missing from the current result" ]
  | Some cur ->
      let metrics r = fields (w ^ " metrics") (Json.member "metrics" r) in
      let rows =
        List.filter_map
          (compare_metric bounds w (metrics cur))
          (metrics base)
      in
      (match Json.member "correct" cur with
      | Some (Json.Bool true) -> []
      | Some (Json.Bool false) -> [ w ^ ": \"correct\": false" ]
      | _ -> bad "%s correct: not a boolean" w)
      @ (if failed_share w cur > failed_share w base then
           [ w ^ ": a larger share of checks failed than in the baseline" ]
         else [])
      @ rows

let run warn_only baseline current =
  match
    let spec = read_json (find_upward (Sys.getcwd ()) "BENCHMARK.json") in
    let base = fields baseline (Some (read_json baseline)) in
    let cur = fields current (Some (read_json current)) in
    Printf.printf "%-14s %-34s %12s %12s %7s %5s\n" "workload" "metric"
      "baseline" "current" "ratio" "bound";
    List.concat_map (compare_workload (bounds spec) cur) base
  with
  | exception Bad_input msg ->
      prerr_endline ("benchdiff: " ^ msg);
      2
  | [] ->
      print_endline "benchdiff: no problem";
      0
  | problems ->
      List.iter (fun p -> print_endline ("benchdiff: " ^ p)) problems;
      if warn_only then 0 else 1

open Cmdliner

let file n docv doc =
  Arg.(required & pos n (some string) None & info [] ~docv ~doc)

let warn_only =
  Arg.(
    value & flag
    & info [ "warn-only" ] ~doc:"Report problems but exit 0 (CI advisory).")

let cmd =
  Cmd.v
    (Cmd.info "benchdiff"
       ~doc:"Compare two bench/perf results against BENCHMARK.json's bounds."
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"no problem (or --warn-only)";
           Cmd.Exit.info 1
             ~doc:
               "an end-to-end metric beyond its bound, a missing workload \
                or metric, an incorrect result, or a larger failed share";
           Cmd.Exit.info 2 ~doc:"unreadable or malformed input";
         ])
    Term.(
      const run $ warn_only
      $ file 0 "BASELINE" "Baseline result (e.g. BENCH_perf.json)."
      $ file 1 "CURRENT" "Current result: perf.exe --workload all's last line.")

let () = exit (Cmd.eval' cmd)
