(* perf.exe: the repository benchmark (README.md, BENCHMARK.json).

   [perf.exe --workload NAME --seed N --seconds S --trace 0|1] runs one
   named workload against a fresh profile cache, checks its outputs, and
   prints every metric by name and unit; the last line of standard output
   is one JSON object:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   holding the end-to-end metrics untraced and the per-layer metrics
   traced.  [--workload all] runs each workload in its own process;
   [--smoke] shrinks every input for the dune smoke test. *)

let workloads = [ "fig4-quick"; "rank-500"; "serve-predict"; "partition-bw" ]

(* ---- one workload, in this process --------------------------------------- *)

let run_one name (o : Run.options) =
  let spans = Spans.create ~on:o.traced in
  let r =
    Spans.within spans name (fun _ ->
        match name with
        | "fig4-quick" | "partition-bw" -> Sim_load.run ~workload:name o spans
        | "rank-500" -> Rank_load.run o spans
        | "serve-predict" -> Serve_load.run o spans
        | _ -> invalid_arg ("perf: unknown workload " ^ name))
  in
  let layers =
    if o.traced then r.Run.layers @ Layers.replay o r.Run.ctx r.Run.mixes
    else []
  in
  (r, layers, spans)

let metric_json units (name, v) =
  (name, Json.obj [ ("value", Json.number v); ("unit", Json.quote (List.assoc name units)) ])

let result_line (r : Run.result) metrics units =
  Json.obj
    [
      ("correct", string_of_bool (r.Run.checks.Run.failed = 0));
      ("attempted", string_of_int r.Run.checks.Run.attempted);
      ("failed", string_of_int r.Run.checks.Run.failed);
      ("metrics", Json.obj (List.map (metric_json units) metrics));
    ]

let report ~name (o : Run.options) ~json =
  let r, layers, spans = run_one name o in
  let metrics, units =
    if o.traced then (layers, List.map (fun (n, _) -> (n, Layers.unit_of n)) layers)
    else (r.Run.end_to_end, Run.end_to_end_units)
  in
  Printf.printf "workload %s seed %d trace %d\n" name o.seed (if o.traced then 1 else 0);
  List.iter
    (fun (n, v) -> Printf.printf "  %-36s %14.6g %s\n" n v (List.assoc n units))
    metrics;
  List.iter (fun (n, v) -> Printf.printf "  (detail) %-27s %14.6g\n" n v) r.Run.details;
  Printf.printf "checks: %d attempted, %d failed\n" r.Run.checks.Run.attempted
    r.Run.checks.Run.failed;
  Printf.printf "digest %s\n" r.Run.digest;
  (match json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc
            (Json.obj
               [
                 ("workload", Json.quote name);
                 ("seed", string_of_int o.seed);
                 ("seconds", Json.number o.seconds);
                 ("trace", string_of_bool o.traced);
                 ("digest", Json.quote r.Run.digest);
                 ("result", result_line r metrics units);
                 ("details", Json.obj (List.map (fun (n, v) -> (n, Json.number v)) r.Run.details));
               ]
            ^ "\n"));
      if o.traced then Spans.write_chrome spans (Filename.remove_extension path ^ ".trace.json"));
  print_endline (result_line r metrics units);
  r

(* ---- child processes ----------------------------------------------------- *)

(* Starts perf.exe with [args]; [finish] waits for it and returns its exit
   status and stdout lines. *)
let start args =
  Unix.open_process_args_in Sys.executable_name
    (Array.of_list (Sys.executable_name :: args))

let finish ic =
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  (Unix.close_process_in ic, out)

let child args = finish (start args)

let last = function [] -> "" | l -> List.nth l (List.length l - 1)

(* ---- the smoke test ------------------------------------------------------ *)

let rec find_upward dir file =
  let p = Filename.concat dir file in
  if Sys.file_exists p then Some p
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then None else find_upward parent file

let smoke () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  let spec =
    match find_upward (Sys.getcwd ()) "BENCHMARK.json" with
    | None -> failwith "perf: BENCHMARK.json not found above the working directory"
    | Some p -> (
        let ic = open_in_bin p in
        let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
        match Json.parse text with Ok j -> j | Error e -> failwith ("perf: BENCHMARK.json: " ^ e))
  in
  let names key =
    List.filter_map
      (fun m -> Option.bind (Json.member "name" m) Json.to_string_opt)
      (Json.to_list (Option.value (Json.member key spec) ~default:Json.Null))
  in
  if names "workloads" <> workloads then problem "BENCHMARK.json workloads differ from perf.exe's";
  List.iter
    (fun w ->
      (* Both modes at once: the host has two cores. *)
      let runs =
        List.map
          (fun trace ->
            ( trace,
              start
                [ "--smoke"; "--workload"; w; "--seed"; "42"; "--seconds"; "0.2";
                  "--trace"; trace ] ))
          [ "0"; "1" ]
      in
      let digests =
        List.map
          (fun (trace, ic) ->
            let status, out = finish ic in
            if status <> Unix.WEXITED 0 then problem "%s trace %s: exit status" w trace;
            (match Json.parse (last out) with
            | Error e -> problem "%s trace %s: result line: %s" w trace e
            | Ok j ->
                let get k = Json.member k j in
                if get "correct" <> Some (Json.Bool true) || get "failed" <> Some (Json.Num 0.0)
                then problem "%s trace %s: outputs failed their checks" w trace;
                let reported =
                  match get "metrics" with Some (Json.Obj kvs) -> List.map fst kvs | _ -> []
                in
                let declared = names (if trace = "0" then "end_to_end" else "per_layer") in
                if List.sort compare reported <> List.sort compare declared then
                  problem "%s trace %s: metrics [%s] differ from BENCHMARK.json's [%s]" w trace
                    (String.concat " " reported) (String.concat " " declared));
            List.find_opt (String.starts_with ~prefix:"digest ") out)
          runs
      in
      match digests with
      | [ Some a; Some b ] when String.equal a b -> ()
      | _ -> problem "%s: traced and untraced output digests differ" w)
    workloads;
  match !problems with
  | [] -> print_endline "perf smoke: ok"
  | ps ->
      List.iter (fun p -> prerr_endline ("perf smoke: " ^ p)) (List.rev ps);
      exit 1

(* ---- command line -------------------------------------------------------- *)

let main workload seed seconds trace json smoke_sizes write_expected =
  if trace <> 0 && trace <> 1 then failwith "perf: --trace takes 0 or 1";
  match workload with
  | "all" when smoke_sizes -> smoke ()
  | "all" ->
      let results =
        List.map
          (fun w ->
            let status, out =
              child
                [ "--workload"; w; "--seed"; string_of_int seed; "--seconds";
                  Printf.sprintf "%g" seconds; "--trace"; string_of_int trace ]
            in
            List.iter print_endline out;
            if status <> Unix.WEXITED 0 then failwith ("perf: workload " ^ w ^ " did not finish");
            (w, last out))
          workloads
      in
      print_endline (Json.obj results)
  | name when List.mem name workloads ->
      (* One directory per run, no shared parent: the smoke test runs two
         at once. *)
      let tmp = Printf.sprintf "_perf_tmp-%s-%d" name (Unix.getpid ()) in
      Run.mkdir_p tmp;
      let o = { Run.seed; seconds; traced = trace = 1; smoke = smoke_sizes; tmp } in
      Fun.protect
        ~finally:(fun () -> Run.rm_rf tmp)
        (fun () ->
          let r = report ~name o ~json in
          if write_expected && r.Run.expected_rows <> [] then
            Expected.save ~workload:name ~seed
              ~header:
                (Printf.sprintf "%s seed %d, %d-instruction traces" name seed
                   (Run.trace_instructions o))
              r.Run.expected_rows)
  | name ->
      failwith
        (Printf.sprintf "perf: unknown workload %S (one of %s, all)" name
           (String.concat ", " workloads))

open Cmdliner

let cmd =
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"fig4-quick, rank-500, serve-predict, partition-bw, or all.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Seed of the workload's inputs.") in
  let seconds =
    Arg.(
      value & opt float 14.0
      & info [ "seconds" ] ~doc:"Measurement budget in seconds (set-up excluded).")
  in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1 records spans and reports the per-layer metrics instead of the end-to-end ones.")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write a report to FILE (and, traced, a Chrome trace next to it).")
  in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:"Toy input sizes; with --workload all, the smoke test against BENCHMARK.json.")
  in
  let write_expected =
    Arg.(
      value & flag
      & info [ "write-expected" ]
          ~doc:"Write this seed's outputs to bench/perf/expected/ for later runs to check.")
  in
  Cmd.v
    (Cmd.info "perf" ~doc:"Run one benchmark workload and print its metrics.")
    Term.(const main $ workload $ seed $ seconds $ trace $ json $ smoke $ write_expected)

let () =
  try exit (Cmd.eval ~catch:false cmd) with
  | Failure msg | Sys_error msg | Invalid_argument msg ->
      prerr_endline msg;
      exit 2
  | Unix.Unix_error (err, fn, arg) ->
      prerr_endline (Printf.sprintf "perf: %s %s: %s" fn arg (Unix.error_message err));
      exit 2
