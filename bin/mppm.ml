(* The mppm command-line tool.

   Subcommands:
     suite                list the synthetic benchmark suite
     profile              run single-core profiling for benchmarks
     predict              MPPM-predict a mix from profiles
     simulate             detailed multi-core simulation of a mix
     compare              predict + simulate + error report for a mix
     population           combinatorics of the mix population
     rank                 rank the six LLC configs with MPPM
     categories           classify the suite into MEM/COMP categories
     cache                profile-cache statistics and pruning
     trace-stats          replay a benchmark's LLC-bound references
                          through an LLC of any geometry
     trace-report         render a recorded model event trace
     client               send queries to a running mppmd daemon

   Every subcommand shares the scale/seed/cache options, so a profile
   computed once (or by the bench harness) is reused everywhere.

   Mix parsing, output rendering and the predict/compare/rank handlers
   live in Mppm_serve.Dispatch, shared with the mppmd daemon — which is
   why daemon responses are byte-identical to this CLI's output.

   This file owns all trace *file* writers (JSONL and Chrome trace JSON):
   lib/obs only serializes events to strings, so the model core never
   touches an output channel. *)

module Suite = Mppm_trace.Suite
module Benchmark = Mppm_trace.Benchmark
module Profile = Mppm_profile.Profile
module Model = Mppm_core.Model
module Metrics = Mppm_core.Metrics
module Mix = Mppm_workload.Mix
module Pool = Mppm_pool.Pool
module Wire = Mppm_serve.Wire
module Dispatch = Mppm_serve.Dispatch
open Mppm_experiments

let std = Format.std_formatter

(* ---- shared options ------------------------------------------------ *)

type common = { ctx : Context.t; llc_config : int }

open Cmdliner

(* --length/--seed/--cache: the context every subcommand but the wire
   client runs in. *)
let context_term =
  let trace =
    Arg.(
      value & opt int 2_000_000
      & info [ "length" ] ~doc:"Trace length in instructions.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Master random seed.")
  in
  let cache_dir =
    Arg.(
      value
      & opt string "_profile_cache"
      & info [ "cache" ] ~doc:"Profile cache directory.")
  in
  let create trace seed cache_dir =
    Context.create ~seed ~cache_dir (Scale.of_trace trace)
  in
  Term.(const create $ trace $ seed $ cache_dir)

let common_term =
  let llc_config =
    Arg.(
      value & opt int 1
      & info [ "config" ] ~doc:"LLC configuration, 1..6 (Table 2).")
  in
  Term.(const (fun ctx llc_config -> { ctx; llc_config })
        $ context_term $ llc_config)

let mix_arg =
  Arg.(
    non_empty
    & pos_all string []
    & info [] ~docv:"BENCHMARK"
        ~doc:
          "Benchmark names forming the mix (repeat a name for copies).  If \
           any argument contains a comma, each argument is its own \
           comma-separated mix and they are evaluated as a batch (see \
           --jobs).")

(* Comma semantics and validation live in Dispatch.parse_mixes; here a
   bad mix is a fatal CLI error (one stderr line, exit 2). *)
let parse_mixes names =
  match Dispatch.parse_mixes names with
  | Result.Ok mixes -> mixes
  | Result.Error (_, msg) -> failwith msg

let bench_index name =
  match Suite.index name with
  | i -> i
  | exception Not_found ->
      failwith
        (Printf.sprintf
           "Mppm.bench_index: unknown benchmark %S (run 'mppm suite' for \
            the 29 names)"
           name)

let jobs_term =
  Arg.(
    value & opt int 0
    & info [ "jobs" ]
        ~doc:
          "Worker domains when several mixes are given (0 = \
           Domain.recommended_domain_count).  Results and traces are \
           bit-for-bit identical for any value.")

(* ---- trace output -------------------------------------------------- *)

module Obs_event = Mppm_obs.Event
module Obs_trace = Mppm_obs.Trace
module Render = Mppm_obs.Render
module Registry = Mppm_obs.Registry

let trace_term =
  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write the model's event trace to $(docv).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
      & info [ "trace-format" ] ~docv:"FORMAT"
          ~doc:"Trace file format: $(b,jsonl) (default) or $(b,chrome).")
  in
  Term.(const (fun file format -> (file, format)) $ file $ format)

(* Evaluate [f ~obs mix] for every mix on a domain pool.  Each task
   collects its trace events in a per-mix buffer; after the batch the
   buffers are concatenated in mix order and rendered to the --trace file
   in one write (JSONL is one event per line; Chrome trace JSON is one
   array usable directly in chrome://tracing / Perfetto), so the file is
   byte-identical to a sequential run's regardless of --jobs.  A single
   mix skips the extra domains entirely. *)
let eval_mixes trace jobs mixes f =
  let mixes = Array.of_list mixes in
  let jobs =
    if Array.length mixes = 1 then 1
    else if jobs <= 0 then Pool.default_jobs ()
    else jobs
  in
  let tracing = fst trace <> None in
  let outcomes =
    Pool.with_pool ~jobs @@ fun pool ->
    Pool.map pool
      (fun mix ->
        if tracing then begin
          let obs, events = Obs_trace.memory () in
          let r = f ~obs mix in
          (r, events ())
        end
        else (f ~obs:Obs_trace.null mix, []))
      mixes
  in
  (match fst trace with
  | None -> ()
  | Some path ->
      let render =
        match snd trace with
        | `Jsonl -> Render.jsonl ()
        | `Chrome -> Render.chrome ()
      in
      let events = List.concat_map snd (Array.to_list outcomes) in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Render.to_string render events)));
  Array.map fst outcomes

let verbose_term =
  Arg.(
    value & flag
    & info [ "verbose" ]
        ~doc:"Also print profile-cache statistics for this run.")

let pp_cache_counters () =
  let v name = Registry.get ("profile_cache." ^ name) in
  Format.fprintf std
    "profile cache: %.0f disk hits, %.0f memo hits, %.0f misses, %.0f stale \
     entries seen@."
    (v "hits") (v "memo_hits") (v "misses") (v "stale")

(* ---- suite --------------------------------------------------------- *)

let suite_cmd =
  let run () =
    Array.iter
      (fun b -> Format.fprintf std "%a@." Benchmark.pp b)
      Suite.all
  in
  Cmd.v (Cmd.info "suite" ~doc:"List the synthetic benchmark suite.")
    Term.(const run $ const ())

(* ---- profile ------------------------------------------------------- *)

let profile_cmd =
  let run common names =
    let names = if names = [ "all" ] then Array.to_list Suite.names else names in
    List.iter
      (fun name ->
        let p =
          Context.profile common.ctx ~llc_config:common.llc_config
            (bench_index name)
        in
        Format.fprintf std "%a@." Profile.pp_summary p)
      names
  in
  let names =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"BENCHMARK" ~doc:"Benchmark names, or 'all'.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run (or load) single-core profiling and print a summary.")
    Term.(const run $ common_term $ names)

(* ---- predict / simulate / compare ----------------------------------- *)

let predict_cmd =
  let run common trace verbose jobs names =
    let mixes = parse_mixes names in
    let results =
      eval_mixes trace jobs mixes (fun ~obs mix ->
          Context.predict ~obs common.ctx ~llc_config:common.llc_config mix)
    in
    Dispatch.pp_batch Dispatch.pp_predicted ~mixes std results;
    if verbose then pp_cache_counters ()
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Predict multi-core performance with MPPM.  Plain names form one \
          mix; comma-separated arguments are evaluated as a batch of mixes \
          (in parallel with --jobs).")
    Term.(const run $ common_term $ trace_term $ verbose_term $ jobs_term
          $ mix_arg)

let simulate_cmd =
  let run common names =
    match parse_mixes names with
    | [ mix ] ->
        Dispatch.pp_measured std
          (Context.detailed common.ctx ~llc_config:common.llc_config mix)
    | _ ->
        failwith
          "Mppm.simulate: one mix only (no comma batches; use compare for \
           batch runs)"
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the detailed multi-core simulator on a mix.")
    Term.(const run $ common_term $ mix_arg)

let compare_cmd =
  let run common trace verbose jobs names =
    let mixes = parse_mixes names in
    let results =
      eval_mixes trace jobs mixes (fun ~obs mix ->
          let predicted =
            Context.predict ~obs common.ctx ~llc_config:common.llc_config mix
          in
          let measured =
            Context.detailed common.ctx ~llc_config:common.llc_config mix
          in
          (predicted, measured))
    in
    Dispatch.pp_batch Dispatch.pp_comparison ~mixes std results;
    if verbose then pp_cache_counters ()
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Predict and simulate mixes; report the prediction error.  \
          Comma-separated arguments are evaluated as a batch of mixes (in \
          parallel with --jobs).")
    Term.(const run $ common_term $ trace_term $ verbose_term $ jobs_term
          $ mix_arg)

(* ---- population ------------------------------------------------------ *)

let population_cmd =
  let run cores =
    List.iter
      (fun m ->
        Format.fprintf std "%2d cores: %.0f mixes@." m (Mix.population ~cores:m))
      cores
  in
  let cores =
    Arg.(value & pos_all int [ 2; 4; 8; 16 ] & info [] ~docv:"CORES")
  in
  Cmd.v
    (Cmd.info "population"
       ~doc:"Count the multi-program workload population (Sec. 1).")
    Term.(const run $ cores)

(* ---- rank ------------------------------------------------------------ *)

(* The same handler the daemon runs: rank requests go through
   Dispatch.handle, so CLI output and mppmd responses cannot drift. *)
let rank_run common cores count =
  match Dispatch.handle common.ctx (Wire.Rank { cores; count }) with
  | Wire.Output text -> Format.fprintf std "%s%!" text
  | Wire.Error { message; _ } -> failwith message
  | Wire.Counters _ -> failwith "Mppm.rank: unexpected counters response"

let rank_term =
  let cores =
    Arg.(value & opt int 4 & info [ "cores" ] ~doc:"Programs per mix.")
  in
  let count =
    Arg.(value & opt int 500 & info [ "mixes" ] ~doc:"Number of mixes.")
  in
  Term.(const rank_run $ common_term $ cores $ count)

let rank_cmd =
  Cmd.v
    (Cmd.info "rank" ~doc:"Rank the Table 2 LLC configurations with MPPM.")
    rank_term

let rank_configs_cmd =
  Cmd.v
    (Cmd.info "rank-configs"
       ~doc:"Alias of $(b,rank), kept for older scripts.")
    rank_term

(* ---- categories -------------------------------------------------------- *)

let categories_cmd =
  let run common =
    let profiles = Context.all_profiles common.ctx ~llc_config:common.llc_config in
    let classes = Mppm_workload.Category.classify_profiles profiles in
    Array.iteri
      (fun i p ->
        Format.fprintf std "%-12s %a  mem-CPI fraction %4.0f%%  (CPI %.3f)@."
          Suite.names.(i) Mppm_workload.Category.pp classes.(i)
          (100.0 *. Profile.memory_cpi_fraction p)
          (Profile.cpi p))
      profiles;
    let mem, comp = Mppm_workload.Category.partition classes in
    Format.fprintf std "@.%d MEM, %d COMP@." (Array.length mem)
      (Array.length comp)
  in
  Cmd.v
    (Cmd.info "categories"
       ~doc:"Classify the suite into MEM/COMP benchmark categories (Sec. 5).")
    Term.(const run $ common_term)

(* ---- traces -------------------------------------------------------------- *)

let trace_stats_cmd =
  let run ctx bench size_kb assoc =
    let geometry =
      Mppm_cache.Geometry.make
        ~size_bytes:(Mppm_cache.Geometry.kib size_kb)
        ~line_bytes:Mppm_cache.Configs.line_bytes ~associativity:assoc
    in
    let sdc = Context.llc_sdc ctx ~llc:geometry (bench_index bench) in
    Format.fprintf std
      "%s: %.0f LLC-bound references (after L1I/L1D/L2, fetches included) \
       in %d instructions@."
      bench (Mppm_cache.Sdc.accesses sdc)
      (Context.scale ctx).Scale.trace_instructions;
    Format.fprintf std "on %a: miss rate %.2f%%@." Mppm_cache.Geometry.pp
      geometry
      (100.0 *. Mppm_cache.Sdc.miss_rate sdc);
    Format.fprintf std "%a@." Mppm_cache.Sdc.pp sdc
  in
  let bench =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK")
  in
  let size_kb =
    Arg.(value & opt int 512 & info [ "size" ] ~doc:"LLC size in KB.")
  in
  let assoc =
    Arg.(value & opt int 8 & info [ "assoc" ] ~doc:"LLC associativity.")
  in
  Cmd.v
    (Cmd.info "trace-stats"
       ~doc:
         "Replay a benchmark's recorded private stream through an LLC of \
          the given geometry and print the lifetime stack-distance \
          counters (SDC) and miss rate.  The stream holds the LLC-bound \
          references, those that miss in L1I, L1D and L2 (instruction \
          fetches included), not every data reference.  --length and \
          --cache select the stream; it is recorded into the cache if \
          absent.")
    Term.(const run $ context_term $ bench $ size_kb $ assoc)

(* ---- cache --------------------------------------------------------- *)

let cache_stats_cmd =
  let run common =
    let r = Context.scan_cache common.ctx in
    let n_tmp = List.length r.Context.cr_tmp in
    Format.fprintf std "profile cache: %d live, %d stale, %d foreign entr%s%s@."
      (List.length r.Context.cr_live)
      (List.length r.Context.cr_stale)
      (List.length r.Context.cr_foreign)
      (if
         List.length r.Context.cr_live
         + List.length r.Context.cr_stale
         + List.length r.Context.cr_foreign
         = 1
       then "y"
       else "ies")
      (if n_tmp = 0 then "" else Printf.sprintf ", %d orphaned .tmp" n_tmp);
    List.iter (fun f -> Format.fprintf std "  stale: %s@." f) r.Context.cr_stale;
    List.iter (fun f -> Format.fprintf std "  tmp: %s@." f) r.Context.cr_tmp
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Classify the profile cache: live entries (fingerprint matches a \
          current benchmark/config profile or a benchmark's private \
          stream), stale entries (recognized name but outdated \
          fingerprint), foreign files, and orphaned .tmp staging files \
          left by interrupted writes.")
    Term.(const run $ common_term)

let cache_prune_cmd =
  let run common =
    let deleted = Context.prune_cache common.ctx in
    List.iter (fun f -> Format.fprintf std "deleted %s@." f) deleted;
    Format.fprintf std "%d stale or orphaned entr%s pruned@."
      (List.length deleted)
      (if List.length deleted = 1 then "y" else "ies")
  in
  Cmd.v
    (Cmd.info "prune"
       ~doc:
         "Delete profile-cache entries (profiles and private streams) whose \
          fingerprint no longer matches any known benchmark/config pair, \
          plus orphaned .tmp staging files from interrupted writes.  Live \
          and foreign files are kept.")
    Term.(const run $ common_term)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect or prune the profile cache directory.")
    [ cache_stats_cmd; cache_prune_cmd ]

(* ---- trace-report ---------------------------------------------------- *)

let read_jsonl_events path =
  let ic = open_in path in
  let events = ref [] in
  let lineno = ref 0 in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let trimmed = String.trim line in
           if trimmed <> "" then
             match Obs_event.of_jsonl line with
             | Ok ev -> events := ev :: !events
             | Error msg ->
                 let hint =
                   if trimmed.[0] = '[' || trimmed.[0] = ']' then
                     " (hint: this looks like a Chrome trace; trace-report \
                      reads the JSONL format, i.e. --trace without \
                      --trace-format chrome)"
                   else ""
                 in
                 failwith
                   (Printf.sprintf "Mppm.trace_report: %s:%d: %s%s" path
                      !lineno msg hint)
         done
       with End_of_file -> ());
      List.rev !events)

let trace_report_cmd =
  let run path =
    let events = read_jsonl_events path in
    if events = [] then
      failwith
        (Printf.sprintf
           "Mppm.trace_report: %s holds no events (hint: record a trace \
            with 'mppm compare ... --trace %s' first)"
           path path);
    let named name = List.filter (fun ev -> ev.Obs_event.name = name) events in
    let quanta = named "model.quantum" in
    if quanta = [] then
      failwith
        (Printf.sprintf
           "Mppm.trace_report: %s holds no model.quantum events (hint: the \
            trace must come from 'mppm predict' or 'mppm compare' with \
            --trace; trace-report cannot read bench --trace-phases files)"
           path);
    let programs =
      match named "model.start" with
      | start :: _ ->
          Option.value
            (Obs_event.string_list_field start "programs")
            ~default:[]
      | [] -> []
    in
    let n =
      match quanta with
      | q :: _ -> (
          match Obs_event.float_list_field q "r_after" with
          | Some rs -> List.length rs
          | None -> List.length programs)
      | [] -> 0
    in
    let programs =
      if List.length programs = n then Array.of_list programs
      else Array.init n (Printf.sprintf "P%d")
    in
    (* Convergence records pair 1:1 with quanta via their iter field. *)
    let delta_of =
      let tbl = Hashtbl.create ~random:false 64 in
      List.iter
        (fun ev ->
          match (Obs_event.int_field ev "iter",
                 Obs_event.float_field ev "max_delta_r") with
          | Some iter, Some d -> Hashtbl.replace tbl iter d
          | _ -> ())
        (named "model.convergence");
      fun iter -> Hashtbl.find_opt tbl iter
    in
    Format.fprintf std "%s: %d quanta over %d programs (%s)@.@." path
      (List.length quanta) n
      (String.concat " " (Array.to_list programs));
    Format.fprintf std "  iter  slowest       budget (cycles)   max dR";
    Array.iter (fun p -> Format.fprintf std "  %8s"
                   (if String.length p > 8 then String.sub p 0 8 else p))
      programs;
    Format.fprintf std "@.";
    List.iter
      (fun q ->
        let iter = Option.value (Obs_event.int_field q "iter") ~default:(-1) in
        let slowest =
          match Obs_event.int_field q "slowest" with
          | Some i when i >= 0 && i < n -> programs.(i)
          | _ -> "?"
        in
        let budget =
          Option.value (Obs_event.float_field q "budget_cycles") ~default:0.0
        in
        Format.fprintf std "  %4d  %-12s  %16.0f  " iter slowest budget;
        (match delta_of iter with
        | Some d -> Format.fprintf std "%7.4f" d
        | None -> Format.fprintf std "%7s" "-");
        (match Obs_event.float_list_field q "r_after" with
        | Some rs -> List.iter (fun r -> Format.fprintf std "  %8.4f" r) rs
        | None -> ());
        Format.fprintf std "@.")
      quanta;
    (* R_p trajectories, one series per program (Fig. 3 style). *)
    let trajectory i =
      Array.of_list
        (List.filter_map
           (fun q ->
             match Obs_event.float_list_field q "r_after" with
             | Some rs -> List.nth_opt rs i
             | None -> None)
           quanta)
    in
    let series =
      Array.to_list (Array.mapi (fun i p -> (p, trajectory i)) programs)
    in
    Format.fprintf std "@.%s@."
      (Mppm_util.Ascii_plot.series ~x_label:"quantum" ~y_label:"R_p" series);
    (match named "model.result" with
    | result :: _ ->
        Format.fprintf std "converged after %d iterations:  STP %.3f   ANTT %.3f@."
          (Option.value (Obs_event.int_field result "iterations") ~default:0)
          (Option.value (Obs_event.float_field result "stp") ~default:nan)
          (Option.value (Obs_event.float_field result "antt") ~default:nan)
    | [] -> ())
  in
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:
         "Render a JSONL model trace (from --trace) as a per-quantum \
          convergence table plus R_p trajectory plot.")
    Term.(const run $ path)

(* ---- client ---------------------------------------------------------- *)

(* Thin wire client for a running mppmd: frame one request, read one
   framed response, print it.  All interpretation (mix parsing, config
   validation) happens daemon-side, so errors come back as structured
   responses; the client renders them on stderr and exits 2. *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found ->
      failwith (Printf.sprintf "Mppm.client: cannot resolve host %S" host))

let connect_endpoint endpoint =
  let addr, domain =
    match endpoint with
    | Wire.Unix_socket path -> (Unix.ADDR_UNIX path, Unix.PF_UNIX)
    | Wire.Tcp { host; port } ->
        (Unix.ADDR_INET (resolve_host host, port), Unix.PF_INET)
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd addr with
  | () -> fd
  | exception Unix.Unix_error (err, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      failwith
        (Printf.sprintf
           "Mppm.client: cannot connect to %s: %s (is mppmd running?)"
           (Wire.endpoint_to_string endpoint)
           (Unix.error_message err))

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let read_frame fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec fill need =
    if Buffer.length buf < need then begin
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then
        failwith
          "Mppm.client: connection closed mid-response (daemon died?)";
      Buffer.add_subbytes buf chunk 0 n;
      fill need
    end
  in
  fill 4;
  let len =
    match Wire.frame_length (String.sub (Buffer.contents buf) 0 4) with
    | Result.Ok len -> len
    | Result.Error (_, msg) -> failwith msg
  in
  fill (4 + len);
  String.sub (Buffer.contents buf) 4 len

let client_roundtrip endpoint req =
  let fd = connect_endpoint endpoint in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd (Wire.frame (Wire.encode_request req));
      match Wire.decode_response (read_frame fd) with
      | Result.Ok resp -> resp
      | Result.Error (_, msg) -> failwith msg)

let print_response = function
  | Wire.Output text -> Format.fprintf std "%s%!" text
  | Wire.Counters kvs ->
      List.iter (fun (name, v) -> Format.fprintf std "%-40s %g@." name v) kvs
  | Wire.Error { code; message } ->
      prerr_endline
        (Printf.sprintf "mppm: %s [%s]" message
           (Wire.error_code_to_string code));
      exit 2

let connect_term =
  let parse s =
    match Wire.endpoint_of_string s with
    | Result.Ok ep -> Ok ep
    | Result.Error msg -> Error (`Msg msg)
  in
  let endpoint_conv =
    Arg.conv
      ( parse,
        fun ppf ep -> Format.pp_print_string ppf (Wire.endpoint_to_string ep)
      )
  in
  Arg.(
    value
    & opt endpoint_conv (Wire.Unix_socket "mppmd.sock")
    & info [ "connect" ] ~docv:"ENDPOINT"
        ~doc:
          "The mppmd endpoint: $(b,unix:PATH) or $(b,tcp:HOST:PORT) \
           (default $(b,unix:mppmd.sock)).")

let client_config_term =
  Arg.(
    value & opt int 1
    & info [ "config" ] ~doc:"LLC configuration, 1..6 (Table 2).")

let client_predict_cmd =
  let run endpoint llc_config names =
    print_response
      (client_roundtrip endpoint (Wire.Predict { names; llc_config }))
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Ask the daemon for an MPPM prediction.  Output is byte-identical \
          to $(b,mppm predict) with the daemon's scale options.")
    Term.(const run $ connect_term $ client_config_term $ mix_arg)

let client_compare_cmd =
  let run endpoint llc_config names =
    print_response
      (client_roundtrip endpoint (Wire.Compare { names; llc_config }))
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Ask the daemon for a predict + simulate + error report.")
    Term.(const run $ connect_term $ client_config_term $ mix_arg)

let client_rank_cmd =
  let run endpoint cores count =
    print_response (client_roundtrip endpoint (Wire.Rank { cores; count }))
  in
  let cores =
    Arg.(value & opt int 4 & info [ "cores" ] ~doc:"Programs per mix.")
  in
  let count =
    Arg.(value & opt int 500 & info [ "mixes" ] ~doc:"Number of mixes.")
  in
  Cmd.v
    (Cmd.info "rank"
       ~doc:"Ask the daemon to rank the Table 2 LLC configurations.")
    Term.(const run $ connect_term $ cores $ count)

let client_stats_cmd =
  let run endpoint = print_response (client_roundtrip endpoint Wire.Stats) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print the daemon's serve/pool/profile-cache registry counters.")
    Term.(const run $ connect_term)

let client_shutdown_cmd =
  let run endpoint =
    print_response (client_roundtrip endpoint Wire.Shutdown)
  in
  Cmd.v
    (Cmd.info "shutdown" ~doc:"Ask the daemon to exit cleanly.")
    Term.(const run $ connect_term)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Query a running mppmd daemon over its socket (see \
          docs/service.md).")
    [
      client_predict_cmd; client_compare_cmd; client_rank_cmd;
      client_stats_cmd; client_shutdown_cmd;
    ]

(* ---- main ------------------------------------------------------------ *)

let () =
  let doc = "The Multi-Program Performance Model (IISWC 2011) toolkit." in
  (* ~catch:false so domain errors (Failure/Sys_error, e.g. a malformed
     or missing trace file, and Invalid_argument, e.g. an LLC config or
     geometry out of range) print as one clean line on stderr with exit
     code 2 instead of an uncaught-exception backtrace. *)
  try
    exit
      (Cmd.eval ~catch:false
         (Cmd.group (Cmd.info "mppm" ~doc)
            [
              suite_cmd; profile_cmd; predict_cmd; simulate_cmd; compare_cmd;
              population_cmd; rank_cmd; rank_configs_cmd; categories_cmd;
              cache_cmd; trace_stats_cmd; trace_report_cmd;
              client_cmd;
            ]))
  with Failure msg | Sys_error msg | Invalid_argument msg ->
    prerr_endline ("mppm: " ^ msg);
    exit 2
