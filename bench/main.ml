(* The benchmark harness: regenerates every table and figure of the paper.

   Sections (selectable with --only):
     table1 table2     the simulated machine
     fig3              variability vs number of workload mixes
     fig4 fig5         MPPM accuracy scatter + average errors (2/4/8/16 cores)
     fig6              CPI breakdown of the worst-STP mix
     fig7 fig8         debunking current practice (config ranking)
     fig9              stress-workload identification
     speed             Sec. 4.3 MPPM vs detailed simulation
     ablation          contention model / update rule / smoothing / L sweeps
                       + the static (phase-unaware) baseline
     derivation        reduced-associativity profile derivation (Sec. 2)
     partition         way-partitioned LLC vs the Way_partition model
     bandwidth         shared memory channel vs the M/D/1 queueing term
     cophase           the co-phase matrix baseline (Sec. 7)
     simpoint          SimPoint-style profile quantization

   The default sizes finish in roughly 30-40 minutes on a laptop-class
   machine; --paper uses the paper's population sizes (hours). *)

module Core_model = Mppm_simcore.Core_model
module Contention = Mppm_contention.Contention
module Model = Mppm_core.Model
module Metrics = Mppm_core.Metrics
module Profile = Mppm_profile.Profile
module Stats = Mppm_util.Stats
module Mix = Mppm_workload.Mix
module Sampler = Mppm_workload.Sampler
module Pool = Mppm_pool.Pool
open Mppm_experiments

let section title =
  Printf.printf "\n================ %s ================\n%!" title

let std = Format.std_formatter

(* The wall-clock profiler behind phase spans, the pool's task metrics
   and the --trace-phases timeline.  The clock stays in bench/ (and
   tools/): lib/ is wall-clock-free by lint rule D1, so [Mppm_obs.Prof]
   takes the clock as an argument and this harness injects
   [Unix.gettimeofday].  Profiling never changes results — everything
   the model computes stays bit-for-bit deterministic (asserted
   elsewhere). *)
module Prof = Mppm_obs.Prof
module Obs_event = Mppm_obs.Event
module Render = Mppm_obs.Render

let prof = Prof.make ~clock:Unix.gettimeofday

let phase name f =
  let t0 = Unix.gettimeofday () in
  let result = Prof.time prof name f in
  Printf.printf "[%s: %.1fs]\n%!" name (Unix.gettimeofday () -. t0);
  result

(* --trace-phases: the run's wall-clock timeline as a Chrome trace_event
   file — phase spans on the top lane, every pool task on the lane of
   the worker domain that ran it (queue wait in args).  Complements the
   virtual-cycle model trace (bin/mppm --trace): this one profiles the
   harness, that one the model. *)
let write_phase_trace ~path prof =
  let spans = Prof.spans prof and tasks = Prof.tasks prof in
  let t0 =
    List.fold_left
      (fun acc (s : Prof.span) -> Float.min acc s.Prof.sp_start)
      (List.fold_left
         (fun acc (tk : Prof.task) -> Float.min acc tk.Prof.tk_start)
         infinity tasks)
      spans
  in
  let t0 = if Float.is_finite t0 then t0 else 0.0 in
  let us x = (x -. t0) *. 1e6 in
  let events =
    List.map
      (fun (s : Prof.span) ->
        Obs_event.make ~name:s.Prof.sp_name ~time:(us s.Prof.sp_start)
          ~dur:(s.Prof.sp_dur *. 1e6) [])
      spans
    @ List.map
        (fun (tk : Prof.task) ->
          Obs_event.make ~name:"pool.task" ~time:(us tk.Prof.tk_start)
            ~dur:(tk.Prof.tk_dur *. 1e6)
            [
              ("domain", Obs_event.Int tk.Prof.tk_domain);
              ("wait_us", Obs_event.Float (tk.Prof.tk_wait *. 1e6));
            ])
        tasks
  in
  let events =
    List.sort
      (fun a b -> Float.compare a.Obs_event.time b.Obs_event.time)
      events
  in
  (* Lane 0 holds the phase spans; pool tasks go to worker lane + 1. *)
  let lane ev =
    match Obs_event.int_field ev "domain" with Some d -> d + 1 | None -> 0
  in
  let r = Render.chrome ~lane () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Render.to_string r events));
  Printf.printf "phase trace written to %s\n%!" path

(* A per-mix callback for Accuracy.evaluate: one carriage-return progress
   line with elapsed time and a linear ETA.  Pool workers complete tasks
   out of order, so every reporter funnels through one mutex and [done_]
   counts completed tasks (monotonic) rather than task indices — the \r
   line never interleaves or runs backwards. *)
let progress_mutex = Mutex.create ()

let progress_eta label =
  let t0 = Unix.gettimeofday () in
  fun ~done_ ~total ->
    Mutex.lock progress_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock progress_mutex)
      (fun () ->
        let elapsed = Unix.gettimeofday () -. t0 in
        let eta =
          if done_ = 0 then 0.0
          else elapsed /. float_of_int done_ *. float_of_int (total - done_)
        in
        Printf.printf "\r%-24s %3d/%d mixes  %4.0fs elapsed  ETA %4.0fs %!"
          label done_ total elapsed eta;
        if done_ >= total then print_newline ())

(* Optional CSV export of figure data (--csv DIR). *)
let csv_dir : string option ref = ref None

let csv_write name header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let oc = open_out (Filename.concat dir name) in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (header ^ "\n");
          List.iter (fun row -> output_string oc (row ^ "\n")) rows)

let csv_points name points =
  csv_write name "predicted,measured"
    (Array.to_list
       (Array.map (fun (p, m) -> Printf.sprintf "%.6f,%.6f" p m) points))

(* ------------------------------------------------------------------ *)
(* Experiment sections                                                  *)
(* ------------------------------------------------------------------ *)

let run_tables () =
  section "Table 1 & 2: simulated machine";
  Tables.pp_table1 std Core_model.default;
  Tables.pp_table2 std ()

let run_fig3 ctx ~pool ~mixes =
  section "Fig. 3: variability vs number of workload mixes";
  let t = Variability.run ctx ~pool ~max_mixes:(max 150 mixes) ~step:10 () in
  Variability.pp std t;
  csv_write "fig3_variability.csv"
    "mixes,stp_mean,stp_half_width,antt_mean,antt_half_width"
    (List.map
       (fun p ->
         Printf.sprintf "%d,%.6f,%.6f,%.6f,%.6f" p.Variability.mixes
           p.Variability.stp.Stats.mean p.Variability.stp.Stats.half_width
           p.Variability.antt.Stats.mean p.Variability.antt.Stats.half_width)
       t.Variability.points);
  let rel metric =
    t.Variability.points
    |> List.map (fun p -> 100.0 *. Stats.relative_half_width (metric p))
    |> Array.of_list
  in
  print_string
    (Mppm_util.Ascii_plot.series ~x_label:"point # (10 mixes per step)"
       ~y_label:"95% CI half-width, % of mean"
       [
         ("STP", rel (fun p -> p.Variability.stp));
         ("ANTT", rel (fun p -> p.Variability.antt));
       ])

let run_accuracy ctx ~pool ~mixes ~sixteen_core_mixes =
  section "Fig. 4 & 5: MPPM accuracy vs detailed simulation";
  let runs =
    List.map
      (fun cores ->
        let label = Printf.sprintf "%d cores" cores in
        phase label (fun () ->
            Accuracy.evaluate ~on_mix:(progress_eta label) ~pool ctx
              ~llc_config:1 ~cores ~count:mixes))
      [ 2; 4; 8 ]
  in
  let runs =
    if sixteen_core_mixes > 0 then begin
      let label = "16 cores (config #4)" in
      let run =
        phase label (fun () ->
            Accuracy.evaluate ~on_mix:(progress_eta label) ~pool ctx
              ~llc_config:4 ~cores:16 ~count:sixteen_core_mixes)
      in
      runs @ [ run ]
    end
    else runs
  in
  List.iter
    (fun run ->
      Accuracy.pp_run_summary std run;
      Format.pp_print_newline std ())
    runs;
  (* Render the quad-core scatters as plots (the paper's Fig. 4 panels). *)
  (match List.find_opt (fun r -> r.Accuracy.cores = 4) runs with
  | Some run ->
      Printf.printf "\nFig.4a, 4 cores: predicted (x) vs measured (y) STP\n";
      print_string
        (Mppm_util.Ascii_plot.scatter ~diagonal:true ~x_label:"predicted STP"
           ~y_label:"measured STP" (Accuracy.scatter_stp run));
      Printf.printf "\nFig.5, 4 cores: predicted vs measured per-program slowdown\n";
      print_string
        (Mppm_util.Ascii_plot.scatter ~diagonal:true
           ~x_label:"predicted slowdown" ~y_label:"measured slowdown"
           (Accuracy.scatter_slowdown run))
  | None -> ());
  List.iter
    (fun run ->
      let c = run.Accuracy.cores in
      csv_points (Printf.sprintf "fig4a_stp_%dcores.csv" c)
        (Accuracy.scatter_stp run);
      csv_points (Printf.sprintf "fig4b_antt_%dcores.csv" c)
        (Accuracy.scatter_antt run);
      csv_points (Printf.sprintf "fig5_slowdown_%dcores.csv" c)
        (Accuracy.scatter_slowdown run))
    runs;
  List.iter
    (fun run ->
      if run.Accuracy.cores <= 8 then begin
        Accuracy.pp_scatter
          ~label:
            (Printf.sprintf "Fig.4a STP scatter, %d cores" run.Accuracy.cores)
          std (Accuracy.scatter_stp run);
        Accuracy.pp_scatter
          ~label:
            (Printf.sprintf "Fig.4b ANTT scatter, %d cores" run.Accuracy.cores)
          std (Accuracy.scatter_antt run);
        Accuracy.pp_scatter
          ~label:
            (Printf.sprintf "Fig.5 per-program slowdown scatter, %d cores"
               run.Accuracy.cores)
          std
          (Accuracy.scatter_slowdown run)
      end)
    runs;
  runs

let run_fig6 ctx (four_core : Accuracy.run) =
  section "Fig. 6: worst-STP mix CPI breakdown";
  let worst = Accuracy.worst_stp_eval four_core in
  Format.fprintf std "worst mix in the population: %a (measured STP %.3f)@."
    Mix.pp worst.Accuracy.mix worst.Accuracy.measured.Context.m_stp;
  Accuracy.pp_cpi_rows std (Accuracy.cpi_rows worst);
  (* The paper's canonical Fig. 6 mix. *)
  let canonical = Mix.of_names [| "gamess"; "gamess"; "hmmer"; "soplex" |] in
  let eval =
    {
      Accuracy.mix = canonical;
      measured = Context.detailed ctx ~llc_config:1 canonical;
      predicted = Context.predict ctx ~llc_config:1 canonical;
    }
  in
  Format.fprintf std "@.the paper's mix (2x gamess + hmmer + soplex):@.";
  Accuracy.pp_cpi_rows std (Accuracy.cpi_rows eval)

let run_fig7_8 ctx ~pool ~paper_scale =
  section "Fig. 7 & 8: debunking current practice";
  let options =
    if paper_scale then Ranking.paper_options else Ranking.default_options
  in
  let t = phase "ranking" (fun () -> Ranking.run ~pool ctx options) in
  Ranking.pp_fig7 std t;
  Format.pp_print_newline std ();
  Ranking.pp_fig8 std t

let run_fig9 (four_core : Accuracy.run) =
  section "Fig. 9: stress-workload identification";
  let t = Stress.analyze four_core in
  csv_write "fig9_sorted_stp.csv" "rank,measured,predicted"
    (List.mapi
       (fun i (m, p) -> Printf.sprintf "%d,%.6f,%.6f" (i + 1) m p)
       (Array.to_list t.Stress.sorted));
  Stress.pp_summary std t;
  print_string
    (Mppm_util.Ascii_plot.series ~x_label:"workloads sorted by measured STP"
       ~y_label:"STP"
       [
         ("detailed simulation", Array.map fst t.Stress.sorted);
         ("MPPM", Array.map snd t.Stress.sorted);
       ]);
  Stress.pp_sorted std t

let run_speed ctx =
  section "Sec. 4.3: speed";
  Speed.pp std (Speed.measure ctx ~clock:Unix.gettimeofday)

(* Ablations over the design choices DESIGN.md calls out. *)
let run_ablation ctx ~pool ~mixes =
  section "Ablations: contention model, update rule, smoothing, L";
  let cores = 4 in
  let rng = Context.rng ctx "ablation" in
  let sample = Sampler.random_mixes rng ~cores ~count:(max 8 (mixes / 4)) in
  let measured = Pool.map pool (Context.detailed ctx ~llc_config:1) sample in
  let eval_params params label =
    let profiles mix =
      Array.map (fun i -> Context.profile ctx ~llc_config:1 i) (Mix.indices mix)
    in
    let predicted =
      Array.map (fun mix -> Model.predict_profiles params (profiles mix)) sample
    in
    let err metric_p metric_m =
      Stats.mean_relative_error
        ~predicted:(Array.map metric_p predicted)
        ~measured:(Array.map metric_m measured)
    in
    Printf.printf "%-34s STP err %5.2f%%  ANTT err %5.2f%%\n%!" label
      (100.0 *. err (fun r -> r.Model.stp) (fun m -> m.Context.m_stp))
      (100.0 *. err (fun r -> r.Model.antt) (fun m -> m.Context.m_antt))
  in
  let base = Context.model_params ctx in
  Printf.printf "(population: %d quad-core mixes)\n" (Array.length sample);
  eval_params { base with contention = Contention.Foa }
    "contention = FOA (paper)";
  eval_params
    { base with contention = Contention.Sdc_competition }
    "contention = SDC competition";
  eval_params
    { base with contention = Contention.Prob { iterations = 5 } }
    "contention = Prob (5 iters)";
  eval_params
    { base with update_rule = Model.Paper_literal }
    "update rule = paper-literal";
  eval_params
    { base with update_rule = Model.Consistent }
    "update rule = consistent";
  List.iter
    (fun f ->
      eval_params { base with smoothing = f }
        (Printf.sprintf "smoothing f = %.2f" f))
    [ 0.0; 0.25; 0.5; 0.75; 0.9 ];
  let trace = (Context.scale ctx).Scale.trace_instructions in
  List.iter
    (fun denom ->
      eval_params
        { base with iteration_instructions = max 1 (trace / denom) }
        (Printf.sprintf "L = trace/%d" denom))
    [ 2; 5; 10; 25 ];
  (* The phase-unaware StatCC-style baseline: what discarding time-varying
     behaviour costs. *)
  let static_predicted =
    Array.map (Context.predict_static ctx ~llc_config:1) sample
  in
  let static_err metric_p metric_m =
    Stats.mean_relative_error
      ~predicted:(Array.map metric_p static_predicted)
      ~measured:(Array.map metric_m measured)
  in
  Printf.printf "%-34s STP err %5.2f%%  ANTT err %5.2f%%\n%!"
    "static model (no phases)"
    (100.0 *. static_err (fun r -> r.Model.stp) (fun m -> m.Context.m_stp))
    (100.0 *. static_err (fun r -> r.Model.antt) (fun m -> m.Context.m_antt))

(* Extension: a way-partitioned shared LLC.  The paper's Sec. 2.3 claims
   MPPM supports any partitioning strategy given a matching contention
   model; here the detailed simulator enforces 2-way quotas per core and
   MPPM predicts with the Way_partition model (with plain FOA shown as the
   mismatched-model baseline). *)
let run_partition ctx ~pool ~mixes =
  section "Extension: way-partitioned LLC";
  let cores = 4 in
  (* Deliberately asymmetric quotas: a frequency-proportional model (FOA)
     cannot reproduce a policy that grants core 0 half the cache. *)
  let quotas = [| 4; 2; 1; 1 |] in
  let rng = Context.rng ctx "partition" in
  let sample = Sampler.random_mixes rng ~cores ~count:(max 8 (mixes / 5)) in
  let measured =
    Pool.map pool (Context.detailed ~llc_partition:quotas ctx ~llc_config:1)
      sample
  in
  let base = Context.model_params ctx in
  let eval contention label =
    let predicted =
      Array.map
        (fun mix ->
          Context.predict_with ctx ~params:{ base with Model.contention }
            ~llc_config:1 mix)
        sample
    in
    let err metric_p metric_m =
      Stats.mean_relative_error
        ~predicted:(Array.map metric_p predicted)
        ~measured:(Array.map metric_m measured)
    in
    Printf.printf "%-34s STP err %5.2f%%  ANTT err %5.2f%%\n%!" label
      (100.0 *. err (fun r -> r.Model.stp) (fun m -> m.Context.m_stp))
      (100.0 *. err (fun r -> r.Model.antt) (fun m -> m.Context.m_antt))
  in
  Printf.printf
    "(detailed simulator enforces per-core way quotas %s; %d mixes)\n"
    (String.concat "/" (List.map string_of_int (Array.to_list quotas)))
    (Array.length sample);
  eval
    (Contention.Way_partition (Array.map float_of_int quotas))
    "contention = Way_partition (match)";
  eval Contention.Foa "contention = FOA (mismatched)"

(* Extension: the paper's Sec. 2 parenthetical — deriving lower-
   associativity profiles without re-simulation.  Table 2 pairs with equal
   set counts: config #4 (1MB 16-way) folds to config #1 (512KB 8-way) and
   #6 (2MB 16-way) folds to #3 (1MB 8-way).  The SDCs derive exactly; the
   timing fields keep the profiled machine's latencies, so this section
   quantifies the end-to-end prediction error of using derived profiles. *)
let run_derivation ctx ~pool ~mixes =
  section "Extension: reduced-associativity profile derivation";
  let rng = Context.rng ctx "derivation" in
  let sample = Sampler.random_mixes rng ~cores:4 ~count:(max 10 (mixes / 4)) in
  List.iter
    (fun (src, dst) ->
      let direct = Context.all_profiles ~pool ctx ~llc_config:dst in
      let derived =
        Array.map
          (fun p -> Profile.reduce_associativity p ~assoc:8)
          (Context.all_profiles ~pool ctx ~llc_config:src)
      in
      let mpki_err =
        Stats.mean_relative_error
          ~predicted:(Array.map (fun p -> Profile.llc_mpki p +. 1e-9) derived)
          ~measured:(Array.map (fun p -> Profile.llc_mpki p +. 1e-9) direct)
      in
      let params = Context.model_params ctx in
      let predict profiles mix =
        (Model.predict_profiles params
           (Array.map (fun i -> profiles.(i)) (Mix.indices mix)))
          .Model.stp
      in
      let stp_err =
        Stats.mean_relative_error
          ~predicted:(Array.map (predict derived) sample)
          ~measured:(Array.map (predict direct) sample)
      in
      Printf.printf
        "config #%d -> #%d: per-benchmark MPKI error %.1f%%, STP prediction \
         error vs direct profiles %.2f%% (over %d mixes)\n%!"
        src dst (100.0 *. mpki_err) (100.0 *. stp_err) (Array.length sample))
    [ (4, 1); (6, 3) ]

(* Extension: bandwidth sharing (paper Sec. 8 future work).  The detailed
   simulator serializes all LLC misses over one memory channel; MPPM adds
   an M/D/1 queueing term on top of FOA.  The channel's machine is a
   context of its own: its profiles are collected with a private channel,
   so isolated CPIs carry their own self-queueing, and are cached beside
   the paper machine's under their own names; both replay the same
   private streams. *)
let run_bandwidth ~seed ~cache_dir scale ~pool ~mixes =
  section "Extension: memory bandwidth sharing";
  let transfer_cycles = 16.0 in
  let ctx = Context.create ~bandwidth:transfer_cycles ~seed ~cache_dir scale in
  let rng = Context.rng ctx "bandwidth" in
  let sample = Sampler.random_mixes rng ~cores:4 ~count:(max 6 (mixes / 6)) in
  let measured =
    Pool.map pool
      (fun mix ->
        let m = Context.detailed ctx ~llc_config:1 mix in
        (m.Context.m_stp, m.Context.m_antt))
      sample
  in
  let base = Context.model_params ctx in
  let eval params label =
    let predicted =
      Array.map
        (fun mix ->
          let r = Context.predict_with ctx ~params ~llc_config:1 mix in
          (r.Model.stp, r.Model.antt))
        sample
    in
    let err f =
      Stats.mean_relative_error
        ~predicted:(Array.map f predicted)
        ~measured:(Array.map f measured)
    in
    Printf.printf "%-34s STP err %5.2f%%  ANTT err %5.2f%%\n%!" label
      (100.0 *. err fst) (100.0 *. err snd)
  in
  Printf.printf
    "(channel: %.0f cycles/line; detailed simulator serializes misses; %d mixes)\n"
    transfer_cycles (Array.length sample);
  eval base "MPPM, no bandwidth term";
  eval
    { base with
      Model.bandwidth =
        Some { Model.transfer_cycles; exposed_fraction = 0.35 } }
    "MPPM + M/D/1 queueing term"

(* Extension: SimPoint-style profile quantization (the paper's reference
   [13] applied to the model's input): cluster each profile's intervals
   into k phases and replace every interval with its phase representative.
   Measures the MPPM accuracy cost of compressing profiles. *)
let run_simpoint ctx ~mixes =
  section "Extension: SimPoint-style profile quantization";
  let rng = Context.rng ctx "simpoint" in
  let sample = Sampler.random_mixes rng ~cores:4 ~count:(max 8 (mixes / 4)) in
  let params = Context.model_params ctx in
  let full_profiles = Context.all_profiles ctx ~llc_config:1 in
  let full mix =
    (Model.predict_profiles params
       (Array.map (fun i -> full_profiles.(i)) (Mix.indices mix)))
      .Model.stp
  in
  let full_stps = Array.map full sample in
  List.iter
    (fun k ->
      let quantized =
        Array.map (fun p -> Mppm_simpoint.Simpoint.quantize ~k p) full_profiles
      in
      let stps =
        Array.map
          (fun mix ->
            (Model.predict_profiles params
               (Array.map (fun i -> quantized.(i)) (Mix.indices mix)))
              .Model.stp)
          sample
      in
      let err =
        Stats.mean_relative_error ~predicted:stps ~measured:full_stps
      in
      let avg_distinct =
        Array.fold_left
          (fun acc p ->
            acc + Mppm_simpoint.Simpoint.distinct_intervals p)
          0 quantized
        / Array.length quantized
      in
      Printf.printf
        "k = %2d phases: STP drift vs full profiles %.2f%% (avg %d distinct          intervals of 50)\n%!"
        k (100.0 *. err) avg_distinct)
    [ 2; 4; 8; 16 ]

(* Extension: the co-phase matrix baseline (Van Biesbrouck et al., paper
   Sec. 7).  Accurate per mix, but the matrix is rebuilt with detailed
   windows for every new mix — the cost MPPM eliminates. *)
let run_cophase ctx ~mixes:_ =
  section "Extension: co-phase matrix baseline";
  let trace = (Context.scale ctx).Scale.trace_instructions in
  let hierarchy = Context.hierarchy ctx ~llc_config:1 in
  let mix_names =
    [
      [| "bzip2"; "gcc" |];
      [| "gcc"; "astar" |];
      [| "bzip2"; "gcc"; "h264ref"; "wrf" |];
      [| "gamess"; "gamess"; "hmmer"; "soplex" |];
    ]
  in
  List.iter
    (fun names ->
      let mix = Mix.of_names names in
      (* Mix sorts its programs; use that canonical order for the co-phase
         specs so per-slot results align with the reference. *)
      let names = Mix.names mix in
      let measured = Context.detailed ctx ~llc_config:1 mix in
      let predicted = Context.predict ctx ~llc_config:1 mix in
      let offsets =
        (* Must match Context.detailed's per-slot offsets so the co-phase
           windows see the exact programs the reference simulated. *)
        Mppm_multicore.Multi_core.default_offsets ~seed:(Context.seed ctx)
          (Array.length names)
      in
      let specs =
        Array.mapi
          (fun i name ->
            {
              Mppm_cophase.Co_phase.benchmark = Mppm_trace.Suite.find name;
              seed = Mppm_trace.Suite.seed_for name;
              offset = offsets.(i);
            })
          names
      in
      let matrix =
        Mppm_cophase.Co_phase.create
          (Mppm_cophase.Co_phase.config hierarchy)
          ~programs:specs
      in
      let cop = Mppm_cophase.Co_phase.predict matrix ~trace_instructions:trace in
      let cop_stp =
        Metrics.stp ~cpi_single:measured.Context.m_cpi_single
          ~cpi_multi:cop.Mppm_cophase.Co_phase.cpi_multi
      in
      let err x = 100.0 *. abs_float (x -. measured.Context.m_stp) /. measured.Context.m_stp in
      Printf.printf
        "%-40s STP detailed %.3f | co-phase %.3f (%.1f%% err, %d co-phases, %.1fM detailed insns) | MPPM %.3f (%.1f%% err, 0 detailed insns)\n%!"
        (Mix.to_string mix) measured.Context.m_stp cop_stp (err cop_stp)
        cop.Mppm_cophase.Co_phase.co_phases_measured
        (float_of_int cop.Mppm_cophase.Co_phase.detailed_instructions /. 1e6)
        predicted.Model.stp (err predicted.Model.stp))
    mix_names

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let all_sections =
  [
    "table1"; "table2"; "fig3"; "fig4"; "fig5"; "fig6"; "fig7"; "fig8";
    "fig9"; "speed"; "ablation"; "derivation"; "partition"; "bandwidth";
    "cophase"; "simpoint";
  ]

let run trace mixes seed cache_dir only paper_scale csv jobs trace_phases =
  (match List.filter (fun s -> not (List.mem s all_sections)) only with
  | [] -> ()
  | unknown ->
      failwith
        (Printf.sprintf "Main.run: unknown --only section(s): %s (valid: %s)"
           (String.concat ", " unknown)
           (String.concat ", " all_sections)));
  csv_dir := csv;
  let scale = Scale.of_trace trace in
  let ctx = Context.create ~seed ~cache_dir scale in
  let jobs = if jobs <= 0 then Pool.default_jobs () else jobs in
  Pool.with_pool ~jobs ~prof @@ fun pool ->
  let wants name = List.mem name only in
  let timed name f = phase ("section " ^ name) f in
  Format.fprintf std "MPPM benchmark harness: %a, seed %d@." Scale.pp scale
    seed;
  if wants "table1" || wants "table2" then run_tables ();
  if wants "fig3" then timed "fig3" (fun () -> run_fig3 ctx ~pool ~mixes);
  let accuracy_runs =
    if wants "fig4" || wants "fig5" || wants "fig6" || wants "fig9" then
      timed "fig4+fig5" (fun () ->
          run_accuracy ctx ~pool ~mixes
            ~sixteen_core_mixes:(if paper_scale then 25 else max 3 (mixes / 8)))
    else []
  in
  let four_core =
    List.find_opt (fun r -> r.Accuracy.cores = 4) accuracy_runs
  in
  (match four_core with
  | Some run ->
      if wants "fig6" then timed "fig6" (fun () -> run_fig6 ctx run);
      if wants "fig9" then timed "fig9" (fun () -> run_fig9 run)
  | None -> ());
  if wants "fig7" || wants "fig8" then
    timed "fig7+fig8" (fun () -> run_fig7_8 ctx ~pool ~paper_scale);
  if wants "speed" then timed "speed" (fun () -> run_speed ctx);
  if wants "ablation" then
    timed "ablation" (fun () -> run_ablation ctx ~pool ~mixes);
  if wants "derivation" then
    timed "derivation" (fun () -> run_derivation ctx ~pool ~mixes);
  if wants "partition" then
    timed "partition" (fun () -> run_partition ctx ~pool ~mixes);
  if wants "bandwidth" then
    timed "bandwidth" (fun () ->
        run_bandwidth ~seed ~cache_dir scale ~pool ~mixes);
  if wants "cophase" then timed "cophase" (fun () -> run_cophase ctx ~mixes);
  if wants "simpoint" then timed "simpoint" (fun () -> run_simpoint ctx ~mixes);
  if Option.is_some (Prof.pool_stats prof) then
    Format.printf "@.%a@." Prof.pp_pool prof;
  (match trace_phases with
  | None -> ()
  | Some path -> write_phase_trace ~path prof);
  Printf.printf "\ndone.\n"

open Cmdliner

let trace =
  Arg.(
    value & opt int 2_000_000
    & info [ "trace" ] ~doc:"Trace length in instructions.")

let mixes =
  Arg.(
    value & opt int 40
    & info [ "mixes" ]
        ~doc:"Workload mixes per accuracy experiment (paper: 150).")

let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Master random seed.")

let cache_dir =
  Arg.(
    value
    & opt string "_profile_cache"
    & info [ "cache" ] ~doc:"Profile cache directory.")

let only =
  Arg.(
    value
    & opt (list string) all_sections
    & info [ "only" ] ~doc:"Comma-separated sections to run.")

let paper_scale =
  Arg.(
    value & flag
    & info [ "paper" ] ~doc:"Use the paper's population sizes (slow).")

let csv =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~doc:"Also export figure data as CSV files into $(docv)."
        ~docv:"DIR")

let jobs =
  Arg.(
    value & opt int 0
    & info [ "jobs" ]
        ~doc:
          "Worker domains for mix populations (0 = \
           Domain.recommended_domain_count).  Results are bit-for-bit \
           identical for any value.")

let trace_phases =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-phases" ]
        ~doc:
          "Write the run's wall-clock timeline (phase spans + pool tasks \
           on per-domain lanes) as a Chrome trace_event file to $(docv) \
           (load in chrome://tracing or Perfetto)."
        ~docv:"FILE")

let cmd =
  let doc = "Regenerate the tables and figures of the MPPM paper." in
  Cmd.v
    (Cmd.info "mppm-bench" ~doc)
    Term.(
      const run $ trace $ mixes $ seed $ cache_dir $ only $ paper_scale $ csv
      $ jobs $ trace_phases)

let () =
  try exit (Cmd.eval ~catch:false cmd)
  with Failure msg ->
    prerr_endline ("mppm-bench: " ^ msg);
    exit 2
