module Rng = Mppm_util.Rng
module Configs = Mppm_cache.Configs
module Suite = Mppm_trace.Suite
module Single_core = Mppm_simcore.Single_core
module Core_model = Mppm_simcore.Core_model
module Multi_core = Mppm_multicore.Multi_core
module Profile = Mppm_profile.Profile
module Model = Mppm_core.Model
module Metrics = Mppm_core.Metrics
module Mix = Mppm_workload.Mix
module Category = Mppm_workload.Category
module Fingerprint = Mppm_util.Fingerprint
module Registry = Mppm_obs.Registry
module Pool = Mppm_pool.Pool
module Single_flight = Mppm_pool.Single_flight

type t = {
  scale : Scale.t;
  core : Core_model.params;
  seed : int;
  cache_dir : string option;
  profiles : (int * int, Profile.t) Single_flight.t;  (* (llc_config, bench) *)
  offsets : int array;  (* per-core-slot address offsets *)
}

let max_cores = 16

let create ?(core = Core_model.default) ?(seed = 42) ?cache_dir scale =
  (match cache_dir with
  | Some dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  | None -> ());
  {
    scale;
    core;
    seed;
    cache_dir;
    profiles = Single_flight.create ~metric:"profile_cache" ();
    offsets = Multi_core.default_offsets ~seed max_cores;
  }

let scale t = t.scale
let seed t = t.seed

let rng t purpose =
  (* Derive a purpose-specific seed so experiment arms stay independent. *)
  let h = ref t.seed in
  String.iter (fun c -> h := (!h * 31) + Char.code c) purpose;
  Rng.create ~seed:(!h land max_int)

let model_params t =
  Model.default_params ~trace_instructions:t.scale.Scale.trace_instructions

let hierarchy _t ~llc_config = Configs.baseline ~llc:llc_config ()

let cache_path t ~llc_config bench_index =
  Option.map
    (fun dir ->
      (* The digest covers everything the profile depends on — including
         the serialization format version, so entries written by an older
         (lossier) writer read as stale, never as the requested
         profile. *)
      let benchmark = Suite.all.(bench_index) in
      let digest =
        Fingerprint.to_hex
          (Fingerprint.of_value
             ( benchmark,
               t.core,
               hierarchy t ~llc_config,
               t.scale,
               Suite.seed_for benchmark.Mppm_trace.Benchmark.name,
               Profile.format_version ))
      in
      Filename.concat dir
        (Printf.sprintf "%s-cfg%d-%s.prof" Suite.names.(bench_index)
           llc_config digest))
    t.cache_dir

let compute_profile t ~llc_config bench_index =
  let benchmark = Suite.all.(bench_index) in
  Single_core.profile
    (Single_core.config ~core:t.core (hierarchy t ~llc_config))
    ~benchmark
    ~seed:(Suite.seed_for benchmark.Mppm_trace.Benchmark.name)
    ~trace_instructions:t.scale.Scale.trace_instructions
    ~interval_instructions:t.scale.Scale.interval_instructions

(* Cache-directory entries for benchmark [bench_index] at [llc_config] whose
   fingerprint digest no longer matches: the human-readable
   "name-cfgN-" prefix is recognized but the digest differs, i.e. some
   profile input (core params, hierarchy, scale, seed, spec) changed. *)
let stale_siblings t ~llc_config bench_index =
  match (t.cache_dir, cache_path t ~llc_config bench_index) with
  | Some dir, Some live ->
      let live_base = Filename.basename live in
      let prefix =
        Printf.sprintf "%s-cfg%d-" Suite.names.(bench_index) llc_config
      in
      Array.fold_left
        (fun acc f ->
          if
            f <> live_base
            && String.starts_with ~prefix f
            && Filename.check_suffix f ".prof"
          then acc + 1
          else acc)
        0 (Sys.readdir dir)
  | _ -> 0

(* The memo table is a single-flight front (one computation per key,
   shared by concurrent pool workers); memo hits keep their historical
   counter name through the table's [~metric]. *)
let profile t ~llc_config bench_index =
  if bench_index < 0 || bench_index >= Suite.count then
    invalid_arg "Context.profile: bad benchmark index";
  let recompute path =
    let p = compute_profile t ~llc_config bench_index in
    Profile.save p path;
    p
  in
  Single_flight.get t.profiles (llc_config, bench_index) (fun _ ->
      match cache_path t ~llc_config bench_index with
      | Some path when Sys.file_exists path -> (
          match Profile.load path with
          | p ->
              Registry.incr "profile_cache.hits";
              p
          | exception Failure _ ->
              (* A corrupt entry is a miss; the atomic save replaces it. *)
              Registry.incr "profile_cache.misses";
              Registry.incr "profile_cache.corrupt";
              recompute path)
      | Some path ->
          Registry.incr "profile_cache.misses";
          Registry.add "profile_cache.stale"
            (float_of_int (stale_siblings t ~llc_config bench_index));
          recompute path
      | None ->
          Registry.incr "profile_cache.misses";
          compute_profile t ~llc_config bench_index)

type cache_report = {
  cr_live : string list;
  cr_stale : string list;
  cr_tmp : string list;
  cr_foreign : string list;
}

let scan_cache t =
  Option.map
    (fun dir ->
      (* Basenames every (benchmark, Table 2 config) pair maps to under the
         current context settings. *)
      let live_names = Hashtbl.create ~random:false 128 in
      for cfg = 1 to Configs.llc_config_count do
        for i = 0 to Suite.count - 1 do
          match cache_path t ~llc_config:cfg i with
          | Some p -> Hashtbl.replace live_names (Filename.basename p) ()
          | None -> ()
        done
      done;
      let recognized f =
        Filename.check_suffix f ".prof"
        && Array.exists
             (fun name ->
               let rec try_cfg cfg =
                 cfg <= Configs.llc_config_count
                 && (String.starts_with
                       ~prefix:(Printf.sprintf "%s-cfg%d-" name cfg)
                       f
                    || try_cfg (cfg + 1))
               in
               try_cfg 1)
             Suite.names
      in
      let files = Sys.readdir dir in
      Array.sort compare files;
      Array.fold_left
        (fun report f ->
          if Filename.check_suffix f ".tmp" then
            (* An orphaned atomic-write staging file: Profile.save renames
               these away on success, so a survivor is an interrupted
               writer's leftover. *)
            { report with cr_tmp = f :: report.cr_tmp }
          else if Hashtbl.mem live_names f then
            { report with cr_live = f :: report.cr_live }
          else if recognized f then
            { report with cr_stale = f :: report.cr_stale }
          else { report with cr_foreign = f :: report.cr_foreign })
        { cr_live = []; cr_stale = []; cr_tmp = []; cr_foreign = [] }
        files
      |> fun r ->
      {
        cr_live = List.rev r.cr_live;
        cr_stale = List.rev r.cr_stale;
        cr_tmp = List.rev r.cr_tmp;
        cr_foreign = List.rev r.cr_foreign;
      })
    t.cache_dir

let prune_cache t =
  match (t.cache_dir, scan_cache t) with
  | Some dir, Some report ->
      let doomed = report.cr_stale @ report.cr_tmp in
      List.iter (fun f -> Sys.remove (Filename.concat dir f)) doomed;
      doomed
  | _ -> []

let all_profiles ?pool t ~llc_config =
  match pool with
  | None -> Array.init Suite.count (fun i -> profile t ~llc_config i)
  | Some pool ->
      Pool.map pool
        (fun i -> profile t ~llc_config i)
        (Array.init Suite.count Fun.id)

let cpi_single t ~llc_config mix =
  Array.map
    (fun i -> Profile.cpi (profile t ~llc_config i))
    (Mix.indices mix)

type measured = {
  m_cpi_single : float array;
  m_cpi_multi : float array;
  m_slowdowns : float array;
  m_stp : float;
  m_antt : float;
  m_detail : Multi_core.result;
}

let detailed ?llc_partition t ~llc_config mix =
  let indices = Mix.indices mix in
  if Array.length indices > max_cores then
    invalid_arg "Context.detailed: mix larger than the supported core count";
  let specs =
    Array.mapi
      (fun slot bench_index ->
        let benchmark = Suite.all.(bench_index) in
        {
          Multi_core.benchmark;
          seed = Suite.seed_for benchmark.Mppm_trace.Benchmark.name;
          offset = t.offsets.(slot);
        })
      indices
  in
  let detail =
    Multi_core.run
      (Multi_core.config ~core:t.core ?llc_partition (hierarchy t ~llc_config))
      ~programs:specs
      ~trace_instructions:t.scale.Scale.trace_instructions
  in
  let m_cpi_single = cpi_single t ~llc_config mix in
  let m_cpi_multi =
    Array.map
      (fun p -> p.Multi_core.multicore_cpi)
      detail.Multi_core.programs
  in
  {
    m_cpi_single;
    m_cpi_multi;
    m_slowdowns = Metrics.slowdowns ~cpi_single:m_cpi_single ~cpi_multi:m_cpi_multi;
    m_stp = Metrics.stp ~cpi_single:m_cpi_single ~cpi_multi:m_cpi_multi;
    m_antt = Metrics.antt ~cpi_single:m_cpi_single ~cpi_multi:m_cpi_multi;
    m_detail = detail;
  }

let mix_profiles t ~llc_config mix =
  Array.map (fun i -> profile t ~llc_config i) (Mix.indices mix)

let predict ?obs t ~llc_config mix =
  Model.predict_profiles ?obs (model_params t) (mix_profiles t ~llc_config mix)

let predict_with ?obs t ~params ~llc_config mix =
  Model.predict_profiles ?obs params (mix_profiles t ~llc_config mix)

let predict_static t ~llc_config mix =
  Mppm_core.Static_model.predict Mppm_core.Static_model.default_params
    (mix_profiles t ~llc_config mix)

let categories t ~llc_config =
  Category.classify_profiles (all_profiles t ~llc_config)
