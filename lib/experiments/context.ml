module Rng = Mppm_util.Rng
module Configs = Mppm_cache.Configs
module Hierarchy = Mppm_cache.Hierarchy
module Suite = Mppm_trace.Suite
module Single_core = Mppm_simcore.Single_core
module Private_stream = Mppm_simcore.Private_stream
module Core_model = Mppm_simcore.Core_model
module Core_engine = Mppm_simcore.Core_engine
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
  bandwidth : float option;  (* mppm: unit cycles *)
  seed : int;
  cache_dir : string;
  profiles : (int * int, Profile.t) Single_flight.t;  (* (llc_config, bench) *)
  streams : (int, string * (int * Profile.t) option) Single_flight.t;
      (* per benchmark: the stream's path, and the profile whose live
         build recorded it, with its config *)
  segments : (int * int, string) Single_flight.t;
      (* per (benchmark, k >= 1): the path of the stream's segment k *)
  offsets : int array;  (* per-core-slot address offsets *)
}

let max_cores = 16

let create ?bandwidth ?(seed = 42) ~cache_dir scale =
  (* Another process may create the directory between the check and the
     mkdir. *)
  (try Sys.mkdir cache_dir 0o755
   with Sys_error _ when Sys.file_exists cache_dir -> ());
  {
    scale;
    bandwidth;
    seed;
    cache_dir;
    profiles = Single_flight.create ~metric:"profile_cache" ();
    streams = Single_flight.create ~metric:"stream_cache" ();
    segments = Single_flight.create ~metric:"stream_cache" ();
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
  (* The digest covers everything the profile depends on — including the
     serialization format version, so entries written by an older
     (lossier) writer read as stale, never as the requested profile.  The
     channel joins it only when there is one, so the paper's machine keeps
     its names. *)
  let benchmark = Suite.all.(bench_index) in
  let machine =
    Fingerprint.of_value
      ( benchmark,
        Core_model.default,
        hierarchy t ~llc_config,
        t.scale,
        Suite.seed_for benchmark.Mppm_trace.Benchmark.name,
        Profile.format_version )
  in
  let digest =
    Fingerprint.to_hex
      (match t.bandwidth with
      | None -> machine
      | Some cycles -> Fingerprint.add_string machine (Printf.sprintf "%h" cycles))
  in
  Filename.concat t.cache_dir
    (Printf.sprintf "%s-cfg%d-%s.prof" Suite.names.(bench_index) llc_config
       digest)

let compute_profile ?replay ?record t hierarchy bench_index =
  let benchmark = Suite.all.(bench_index) in
  Single_core.profile ?replay ?record
    (Single_core.config ?bandwidth:t.bandwidth hierarchy)
    ~benchmark
    ~seed:(Suite.seed_for benchmark.Mppm_trace.Benchmark.name)
    ~trace_instructions:t.scale.Scale.trace_instructions
    ~interval_instructions:t.scale.Scale.interval_instructions

(* ---- private streams -------------------------------------------------- *)

(* The stream depends on the benchmark, its seed, the trace length and the
   private levels, which all Table 2 configs share; not on the LLC, the
   core model or the memory channel, which change only timing. *)
let stream_path t bench_index =
  let benchmark = Suite.all.(bench_index) in
  let h = hierarchy t ~llc_config:1 in
  let digest =
    Fingerprint.to_hex
      (Fingerprint.of_value
         ( benchmark,
           (h.Hierarchy.l1i, h.Hierarchy.l1d, h.Hierarchy.l2),
           t.scale.Scale.trace_instructions,
           Suite.seed_for benchmark.Mppm_trace.Benchmark.name,
           Private_stream.format_version ))
  in
  Filename.concat t.cache_dir
    (Printf.sprintf "%s-stream-%s.stream" Suite.names.(bench_index) digest)

(* A stored stream is its Private_stream bytes followed by a footer: their
   digest and their length, 8 big-endian bytes each.  The bytes are
   written and checked in blocks of [block_bytes] (the last one short),
   and the digest folds each block's 8-byte words, then its last few
   bytes, into a 64-bit multiply-xor hash, so writing and checking see the
   same words. *)
let footer_bytes = 16
let block_bytes = 8192

let fold_digest h buf len =
  let h = ref h and words = len / 8 in
  for i = 0 to words - 1 do
    h := Int64.mul (Int64.logxor !h (Bytes.get_int64_le buf (8 * i))) 0x100000001b3L
  done;
  for i = 8 * words to len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get buf i)))) 0x100000001b3L
  done;
  !h

(* The FNV-1a 64 offset basis. *)
let digest_basis = 0xcbf29ce484222325L

(* Segment [k >= 1] of the stream at [stream_path] is at
   [segment_prefix ^ k ^ ".stream"]: stale with it. *)
let segment_prefix t bench_index =
  Filename.chop_suffix (stream_path t bench_index) ".stream" ^ "-seg"

let segment_path t bench_index k =
  Printf.sprintf "%s%d.stream" (segment_prefix t bench_index) k

let stream_header_args t bench_index =
  let benchmark = Suite.all.(bench_index) in
  ( benchmark,
    Suite.seed_for benchmark.Mppm_trace.Benchmark.name,
    t.scale.Scale.trace_instructions,
    hierarchy t ~llc_config:1 )

(* A stored segment's bytes.  The channel's 64 KB C buffer is freed only
   when the GC finalizes the closed channel (see {!detailed}). *)
let file_source path =
  let ic = open_in_bin path in
  { Private_stream.refill = input ic; close = (fun () -> close_in ic) }

(* Raises [Failure] unless [path] holds a length matching its footer, the
   footer's digest, and the header (magic, format version, seed, length,
   benchmark, private levels, position) of segment [segment] of this
   benchmark's stream in this context. *)
let check_stream t bench_index ~segment path =
  let fail msg =
    failwith (Printf.sprintf "Context.check_stream: %s: %s" path msg)
  in
  In_channel.with_open_bin path (fun ic ->
      let size = Int64.to_int (In_channel.length ic) in
      if size < footer_bytes then fail "too short";
      let content = size - footer_bytes in
      let block = Bytes.create block_bytes in
      let rec fold h left =
        if left = 0 then h
        else begin
          let n = min left block_bytes in
          really_input ic block 0 n;
          fold (fold_digest h block n) (left - n)
        end
      in
      let digest = fold digest_basis content in
      let footer = really_input_string ic footer_bytes in
      if Int64.to_int (String.get_int64_be footer 8) <> content then
        fail "length does not match the footer";
      if not (Int64.equal (String.get_int64_be footer 0) digest) then
        fail "digest mismatch";
      seek_in ic 0;
      let benchmark, seed, instructions, hierarchy =
        stream_header_args t bench_index
      in
      Private_stream.check_header ~segment ~benchmark ~seed ~instructions
        ~hierarchy
        { Private_stream.refill = input ic; close = ignore })

(* Writes the stream bytes [produce write] hands to [write] to [path],
   with their footer, and returns what [produce] does.  The bytes go to a
   ".tmp" file of this writer's own and are renamed into place, so neither
   a concurrent writer of the same segment (another process recording the
   same bytes) nor a reader ever sees a partial file. *)
let write_stream t path produce =
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o666
      ~temp_dir:t.cache_dir (Filename.basename path ^ ".") ".tmp"
  in
  let result =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        (* Whole blocks go out unbuffered: the channel then touches a
           block's worth of its 64 KB C buffer instead of all of it, and
           the GC frees a closed channel's buffer only when it gets round
           to finalizing it. *)
        Out_channel.set_buffered oc false;
        let block = Bytes.create block_bytes in
        let filled = ref 0 and digest = ref digest_basis and length = ref 0 in
        let emit () =
          digest := fold_digest !digest block !filled;
          Out_channel.output oc block 0 !filled;
          length := !length + !filled;
          filled := 0
        in
        let rec write buf pos len =
          let n = min len (block_bytes - !filled) in
          Bytes.blit buf pos block !filled n;
          filled := !filled + n;
          if !filled = block_bytes then emit ();
          if n < len then write buf (pos + n) (len - n)
        in
        let result = produce write in
        emit ();
        let footer = Bytes.create footer_bytes in
        Bytes.set_int64_be footer 0 !digest;
        Bytes.set_int64_be footer 8 (Int64.of_int !length);
        Out_channel.output_bytes oc footer;
        result)
  in
  Sys.rename tmp path;
  result

(* A segment at [path]: a hit if the file passes [check], else recorded
   by [record] (a miss, and also corrupt if a file was there). *)
let cached_stream path ~check ~record =
  if Sys.file_exists path then (
    match check () with
    | () ->
        Registry.incr "stream_cache.hits";
        None
    | exception Failure _ ->
        Registry.incr "stream_cache.misses";
        Registry.incr "stream_cache.corrupt";
        Some (record ()))
  else begin
    Registry.incr "stream_cache.misses";
    Some (record ())
  end

(* Benchmark [bench_index]'s stream, memoized per context: a checked cache
   file, or recorded by a live build of its [llc_config] profile, which
   comes back with it. *)
let stream_entry t ~llc_config bench_index =
  Single_flight.get t.streams bench_index (fun _ ->
      let path = stream_path t bench_index in
      let benchmark, seed, instructions, h = stream_header_args t bench_index in
      ( path,
        cached_stream path
          ~check:(fun () -> check_stream t bench_index ~segment:0 path)
          ~record:(fun () ->
            write_stream t path (fun write ->
                ( llc_config,
                  compute_profile t (hierarchy t ~llc_config) bench_index
                    ~record:
                      (Private_stream.recorder ~benchmark ~seed ~instructions
                         ~hierarchy:h write) ))) ))

(* Segment [k >= 1] of benchmark [bench_index]'s stream, memoized per
   context: a checked cache file, or recorded on first demand from
   [trailer], segment [k - 1]'s trailer, by the replay that needs it. *)
let segment_entry t bench_index k ~trailer =
  Single_flight.get t.segments (bench_index, k) (fun _ ->
      let path = segment_path t bench_index k in
      let benchmark, seed, instructions, h = stream_header_args t bench_index in
      let record () =
        write_stream t path (fun write ->
            Core_engine.record_segment h ~benchmark ~seed ~trailer
              (Private_stream.recorder ~segment:k ~benchmark ~seed
                 ~instructions ~hierarchy:h write));
        (* The recording's caches, generator and channel are garbage now,
           and the replay it serves allocates nothing that would pace the
           GC into collecting them. *)
        Gc.major ()
      in
      ignore
        (cached_stream path
           ~check:(fun () -> check_stream t bench_index ~segment:k path)
           ~record);
      path)

(* A reader of benchmark [bench_index]'s stream at [path]; [chained]
   makes it replay on through segments 1, 2, ... *)
let open_stream ?(chained = false) t bench_index path =
  let benchmark, seed, instructions, hierarchy =
    stream_header_args t bench_index
  in
  let next ~segment ~trailer =
    file_source (segment_entry t bench_index segment ~trailer)
  in
  Private_stream.reader
    ?next:(if chained then Some next else None)
    ~benchmark ~seed ~instructions ~hierarchy (file_source path)

(* Benchmark [bench_index]'s profile on [hierarchy], replayed from its
   stream at [path]. *)
let replay_profile t hierarchy bench_index path =
  let replay = open_stream t bench_index path in
  Fun.protect
    ~finally:(fun () -> Private_stream.close replay)
    (fun () -> compute_profile t hierarchy bench_index ~replay)

(* The first build of a benchmark's profiles records its stream; every
   other build replays it. *)
let build_profile t ~llc_config bench_index =
  match stream_entry t ~llc_config bench_index with
  | _, Some (recorded_on, p) when Int.equal recorded_on llc_config -> p
  | path, _ -> replay_profile t (hierarchy t ~llc_config) bench_index path

(* Cache-directory entries for benchmark [bench_index] at [llc_config] whose
   fingerprint digest no longer matches: the human-readable
   "name-cfgN-" prefix is recognized but the digest differs, i.e. some
   profile input (the machine, scale, seed, spec) changed. *)
let stale_siblings t ~llc_config bench_index =
  let live_base = Filename.basename (cache_path t ~llc_config bench_index) in
  let prefix = Printf.sprintf "%s-cfg%d-" Suite.names.(bench_index) llc_config in
  Array.fold_left
    (fun acc f ->
      if
        f <> live_base
        && String.starts_with ~prefix f
        && Filename.check_suffix f ".prof"
      then acc + 1
      else acc)
    0 (Sys.readdir t.cache_dir)

(* The memo table is a single-flight front (one computation per key,
   shared by concurrent pool workers); memo hits keep their historical
   counter name through the table's [~metric]. *)
let profile t ~llc_config bench_index =
  if bench_index < 0 || bench_index >= Suite.count then
    invalid_arg "Context.profile: bad benchmark index";
  let recompute path =
    let p = build_profile t ~llc_config bench_index in
    Profile.save p path;
    p
  in
  Single_flight.get t.profiles (llc_config, bench_index) (fun _ ->
      let path = cache_path t ~llc_config bench_index in
      if Sys.file_exists path then (
        match Profile.load path with
        | p ->
            Registry.incr "profile_cache.hits";
            p
        | exception Failure _ ->
            (* A corrupt entry is a miss; the atomic save replaces it. *)
            Registry.incr "profile_cache.misses";
            Registry.incr "profile_cache.corrupt";
            recompute path)
      else begin
        Registry.incr "profile_cache.misses";
        Registry.add "profile_cache.stale"
          (float_of_int (stale_siblings t ~llc_config bench_index));
        recompute path
      end)

type cache_report = {
  cr_live : string list;
  cr_stale : string list;
  cr_tmp : string list;
  cr_foreign : string list;
}

let scan_cache t =
  (* Basenames every (benchmark, Table 2 config) pair maps to under the
     current context settings. *)
  let live_names = Hashtbl.create ~random:false 128 in
  let live path = Hashtbl.replace live_names (Filename.basename path) () in
  for i = 0 to Suite.count - 1 do
    live (stream_path t i);
    for cfg = 1 to Configs.llc_config_count do
      live (cache_path t ~llc_config:cfg i)
    done
  done;
  (* Segments "name-stream-<digest>-segK.stream" of a live stream. *)
  let segment_prefixes =
    Array.init Suite.count (fun i -> Filename.basename (segment_prefix t i))
  in
  let live_segment f =
    Filename.check_suffix f ".stream"
    && Array.exists
         (fun prefix ->
           String.starts_with ~prefix f
           &&
           let digits =
             String.sub f (String.length prefix)
               (String.length f - String.length prefix - String.length ".stream")
           in
           match int_of_string_opt digits with
           | Some k -> k >= 1 && String.equal digits (string_of_int k)
           | None -> false)
         segment_prefixes
  in
  (* "name-cfgN-<digest>.prof" profiles and "name-stream-<digest>*.stream"
     private streams and their segments. *)
  let recognized f =
    let named kind suffix =
      Filename.check_suffix f suffix
      && Array.exists
           (fun name ->
             String.starts_with ~prefix:(Printf.sprintf "%s-%s-" name kind) f)
           Suite.names
    in
    named "stream" ".stream"
    || List.exists
         (fun cfg -> named (Printf.sprintf "cfg%d" cfg) ".prof")
         (List.init Configs.llc_config_count (fun c -> c + 1))
  in
  let files = Sys.readdir t.cache_dir in
  Array.sort compare files;
  Array.fold_left
    (fun report f ->
      if Filename.check_suffix f ".tmp" then
        (* An orphaned atomic-write staging file: writers rename these
           away on success, so a survivor is an interrupted writer's
           leftover. *)
        { report with cr_tmp = f :: report.cr_tmp }
      else if Hashtbl.mem live_names f || live_segment f then
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
  }

let prune_cache t =
  let report = scan_cache t in
  let doomed = report.cr_stale @ report.cr_tmp in
  List.iter (fun f -> Sys.remove (Filename.concat t.cache_dir f)) doomed;
  doomed

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
  (* The profiles first: building them records any stream not yet
     stored, so every slot replays. *)
  let m_cpi_single = cpi_single t ~llc_config mix in
  let replays = Array.make (Array.length indices) None in
  (try
     Array.iteri
       (fun slot i ->
         replays.(slot) <-
           Some
             (open_stream ~chained:true t i (fst (stream_entry t ~llc_config i))))
       indices
   with e ->
     Array.iter (Option.iter Private_stream.close) replays;
     raise e);
  let detail =
    Multi_core.run ~replays
      (Multi_core.config ?llc_partition ?bandwidth:t.bandwidth
         (hierarchy t ~llc_config))
      ~programs:specs
      ~trace_instructions:t.scale.Scale.trace_instructions
  in
  (* Each segment a slot read, and each one recorded, held a channel with
     a 64 KB C buffer that only the GC's finalizer frees; finish the major
     cycle to keep a pass's worth of them from piling up. *)
  Gc.major ();
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

let llc_sdc t ~llc bench_index =
  let base = hierarchy t ~llc_config:1 in
  let path, _ = stream_entry t ~llc_config:1 bench_index in
  let p =
    replay_profile t
      { base with Hierarchy.llc = { base.Hierarchy.llc with geometry = llc } }
      bench_index path
  in
  (Profile.totals p).Profile.sdc
