(** Shared machinery for the paper's experiments: per-(benchmark, LLC
    config) profile management with a disk cache, detailed
    simulation of mixes, MPPM prediction of mixes, and the measured/
    predicted metric pairs every figure is built from. *)

type t
(** An experiment context: scale, seed, core-model parameters and the profile
    cache. *)

val create :
  ?core:Mppm_simcore.Core_model.params ->
  ?seed:int ->
  cache_dir:string ->
  Scale.t ->
  t
(** [create ~cache_dir scale] builds a context.  [cache_dir], created if
    absent, persists single-core profiles and private streams across runs
    (they are the "one-time cost" of Fig. 1).  [seed] (default 42) drives
    all sampling. *)

val scale : t -> Scale.t
(** The scale this context was created with. *)

val seed : t -> int  (* mppm: unit 1 *)
(** The master seed (default 42) all sampling derives from. *)

val rng : t -> string -> Mppm_util.Rng.t
(** [rng t purpose] is a fresh deterministic stream for the given purpose
    string; distinct purposes yield independent streams. *)

val model_params : t -> Mppm_core.Model.params
(** The MPPM parameters this context uses: {!Mppm_core.Model.default_params}
    (paper-faithful ratios) at the context's scale. *)

val cache_path : t -> llc_config:int -> int -> string
(** [cache_path t ~llc_config i] is the on-disk location of suite benchmark
    [i]'s profile in the cache directory.  The filename
    carries an explicit {!Mppm_util.Fingerprint} digest of everything the
    profile depends on (benchmark spec, core parameters, hierarchy, scale,
    profiling seed), so changing any of them changes the path and a stale
    cache entry is never mistaken for the requested profile. *)

val profile : t -> llc_config:int -> int -> Mppm_profile.Profile.t
(** [profile t ~llc_config i] is the single-core profile of suite benchmark
    [i] on LLC configuration [llc_config] (Table 2), computed on first use
    (or loaded from the cache directory) and memoized.  The memo table is
    a {!Mppm_pool.Single_flight} front, so concurrent pool workers
    requesting the same profile trigger exactly one computation and share
    the result.  Counts every lookup into {!Mppm_obs.Registry} under
    [profile_cache.*]: [memo_hits] (served from memory), [hits] (loaded
    from disk), [misses] (computed), [stale] (cache-directory entries
    for the requested benchmark/config whose fingerprint digest no longer
    matches) and [corrupt] (a live entry {!Mppm_profile.Profile.load}
    rejected: it counts as a miss, and the recomputed profile replaces
    the file atomically).

    A benchmark's first profile build runs live and records its private
    stream ({!Mppm_simcore.Private_stream}: what its L1I, L1D and L2 did,
    which no Table 2 config changes) in the same pass; its other builds,
    every {!detailed} slot and {!llc_sdc} replay that stream, with
    bit-identical results.  The stream's first segment is stored next to
    the profiles as ["name-stream-<digest>.stream"]; the segments a
    {!detailed} run reaches past it as
    ["name-stream-<digest>-segK.stream"] (see {!detailed}).  Every
    segment lookup is counted under [stream_cache.*]: [memo_hits],
    [hits] (a file passed its length, digest and header check), [misses]
    (recorded) and [corrupt] (a file failed the check: a miss, and it is
    recorded anew). *)

(** Classification of a profile-cache directory's contents. *)
type cache_report = {
  cr_live : string list;
      (** basenames some (benchmark, Table 2 config) profile, some
          benchmark's private stream or a segment [k >= 1] of it maps to
          under the current context settings *)
  cr_stale : string list;
      (** recognized ["name-cfgN-*.prof"] and ["name-stream-*.stream"]
          entries that are none of those: a segment is stale with its
          stream *)
  cr_tmp : string list;
      (** orphaned ["*.tmp"] staging files left by an interrupted atomic
          profile or stream write *)
  cr_foreign : string list;  (** everything else in the directory *)
}

val scan_cache : t -> cache_report
(** [scan_cache t] classifies every file of the cache directory.
    Basenames are sorted within each class. *)

val prune_cache : t -> string list
(** [prune_cache t] deletes the {!cache_report.cr_stale} entries and the
    orphaned {!cache_report.cr_tmp} staging files (live and foreign files
    are untouched) and returns the deleted basenames. *)

val all_profiles :
  ?pool:Mppm_pool.Pool.t -> t -> llc_config:int ->
  Mppm_profile.Profile.t array
(** Profiles of the whole suite, in suite order.  [pool] computes them in
    parallel (results are positional, so the array is identical to the
    sequential one). *)

val cpi_single : t -> llc_config:int -> Mppm_workload.Mix.t -> float array  (* mppm: unit cycles/insns *)
(** Isolated whole-trace CPI of each program of the mix. *)

(** The measured (detailed-simulation) view of one mix. *)
type measured = {
  m_cpi_single : float array;  (* mppm: unit cycles/insns *)
  m_cpi_multi : float array;  (* mppm: unit cycles/insns *)
  m_slowdowns : float array;  (* mppm: unit 1 *)
  m_stp : float;  (* mppm: unit 1 *)
  m_antt : float;  (* mppm: unit 1 *)
  m_detail : Mppm_multicore.Multi_core.result;
}

val detailed :
  ?llc_partition:int array ->
  t ->
  llc_config:int ->
  Mppm_workload.Mix.t ->
  measured
(** Runs the detailed multi-core simulator on the mix (program seeds match
    the profiling runs; per-slot address offsets are deterministic in the
    context seed).  [llc_partition] way-partitions the shared LLC per core
    slot.  Every slot replays its benchmark's private stream (see
    {!profile}) for the first pass and for every instruction past it: a
    slot that outruns a segment crosses into the next, which is read from
    the cache directory or, the first time any run needs it, recorded
    there from the previous segment's trailer, inside this call.  No
    instruction runs live, and the result equals an all-live
    {!Mppm_multicore.Multi_core.run} bit for bit. *)

val predict :
  ?obs:Mppm_obs.Trace.t ->
  t ->
  llc_config:int ->
  Mppm_workload.Mix.t ->
  Mppm_core.Model.result
(** Runs MPPM on the mix from cached profiles.  [obs] (default
    {!Mppm_obs.Trace.null}) receives the model's event stream; results are
    bit-for-bit independent of it. *)

val predict_with :
  ?obs:Mppm_obs.Trace.t ->
  t ->
  params:Mppm_core.Model.params ->
  llc_config:int ->
  Mppm_workload.Mix.t ->
  Mppm_core.Model.result
(** {!predict} with explicit model parameters (ablations, partition-aware
    contention, ...). *)

val predict_static :
  t -> llc_config:int -> Mppm_workload.Mix.t -> Mppm_core.Model.result
(** The phase-unaware {!Mppm_core.Static_model} baseline on the same
    profiles. *)

val hierarchy : t -> llc_config:int -> Mppm_cache.Hierarchy.config
(** The Table 1 hierarchy with LLC configuration [llc_config], at the
    context's scale. *)

val categories : t -> llc_config:int -> Mppm_workload.Category.t array
(** MEM/COMP classification of the suite from its profiles. *)

val llc_sdc : t -> llc:Mppm_cache.Geometry.t -> int -> Mppm_cache.Sdc.t
(** [llc_sdc t ~llc i] is the lifetime SDC of suite benchmark [i] on an
    LLC of geometry [llc]: its private stream (recorded first if absent,
    see {!profile}) replayed through the Table 1 hierarchy with that LLC.
    It counts the LLC-bound references, those that leave L1I, L1D and L2,
    fetches included.  At a Table 2 config's geometry it is the sum of
    that config's {!profile} interval SDCs, bit for bit.  Neither
    memoized nor stored. *)
