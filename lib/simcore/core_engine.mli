(** One core executing one program against a cache hierarchy: the engine
    shared by the single-core profiler and the detailed multi-core
    simulator.

    The engine's front end is a source: either live — a generator
    ({!Mppm_trace.Generator.emit}) feeding the private caches, optionally
    teeing their outcomes into a {!Private_stream.recorder} — or a
    {!Private_stream.reader} replaying such a recording, which hands back
    the same blocks, fetch and data level codes and LLC-bound addresses
    without running the generator or the L1/L2.  Both feed the same clock
    arithmetic, so a replayed core's counters equal a live one's bit for
    bit.  A replayed core never goes live: a chained reader crosses into
    the stream's next segment wherever a block reaches past the current
    one, and {!record_segment}, the live front end alone, records that
    segment from the previous one's trailer (generator, fetch debt and
    private-cache state) the first time it is needed.

    The engine pulls blocks from its source,
    charges base CPI for every retired instruction, issues one instruction
    fetch per {!Mppm_trace.Generator.instructions_per_fetch} instructions,
    sends
    data references through the hierarchy, and accounts exposed stalls per
    {!Core_model}.  It additionally maintains a memory-CPI counter in the
    style of Eyerman et al.'s CPI-stack counter architecture: every access
    that misses the LLC adds the stall it suffered {e beyond} what an LLC
    hit would have cost.

    The per-block path allocates nothing: cache outcomes and hierarchy
    levels come back as int codes, the generator leaves each block in its
    own fields, and the cycle counters live in an all-float {!clock}. *)

type t
(** A core bound to its generator and hierarchy, with running counters. *)

type clock = private {
  mutable cycles : float;  (** total cycles consumed *)  (* mppm: unit cycles *)
  mutable memory_stall_cycles : float;  (* mppm: unit cycles *)
      (** cycles attributed to LLC misses by the counter architecture *)
}
(** The engine's running cycle counters, updated in place by {!step}.
    Reading a field is a plain load with no call and no boxing, which is
    how the multi-core scheduler compares the cores' clocks per op. *)

val create :
  ?sdc_profiler:Mppm_cache.Sdc_profiler.t ->
  ?memory_channel:Memory_channel.t ->
  ?compute_scale:float ->
  ?llc_offset:int ->
  ?replay:Private_stream.reader ->
  ?record:Private_stream.recorder ->
  params:Core_model.params ->
  hierarchy:Mppm_cache.Hierarchy.t ->
  generator:Mppm_trace.Generator.t ->
  unit ->
  t
(** [create ~sdc_profiler ~memory_channel ~params ~hierarchy ~generator ()]
    wires a core.  If [sdc_profiler] is given, the LLC outcome of every
    access (data and fetch) is recorded into it — this is how single-core
    profiling collects SDCs without a second cache image.  If
    [memory_channel] is given, every LLC miss requests the channel and its
    queueing delay is exposed like the rest of the miss latency (shared
    channels model bandwidth contention; a private channel models a
    program's self-queueing).

    [compute_scale] (default 1.0) models a heterogeneous "little" core: it
    multiplies every cycle cost {e except} the LLC-miss-attributable stall
    (off-chip latency does not change with core strength).  This matches
    the profile transformation little cores get on the MPPM side: compute
    cycles scale, memory-stall cycles do not.

    [llc_offset] (default 0) is added to every address at the LLC
    boundary only: the multi-core simulator's slot offset, applied where
    it matters (shared-cache sets) and nowhere else, so the private caches
    see the same addresses at every slot.  It must be a multiple of the
    private caches' line size, which makes it the same as offsetting the
    generator.

    [replay] makes the core replay a recorded private stream of
    [generator]'s benchmark (which must be fresh and is never run), for
    as long as the reader goes: without end if it is
    {!Private_stream.chained}, else up to its recorded length, where the
    reader is closed.  The private caches are not simulated, but their
    statistics are kept ({!Mppm_cache.Hierarchy.tally}).  [record]
    tees the live run into a recorder of segment 0, which gets its
    trailer when the core reaches the recorded length.  {!step}'s [cap]
    must not run past the recorded length of an unchained replay or of a
    recording in progress. *)

val step : t -> cap:int -> int  (* mppm: unit cap:insns -> insns *)
(** [step t ~cap] executes the next op block, retiring at most [cap]
    instructions, and returns the number retired.  Advances the cycle and
    counter state. *)

val retired : t -> int  (* mppm: unit insns *)
(** Total instructions retired. *)

val replayed : t -> int  (* mppm: unit insns *)
(** Instructions retired from a replayed stream: {!retired} for a core
    created with [~replay], 0 for a live one. *)

val record_segment :
  Mppm_cache.Hierarchy.config ->
  benchmark:Mppm_trace.Benchmark.t ->
  seed:int ->
  trailer:(unit -> int) ->
  Private_stream.recorder ->
  unit
(** [record_segment config ~benchmark ~seed ~trailer w] records segment
    [k >= 1] of [benchmark]'s private stream into [w] (created with
    [~segment:k]): it restores the fetch debt, a generator under [seed]
    and [config]'s private caches from [trailer], the state at the end of
    segment [k - 1] read int by int, and runs the generator and private
    caches live through segment [k], with no LLC and no clock.  The
    result is the segment a live core would have recorded there.  Raises
    [Failure] if the trailer does not end where segment [k] starts. *)

val hierarchy : t -> Mppm_cache.Hierarchy.t
(** The hierarchy this core drives, e.g. for
    {!Mppm_cache.Hierarchy.counters} observability snapshots. *)

val clock : t -> clock
(** The live counters of this core (aliases the engine's state). *)

val cycles : t -> float  (* mppm: unit cycles *)
(** Total cycles consumed. *)

val memory_stall_cycles : t -> float  (* mppm: unit cycles *)
(** Cycles attributed to LLC misses by the counter architecture. *)

val llc_accesses : t -> int  (* mppm: unit accesses *)
(** LLC lookups issued by this core. *)

val llc_misses : t -> int  (* mppm: unit accesses *)
(** LLC misses suffered by this core. *)

(** Snapshot of the running counters, used to compute per-interval or
    per-pass deltas. *)
type snapshot = {
  s_retired : int;
  s_cycles : float;
  s_memory_stall_cycles : float;
  s_llc_accesses : int;
  s_llc_misses : int;
}

val snapshot : t -> snapshot  (* mppm: unit snapshot *)
(** The counters as of now. *)

val since : t -> snapshot -> snapshot  (* mppm: unit snapshot *)
(** [since t s] is the counter delta between now and snapshot [s]. *)
