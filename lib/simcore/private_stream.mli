(** A benchmark's private-cache stream: what its L1I, L1D and L2 did, once,
    so that every later run can skip the generator and the private caches.

    A core's private outcomes depend only on its own access sequence: the
    private caches are per core and non-inclusive (no back-invalidation),
    the generator is timing-independent, and the order of fetches and data
    accesses into the L2 does not depend on how a consumer blocks its
    steps.  A line-aligned address offset only rotates the private caches'
    sets, so the outcomes are the same at every slot offset too.  The
    stream therefore depends on nothing but (benchmark, seed, private
    geometry, position).

    A stream is a chain of segments of one length [T]: segment [k] covers
    instructions [\[kT, (k+1)T)].  Segment 0 is teed from a live run
    ({!Core_engine.create} [~record]); segment [k + 1] is recorded from
    segment [k]'s trailer ({!Core_engine.record_segment}).  A {!reader}
    stands in for the generator and private caches of a later run
    ([~replay]); given a [~next] source it crosses from segment to segment
    on its own, so a consumer sees one unbroken stream.  Each segment
    holds, per data access, its distance from the previous one, its kind
    and private level code; per fetch, its private level code; the byte
    address only of accesses bound for the LLC; and a trailer with the
    generator, fetch-debt and private-cache state at its end, from which
    the next segment is recorded.

    Bytes leave and enter through caller-supplied functions in fixed-size
    chunks, so a stream is never resident: the caller decides where its
    segments are stored and owns their integrity check (length, digest). *)

val format_version : int
(** Bumped whenever the encoding changes; part of every stored stream's
    cache key, so older streams read as stale. *)

(** {1 Recording} *)

type recorder
(** A stream being written by a live run. *)

val recorder :  (* mppm: unit segment:1 -> benchmark:_ -> seed:1 -> instructions:insns -> recorder *)
  ?segment:int ->
  benchmark:Mppm_trace.Benchmark.t ->
  seed:int ->
  instructions:int ->
  hierarchy:Mppm_cache.Hierarchy.config ->
  (Bytes.t -> int -> int -> unit) ->
  recorder
(** [recorder ~segment ~benchmark ~seed ~instructions ~hierarchy write]
    starts segment [segment] (default 0) of the stream of [benchmark]
    under [seed] on [hierarchy]'s private levels: the [instructions]
    instructions from [segment * instructions] on.  Encoded bytes go to
    [write buf pos len] in chunks; the header is written at once. *)

val recorded_start : recorder -> int  (* mppm: unit insns *)
(** The position the recorded segment starts at. *)

val recorded_length : recorder -> int  (* mppm: unit insns *)
(** The length the recorder was created for. *)

val record_fetch : recorder -> level:int -> addr:int -> unit
(** Appends one fetch: its private level code ([0] L1I, [1] L2, [2] bound
    for the LLC) and, for [2], its byte address. *)

val record_access :  (* mppm: unit _ -> position:insns -> store:_ -> level:_ -> addr:bytes -> unit *)
  recorder -> position:int -> store:bool -> level:int -> addr:int -> unit
(** Appends one data access that retires at instruction [position]
    (counted from the start of the whole stream). *)

val finish_recording : recorder -> trailer:((int -> unit) -> unit) -> unit
(** [finish_recording w ~trailer] closes the event section at the end of
    the segment, writes the ints [trailer put] puts (the engine's state
    there) and hands the last chunk to [write]. *)

(** {1 Replay} *)

type source = {
  refill : Bytes.t -> int -> int -> int;
      (** [refill buf pos len] reads up to [len] bytes into [buf] at [pos]
          and returns the count read, [0] at the end *)
  close : unit -> unit;  (** releases the bytes' origin *)
}
(** Where one segment's bytes come from. *)

type reader
(** A cursor over a stored stream, standing in for a generator and the
    private caches. *)

val reader :  (* mppm: unit next:_ -> benchmark:_ -> seed:1 -> instructions:insns -> reader *)
  ?next:(segment:int -> trailer:(unit -> int) -> source) ->
  benchmark:Mppm_trace.Benchmark.t ->
  seed:int ->
  instructions:int ->
  hierarchy:Mppm_cache.Hierarchy.config ->
  source ->
  reader
(** [reader ~benchmark ~seed ~instructions ~hierarchy source] opens a
    stream whose segment 0, of length [instructions], comes from [source],
    and checks its header against the arguments.  Without [next] the
    replay ends with segment 0.  With it, the reader moves on to segment
    [k] when a block reaches past segment [k - 1]: [next ~segment:k
    ~trailer] supplies segment [k]'s bytes; [trailer ()], if called
    before [next] returns, reads segment [k - 1]'s trailer int by int
    (the state to record segment [k] from, see
    {!Core_engine.record_segment}).  Each segment's source is
    closed once the reader is past it, and the current one when the
    replay ends or {!close} is called.  Raises [Failure "Private_stream:
    ..."] on a malformed or mismatched segment (closing [source] if it is
    segment 0's header). *)

val check_header :  (* mppm: unit segment:1 -> benchmark:_ -> seed:1 -> instructions:insns -> hierarchy:_ -> _ -> unit *)
  segment:int ->
  benchmark:Mppm_trace.Benchmark.t ->
  seed:int ->
  instructions:int ->
  hierarchy:Mppm_cache.Hierarchy.config ->
  source ->
  unit
(** [check_header ~segment ... source] reads a segment header from
    [source] and raises [Failure "Private_stream: ..."] unless it is the
    header of segment [segment] of that stream.  It does not close
    [source]. *)

val matches :
  reader -> benchmark:Mppm_trace.Benchmark.t ->
  hierarchy:Mppm_cache.Hierarchy.config -> bool
(** Whether the stream was recorded for this benchmark and these private
    levels. *)

val close : reader -> unit
(** Releases the current segment's source; idempotent. *)

val recorded_end : reader -> int  (* mppm: unit insns *)
(** The length of segment 0 (and of every other). *)

val chained : reader -> bool
(** Whether the reader was given [~next]: it then replays without end,
    else it covers instructions [\[0, recorded_end)]. *)

val current_phase : reader -> Mppm_trace.Benchmark.phase
(** The phase the next instruction belongs to, as
    {!Mppm_trace.Generator.current_phase}. *)

val emit : reader -> cap:int -> int  (* mppm: unit _ -> cap:insns -> insns *)
(** The block {!Mppm_trace.Generator.emit} would produce under the same
    [cap], also where it spans a segment boundary.  Without [next], [cap]
    must not run past {!recorded_end}. *)

val emitted_kind : reader -> int  (* mppm: unit _ -- access-kind code *)
(** As {!Mppm_trace.Generator.emitted_kind}, for the latest {!emit}. *)

val take_fetch : reader -> int  (* mppm: unit _ -- private level code *)
(** The private level code of the next fetch; on [2], {!addr} holds its
    byte address. *)

val take_access : reader -> int  (* mppm: unit _ -- private level code *)
(** The private level code of the data access the latest {!emit} ended
    in, to be taken after that block's fetches; on [2], {!addr} holds its
    byte address. *)

val addr : reader -> int  (* mppm: unit bytes *)
(** Byte address (without any slot offset) of the latest LLC-bound
    {!take_fetch} or {!take_access}. *)
