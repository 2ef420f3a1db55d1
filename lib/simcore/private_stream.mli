(** A benchmark's private-cache stream: what its L1I, L1D and L2 did, once,
    so that every later run can skip the generator and the private caches.

    A core's private outcomes depend only on its own access sequence: the
    private caches are per core and non-inclusive (no back-invalidation),
    the generator is timing-independent, and the order of fetches and data
    accesses into the L2 does not depend on how a consumer blocks its
    steps.  A line-aligned address offset only rotates the private caches'
    sets, so the outcomes are the same at every slot offset too.  The
    stream therefore depends on nothing but (benchmark, seed, private
    geometry, length).

    A {!recorder} tees a live run ({!Core_engine.create} [~record]); a
    {!reader} stands in for the generator and private caches of a later
    run ([~replay]).  The stream holds, per data access, its distance from
    the previous one, its kind and private level code; per fetch, its
    private level code; the byte address only of accesses bound for the
    LLC; and a trailer with the generator, fetch-debt and private-cache
    state at the recorded length, from which the consumer continues live.

    Bytes leave and enter through caller-supplied functions in fixed-size
    chunks, so a stream is never resident: the caller decides where it is
    stored and owns its integrity check (length, digest). *)

val format_version : int
(** Bumped whenever the encoding changes; part of every stored stream's
    cache key, so older streams read as stale. *)

(** {1 Recording} *)

type recorder
(** A stream being written by a live run. *)

val recorder :  (* mppm: unit benchmark:_ -> seed:1 -> instructions:insns -> recorder *)
  benchmark:Mppm_trace.Benchmark.t ->
  seed:int ->
  instructions:int ->
  hierarchy:Mppm_cache.Hierarchy.config ->
  write:(Bytes.t -> int -> int -> unit) ->
  recorder
(** [recorder ~benchmark ~seed ~instructions ~hierarchy ~write] starts a
    stream of the first [instructions] instructions of [benchmark] under
    [seed] on [hierarchy]'s private levels.  Encoded bytes go to [write buf
    pos len] in chunks; the header is written at once. *)

val recorded_length : recorder -> int  (* mppm: unit insns *)
(** The length the recorder was created for. *)

val record_fetch : recorder -> level:int -> addr:int -> unit
(** Appends one fetch: its private level code ([0] L1I, [1] L2, [2] bound
    for the LLC) and, for [2], its byte address. *)

val record_access :  (* mppm: unit _ -> position:insns -> store:_ -> level:_ -> addr:bytes -> unit *)
  recorder -> position:int -> store:bool -> level:int -> addr:int -> unit
(** Appends one data access that retires at instruction [position]. *)

val finish_recording : recorder -> trailer:((int -> unit) -> unit) -> unit
(** [finish_recording w ~trailer] closes the event section at the recorded
    length, writes the ints [trailer put] puts (the engine's state there)
    and hands the last chunk to [write]. *)

(** {1 Replay} *)

type reader
(** A cursor over a stored stream, standing in for a generator and the
    private caches up to the recorded length. *)

val reader :  (* mppm: unit benchmark:_ -> seed:1 -> instructions:insns -> reader *)
  benchmark:Mppm_trace.Benchmark.t ->
  seed:int ->
  instructions:int ->
  hierarchy:Mppm_cache.Hierarchy.config ->
  refill:(Bytes.t -> int -> int -> int) ->
  close:(unit -> unit) ->
  reader
(** [reader ~benchmark ~seed ~instructions ~hierarchy ~refill ~close]
    opens a stream whose bytes come from [refill buf pos len] (returns the
    count read, [0] at the end) and checks its header against the
    arguments.  [close] runs once, when the replay ends or {!close} is
    called.  Raises [Failure "Private_stream: ..."] on a malformed or
    mismatched stream. *)

val matches :
  reader -> benchmark:Mppm_trace.Benchmark.t ->
  hierarchy:Mppm_cache.Hierarchy.config -> bool
(** Whether the stream was recorded for this benchmark and these private
    levels. *)

val close : reader -> unit
(** Releases the stream's source; idempotent. *)

val recorded_end : reader -> int  (* mppm: unit insns *)
(** The recorded length: replay covers instructions [0, recorded_end). *)

val current_phase : reader -> Mppm_trace.Benchmark.phase
(** The phase the next instruction belongs to, as
    {!Mppm_trace.Generator.current_phase}. *)

val emit : reader -> cap:int -> int  (* mppm: unit _ -> cap:insns -> insns *)
(** The block {!Mppm_trace.Generator.emit} would produce under the same
    [cap].  [cap] must not run past {!recorded_end}. *)

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

val trailer_int : reader -> int
(** Once {!retired} reaches {!recorded_end}, the next int of the trailer
    the recording's [~trailer] put. *)

val finish_replay : reader -> unit
(** [finish_replay r] checks that every trailer int was read and closes
    the source. *)
