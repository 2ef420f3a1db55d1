module Benchmark = Mppm_trace.Benchmark
module Hierarchy = Mppm_cache.Hierarchy

(* File layout of segment k, which covers instructions [kT, (k+1)T) (all
   integers LEB128 varints):

     header   magic (8 bytes), format version, seed, segment length T,
              benchmark name, private-hierarchy key (length-prefixed);
              segments k >= 1 have a magic of their own and end the
              header with k
     events   per data access: a header word ((distance - 1) lsl 3 | store
              lsl 2 | level), then the fetch records since the previous
              access (a level byte each, followed by the byte address when
              the level is 2), then the access's own byte address when its
              level is 2.  Distances count from the previous access, or
              from kT for the segment's first.  A final header word with
              level 3 marks (k+1)T + 1, a position no consumer reaches in
              this segment; the fetch records up to (k+1)T follow it.
     trailer  zigzag-coded ints: the fetch debt, the generator state and
              the L1I, L1D and L2 states at instruction (k+1)T; then their
              count.

   Integrity (length and digest) belongs to whoever stores the bytes. *)

let magic = "MPPMPRV\x01"
let continuation_magic = "MPPMPRC\x01"
let format_version = 1
let chunk_bytes = 2048

(* Everything the private outcomes depend on besides the program: the
   geometry of the three private caches (all LRU). *)
let private_key (config : Hierarchy.config) =
  Mppm_util.Fingerprint.to_hex
    (Mppm_util.Fingerprint.of_value
       ( config.Hierarchy.l1i.Hierarchy.geometry,
         config.Hierarchy.l1d.Hierarchy.geometry,
         config.Hierarchy.l2.Hierarchy.geometry ))

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor -(z land 1)

(* ---- recording ------------------------------------------------------- *)

type recorder = {
  write : Bytes.t -> int -> int -> unit;
  out : Bytes.t;
  mutable out_len : int;
  (* Fetch records since the last data access: they follow its header,
     which is only known once the access is emitted. *)
  mutable pending : Bytes.t;
  mutable pending_len : int;
  recorded_start : int;
  recorded_length : int;
  mutable last_position : int;
  mutable finished : bool;
}

let flush w =
  w.write w.out 0 w.out_len;
  w.out_len <- 0

(* A varint never takes more bytes than this. *)
let max_varint = 10

(* Room for [n] more bytes in the chunk, flushing it if need be. *)
let reserve w n = if w.out_len + n > chunk_bytes then flush w

(* mppm: unit _ -- unsigned LEB128 of raw bits, into reserved room *)
let rec store_varint w n =
  if Int.equal (n land lnot 0x7f) 0 then begin
    Bytes.set w.out w.out_len (Char.unsafe_chr n);
    w.out_len <- w.out_len + 1
  end
  else begin
    Bytes.set w.out w.out_len (Char.unsafe_chr (n land 0x7f lor 0x80));
    w.out_len <- w.out_len + 1;
    store_varint w (n lsr 7)
  end

(* mppm: unit _ -- unsigned LEB128 of raw bits *)
let put_varint w n =
  reserve w max_varint;
  store_varint w n

let put_raw w s =
  String.iter
    (fun c ->
      reserve w 1;
      Bytes.set w.out w.out_len c;
      w.out_len <- w.out_len + 1)
    s

let put_string w s =
  put_varint w (String.length s);
  put_raw w s

(* mppm: unit _ -- raw byte *)
let pend_byte w b =
  if w.pending_len >= Bytes.length w.pending then begin
    (* mppm: cold — doubling; amortized over the whole recording *)
    let bigger = Bytes.create (2 * Bytes.length w.pending) in
    Bytes.blit w.pending 0 bigger 0 w.pending_len;
    w.pending <- bigger
  end;
  Bytes.set w.pending w.pending_len (Char.unsafe_chr b);
  w.pending_len <- w.pending_len + 1

(* mppm: unit _ -- unsigned LEB128 of raw bits *)
let rec pend_varint w n =
  if Int.equal (n land lnot 0x7f) 0 then pend_byte w n
  else begin
    pend_byte w (n land 0x7f lor 0x80);
    pend_varint w (n lsr 7)
  end

(* Moves the pending fetch records into the chunk, a chunk's room at a
   time. *)
(* mppm: unit _ -- byte offset into the pending records *)
let rec put_pending w from =
  if from < w.pending_len then begin
    if w.out_len >= chunk_bytes then flush w;
    let n = min (w.pending_len - from) (chunk_bytes - w.out_len) in
    Bytes.blit w.pending from w.out w.out_len n;
    w.out_len <- w.out_len + n;
    put_pending w (from + n)
  end
  else w.pending_len <- 0

let recorder ?(segment = 0) ~benchmark ~seed ~instructions ~hierarchy write =
  if instructions <= 0 then
    invalid_arg "Private_stream.recorder: instructions <= 0";
  if segment < 0 then invalid_arg "Private_stream.recorder: segment < 0";
  let w =
    {
      write;
      out = Bytes.create chunk_bytes;
      out_len = 0;
      pending = Bytes.create 4096;
      pending_len = 0;
      recorded_start = segment * instructions;
      recorded_length = instructions;
      last_position = segment * instructions;
      finished = false;
    }
  in
  put_raw w (if Int.equal segment 0 then magic else continuation_magic);
  put_varint w format_version;
  put_varint w (zigzag seed);
  put_varint w instructions;
  put_string w benchmark.Benchmark.name;
  put_string w (private_key hierarchy);
  if segment > 0 then put_varint w segment;
  w

let recorded_start w = w.recorded_start
let recorded_length w = w.recorded_length

let record_fetch w ~level ~addr =
  if level < 2 && w.pending_len < Bytes.length w.pending then begin
    Bytes.set w.pending w.pending_len (Char.unsafe_chr level);
    w.pending_len <- w.pending_len + 1
  end
  else begin
    pend_byte w level;
    if Int.equal level 2 then pend_varint w addr
  end

(* The access header, then the fetch records it was waiting for. *)
let put_header w ~position ~code =
  put_varint w (((position - w.last_position - 1) lsl 3) lor code);
  put_pending w 0;
  w.last_position <- position

let record_access w ~position ~store ~level ~addr =
  let header =
    ((position - w.last_position - 1) lsl 3) lor (if store then 4 else 0) lor level
  in
  let pending = w.pending_len in
  if header < 0x80 && w.out_len + pending < chunk_bytes then begin
    (* The common case: a one-byte header and a few fetch records, all
       fitting in the chunk. *)
    let out = w.out and at = w.out_len in
    Bytes.set out at (Char.unsafe_chr header);
    for i = 0 to pending - 1 do
      Bytes.set out (at + 1 + i) (Bytes.get w.pending i)
    done;
    w.out_len <- at + 1 + pending;
    w.pending_len <- 0;
    w.last_position <- position
  end
  else put_header w ~position ~code:(header land 7);
  if Int.equal level 2 then put_varint w addr

let finish_recording w ~trailer =
  if w.finished then invalid_arg "Private_stream.finish_recording: already finished";
  put_header w ~position:(w.recorded_start + w.recorded_length + 1) ~code:3;
  let count = ref 0 in
  trailer (fun n ->
      put_varint w (zigzag n);
      incr count);
  put_varint w !count;
  flush w;
  w.finished <- true

(* ---- replay ---------------------------------------------------------- *)

type source = {
  refill : Bytes.t -> int -> int -> int;
  close : unit -> unit;
}

type reader = {
  mutable source : source;  (* the current segment's bytes *)
  next : (segment:int -> trailer:(unit -> int) -> source) option;
  mutable buf : Bytes.t;
  mutable pos : int;
  mutable lim : int;
  side : Buffer.t;  (* fetch records set aside while crossing segments *)
  phases : Benchmark.phase array;
  durations : int array;
  mutable phase_idx : int;
  mutable phase_remaining : int;
  mutable retired : int;
  length : int;  (* of every segment *)
  stop : int;  (* the end of replay: [length], or max_int with [next] *)
  mutable segment : int;
  (* The next data access: instructions until it retires, store bit and
     private level (3 = the current segment's end marker). *)
  mutable distance : int;
  mutable next_store : bool;
  mutable next_level : int;
  mutable emitted_kind : int;
  mutable addr : int;
  mutable closed : bool;
  seed : int;
  name : string;
  key : string;
}

let corrupt fmt =
  Printf.ksprintf (fun msg -> failwith ("Private_stream: " ^ msg)) fmt

(* mppm: unit _ -- raw byte *)
let byte r =
  if r.pos >= r.lim then begin
    r.pos <- 0;
    r.lim <- r.source.refill r.buf 0 (Bytes.length r.buf);
    (* mppm: cold — a stream cut short *)
    if r.lim <= 0 then corrupt "truncated stream"
  end;
  let b = Char.code (Bytes.get r.buf r.pos) in
  r.pos <- r.pos + 1;
  b

(* mppm: unit _ -- unsigned LEB128 of raw bits *)
let rec varint_from r acc shift =
  let b = byte r in
  (* mppm: cold — corrupt input *)
  if shift > Sys.int_size then corrupt "varint overflow";
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if Int.equal (b land 0x80) 0 then acc else varint_from r acc (shift + 7)

(* mppm: unit _ -- unsigned LEB128 of raw bits *)
let varint r = varint_from r 0 0

let read_string r =
  let n = varint r in
  if n > 4096 then corrupt "implausible string length %d" n;
  String.init n (fun _ -> Char.chr (byte r))

let set_header r h =
  r.distance <- (h lsr 3) + 1;
  r.next_store <- not (Int.equal (h land 4) 0);
  r.next_level <- h land 3

let read_header r =
  let pos = r.pos in
  if pos < r.lim && Char.code (Bytes.get r.buf pos) < 0x80 then begin
    (* The common case: a one-byte header already in the chunk. *)
    r.pos <- pos + 1;
    set_header r (Char.code (Bytes.get r.buf pos))
  end
  else set_header r (varint r)

(* Raises unless the bytes ahead are the header of segment [segment] of
   this reader's stream. *)
let check_segment_header r ~segment =
  let check what ok = if not ok then corrupt "%s does not match" what in
  let magic = if Int.equal segment 0 then magic else continuation_magic in
  check "magic" (String.init (String.length magic) (fun _ -> Char.chr (byte r)) = magic);
  check "format version" (varint r = format_version);
  check "seed" (unzigzag (varint r) = r.seed);
  check "recorded length" (varint r = r.length);
  check "benchmark" (read_string r = r.name);
  check "private hierarchy" (read_string r = r.key);
  if segment > 0 then check "segment" (varint r = segment)

let make ?next ~benchmark ~seed ~instructions ~hierarchy source =
  let schedule = Array.of_list benchmark.Benchmark.schedule in
  {
    source;
    next;
    buf = Bytes.create chunk_bytes;
    pos = 0;
    lim = 0;
    side = Buffer.create 256;
    phases = Array.map fst schedule;
    durations = Array.map snd schedule;
    phase_idx = 0;
    phase_remaining = snd schedule.(0);
    retired = 0;
    length = instructions;
    stop = (match next with Some _ -> max_int | None -> instructions);
    segment = 0;
    distance = 0;
    next_store = false;
    next_level = 0;
    emitted_kind = 0;
    addr = 0;
    closed = false;
    seed;
    name = benchmark.Benchmark.name;
    key = private_key hierarchy;
  }

let check_header ~segment ~benchmark ~seed ~instructions ~hierarchy source =
  check_segment_header
    (make ~benchmark ~seed ~instructions ~hierarchy source)
    ~segment

let reader ?next ~benchmark ~seed ~instructions ~hierarchy source =
  let r = make ?next ~benchmark ~seed ~instructions ~hierarchy source in
  match
    check_segment_header r ~segment:0;
    read_header r
  with
  | () -> r
  | exception e ->
      source.close ();
      raise e

let close r =
  if not r.closed then begin
    r.closed <- true;
    r.source.close ()
  end

let matches r ~benchmark ~hierarchy =
  String.equal r.name benchmark.Benchmark.name
  && String.equal r.key (private_key hierarchy)

let recorded_end r = r.length
let chained r = Option.is_some r.next
let current_phase r = r.phases.(r.phase_idx)
let emitted_kind r = r.emitted_kind
let addr r = r.addr

(* The generator's phase clock ([Generator.advance]). *)
let advance r k =
  r.retired <- r.retired + k;
  r.phase_remaining <- r.phase_remaining - k;
  if Int.equal r.phase_remaining 0 then begin
    r.phase_idx <- (r.phase_idx + 1) mod Array.length r.phases;
    r.phase_remaining <- r.durations.(r.phase_idx)
  end

(* Moves the next fetch record to the side buffer. *)
let set_fetch_aside r =
  let level = byte r in
  if level > 2 then corrupt "bad fetch level %d" level;
  Buffer.add_char r.side (Char.unsafe_chr level);
  let rec address () =
    let b = byte r in
    Buffer.add_char r.side (Char.unsafe_chr b);
    if b >= 0x80 then address ()
  in
  if Int.equal level 2 then address ()

(* The current segment ends before the next data access retires, and a
   block is about to reach past its end: move on to the next segment.  The
   bytes ahead are this segment's fetch records up to its end, then its
   trailer.  The fetch records are set aside, [next] supplies the next
   segment (reading the trailer only if it has to record that segment),
   and the records are put back in front of the next segment's, so the
   consumer takes them in order and the pending distance spans the
   boundary: a block is never cut there. *)
let cross r =
  match r.next with
  | None -> corrupt "data access past the recorded length"
  | Some next ->
      let boundary = (r.segment + 1) * r.length in
      let per_fetch = Mppm_trace.Generator.instructions_per_fetch in
      Buffer.clear r.side;
      for _ = 1 to (boundary / per_fetch) - (r.retired / per_fetch) do
        set_fetch_aside r
      done;
      let trailer_ints = ref 0 in
      let source =
        next ~segment:(r.segment + 1) ~trailer:(fun () ->
            incr trailer_ints;
            unzigzag (varint r))
      in
      if !trailer_ints > 0 then begin
        let count = varint r in
        if count <> !trailer_ints then begin
          source.close ();
          corrupt "trailer of %d ints read as %d" count !trailer_ints
        end
      end;
      r.source.close ();
      r.source <- source;
      r.segment <- r.segment + 1;
      r.pos <- 0;
      r.lim <- 0;
      check_segment_header r ~segment:r.segment;
      let to_boundary = r.distance - 1 in
      read_header r;
      r.distance <- r.distance + to_boundary;
      let rest = r.lim - r.pos and aside = Buffer.length r.side in
      if aside + rest > Bytes.length r.buf then begin
        let bigger = Bytes.create (aside + rest) in
        Bytes.blit r.buf r.pos bigger aside rest;
        r.buf <- bigger
      end
      else Bytes.blit r.buf r.pos r.buf aside rest;
      Buffer.blit r.side 0 r.buf 0 aside;
      r.pos <- 0;
      r.lim <- aside + rest

(* mppm: unit _ -> cap:insns -> insns *)
let rec emit r ~cap =
  if cap < 1 || cap > r.stop - r.retired then
    invalid_arg "Private_stream.emit: cap outside the recorded length";
  let limit = if cap < r.phase_remaining then cap else r.phase_remaining in
  if r.distance > limit then begin
    advance r limit;
    r.distance <- r.distance - limit;
    r.emitted_kind <- 0;
    limit
  end
  else if Int.equal r.next_level 3 then begin
    (* mppm: cold — once per segment crossed *)
    cross r;
    emit r ~cap
  end
  else begin
    let n = r.distance in
    advance r n;
    r.distance <- 0;
    r.emitted_kind <- (if r.next_store then 2 else 1);
    n
  end

(* mppm: unit _ -- private level code *)
let take_fetch r =
  let pos = r.pos in
  if pos < r.lim && Char.code (Bytes.get r.buf pos) < 2 then begin
    (* The common case: a private hit already in the chunk. *)
    r.pos <- pos + 1;
    Char.code (Bytes.get r.buf pos)
  end
  else begin
    let level = byte r in
    (* mppm: cold — corrupt input *)
    if level > 2 then corrupt "bad fetch level %d" level;
    if Int.equal level 2 then r.addr <- varint r;
    level
  end

(* mppm: unit _ -- private level code *)
let take_access r =
  let level = r.next_level in
  (* mppm: cold — corrupt input *)
  if level > 2 then corrupt "data access past the recorded length";
  if Int.equal level 2 then r.addr <- varint r;
  read_header r;
  level
