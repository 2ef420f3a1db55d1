module Benchmark = Mppm_trace.Benchmark
module Hierarchy = Mppm_cache.Hierarchy

(* File layout (all integers LEB128 varints):

     header   magic (8 bytes), format version, seed, recorded length T,
              benchmark name, private-hierarchy key (length-prefixed)
     events   per data access: a header word ((distance - 1) lsl 3 | store
              lsl 2 | level), then the fetch records since the previous
              access (a level byte each, followed by the byte address when
              the level is 2), then the access's own byte address when its
              level is 2.  A final header word with level 3 marks T + 1,
              a position no consumer reaches; the fetch records up to T
              follow it.
     trailer  zigzag-coded ints: the fetch debt, the generator state and
              the L1I, L1D and L2 states at instruction T; then their
              count.

   Integrity (length and digest) belongs to whoever stores the bytes. *)

let magic = "MPPMPRV\x01"
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

let recorder ~benchmark ~seed ~instructions ~hierarchy ~write =
  if instructions <= 0 then
    invalid_arg "Private_stream.recorder: instructions <= 0";
  let w =
    {
      write;
      out = Bytes.create chunk_bytes;
      out_len = 0;
      pending = Bytes.create 4096;
      pending_len = 0;
      recorded_length = instructions;
      last_position = 0;
      finished = false;
    }
  in
  put_raw w magic;
  put_varint w format_version;
  put_varint w (zigzag seed);
  put_varint w instructions;
  put_string w benchmark.Benchmark.name;
  put_string w (private_key hierarchy);
  w

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
  put_header w ~position:(w.recorded_length + 1) ~code:3;
  let count = ref 0 in
  trailer (fun n ->
      put_varint w (zigzag n);
      incr count);
  put_varint w !count;
  flush w;
  w.finished <- true

(* ---- replay ---------------------------------------------------------- *)

type reader = {
  refill : Bytes.t -> int -> int -> int;
  close : unit -> unit;
  buf : Bytes.t;
  mutable pos : int;
  mutable lim : int;
  phases : Benchmark.phase array;
  durations : int array;
  mutable phase_idx : int;
  mutable phase_remaining : int;
  mutable retired : int;
  length : int;
  (* The next data access: instructions until it retires, store bit and
     private level (3 = the end marker). *)
  mutable distance : int;
  mutable next_store : bool;
  mutable next_level : int;
  mutable emitted_kind : int;
  mutable addr : int;
  mutable closed : bool;
  mutable trailer_ints : int;  (* read so far; -1 before the trailer *)
  name : string;
  key : string;
}

let corrupt fmt =
  Printf.ksprintf (fun msg -> failwith ("Private_stream: " ^ msg)) fmt

(* mppm: unit _ -- raw byte *)
let byte r =
  if r.pos >= r.lim then begin
    r.pos <- 0;
    r.lim <- r.refill r.buf 0 (Bytes.length r.buf);
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

let reader ~benchmark ~seed ~instructions ~hierarchy ~refill ~close =
  let schedule = Array.of_list benchmark.Benchmark.schedule in
  let r =
    {
      refill;
      close;
      buf = Bytes.create chunk_bytes;
      pos = 0;
      lim = 0;
      phases = Array.map fst schedule;
      durations = Array.map snd schedule;
      phase_idx = 0;
      phase_remaining = snd schedule.(0);
      retired = 0;
      length = instructions;
      distance = 0;
      next_store = false;
      next_level = 0;
      emitted_kind = 0;
      addr = 0;
      closed = false;
      trailer_ints = -1;
      name = benchmark.Benchmark.name;
      key = private_key hierarchy;
    }
  in
  let check what ok = if not ok then corrupt "%s does not match" what in
  check "magic" (String.init (String.length magic) (fun _ -> Char.chr (byte r)) = magic);
  check "format version" (varint r = format_version);
  check "seed" (unzigzag (varint r) = seed);
  check "recorded length" (varint r = instructions);
  check "benchmark" (read_string r = r.name);
  check "private hierarchy" (read_string r = r.key);
  read_header r;
  r

let close r =
  if not r.closed then begin
    r.closed <- true;
    r.close ()
  end

let matches r ~benchmark ~hierarchy =
  String.equal r.name benchmark.Benchmark.name
  && String.equal r.key (private_key hierarchy)

let recorded_end r = r.length
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

(* mppm: unit _ -> cap:insns -> insns *)
let emit r ~cap =
  if cap < 1 || cap > r.length - r.retired then
    invalid_arg "Private_stream.emit: cap outside the recorded length";
  let limit = if cap < r.phase_remaining then cap else r.phase_remaining in
  if r.distance <= limit then begin
    let n = r.distance in
    advance r n;
    r.distance <- 0;
    r.emitted_kind <- (if r.next_store then 2 else 1);
    n
  end
  else begin
    advance r limit;
    r.distance <- r.distance - limit;
    r.emitted_kind <- 0;
    limit
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

let trailer_int r =
  if r.trailer_ints < 0 then begin
    if r.retired <> r.length || r.next_level <> 3 then
      corrupt "replay stopped at %d of %d instructions" r.retired r.length;
    r.trailer_ints <- 0
  end;
  r.trailer_ints <- r.trailer_ints + 1;
  unzigzag (varint r)

let finish_replay r =
  let count = varint r in
  if count <> r.trailer_ints then
    corrupt "trailer of %d ints read as %d" count r.trailer_ints;
  close r
