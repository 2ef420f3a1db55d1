(* Tests for private-stream replay (Mppm_simcore.Private_stream): a core
   that replays a recorded L1/L2 stream, crossing from segment to segment
   recorded from each other's trailers, must be indistinguishable from a
   live core, bit for bit, under any blocking, compute scale, memory
   channel, LLC partition and slot offset.  Independent oracles check the premise (private outcomes do not
   depend on the slot offset) and the hierarchy itself (working sets are
   served by the level their size predicts, live and replayed). *)

module Cache = Mppm_cache.Cache
module Configs = Mppm_cache.Configs
module Geometry = Mppm_cache.Geometry
module Hierarchy = Mppm_cache.Hierarchy
module Core_model = Mppm_simcore.Core_model
module Core_engine = Mppm_simcore.Core_engine
module Memory_channel = Mppm_simcore.Memory_channel
module Private_stream = Mppm_simcore.Private_stream
module Multi_core = Mppm_multicore.Multi_core
module Benchmark = Mppm_trace.Benchmark
module Generator = Mppm_trace.Generator
module Suite = Mppm_trace.Suite
module Rng = Mppm_util.Rng
module Registry = Mppm_obs.Registry

let baseline = Configs.baseline ()

let run_to engine ~instructions ~cap =
  while Core_engine.retired engine < instructions do
    ignore
      (Core_engine.step engine
         ~cap:(min (cap ()) (instructions - Core_engine.retired engine)))
  done

(* A stream of [benchmark]'s first [trace] instructions, recorded by a live
   core stepped in [interval]-instruction pieces, as a profile build is. *)
let record ?(interval = 2_000) benchmark ~seed ~trace =
  let buf = Buffer.create 65536 in
  let record =
    Private_stream.recorder ~benchmark ~seed ~instructions:trace
      ~hierarchy:baseline (Buffer.add_subbytes buf)
  in
  let engine =
    Core_engine.create ~record ~params:Core_model.default
      ~hierarchy:(Hierarchy.create baseline)
      ~generator:(Generator.create ~seed benchmark) ()
  in
  run_to engine ~instructions:trace ~cap:(fun () ->
      interval - (Core_engine.retired engine mod interval));
  Buffer.contents buf

let string_source bytes =
  let pos = ref 0 in
  {
    Private_stream.refill =
      (fun b off len ->
        let n = min len (String.length bytes - !pos) in
        Bytes.blit_string bytes !pos b off n;
        pos := !pos + n;
        n);
    close = ignore;
  }

let reader benchmark ~seed ~trace bytes =
  Private_stream.reader ~benchmark ~seed ~instructions:trace
    ~hierarchy:baseline (string_source bytes)

(* Segment [segment] of [benchmark]'s stream, recorded from the trailer of
   the segment before it. *)
let record_segment benchmark ~seed ~trace ~segment ~trailer =
  let buf = Buffer.create 65536 in
  Core_engine.record_segment baseline ~benchmark ~seed ~trailer
    (Private_stream.recorder ~segment ~benchmark ~seed ~instructions:trace
       ~hierarchy:baseline (Buffer.add_subbytes buf));
  Buffer.contents buf

(* A reader that replays on through segments recorded on demand; [crossed]
   counts the segments it moved on to. *)
let chained ?(crossed = ref 0) benchmark ~seed ~trace bytes =
  Private_stream.reader ~benchmark ~seed ~instructions:trace
    ~hierarchy:baseline (string_source bytes)
    ~next:(fun ~segment ~trailer ->
      incr crossed;
      string_source (record_segment benchmark ~seed ~trace ~segment ~trailer))

(* ---- replayed = live ---------------------------------------------------- *)

type setup = {
  bench : int;
  scale : float;
  channel : bool;
  partitioned : bool;
  slot : int;
  caps : int;  (* 0: interval caps, 1: random caps, 2: one big cap per step *)
}

(* One core, live (generator at the slot offset) or replayed (the slot
   offset at the LLC), stepped by the same cap schedule; the trace of every
   step's result and counters. *)
let step_trace ?replay s ~trace ~total =
  let benchmark = Suite.all.(s.bench) in
  let seed = Suite.seed_for benchmark.Benchmark.name in
  let offset = (Multi_core.default_offsets 16).(s.slot) in
  let llc =
    Cache.create
      ?partition:(if s.partitioned then Some [| 4; 2; 1; 1 |] else None)
      baseline.Hierarchy.llc.Hierarchy.geometry
  in
  let hierarchy = Hierarchy.create ~llc ~llc_owner:1 baseline in
  let memory_channel =
    if s.channel then Some (Memory_channel.create ~transfer_cycles:16.0) else None
  in
  let engine =
    match replay with
    | None ->
        Core_engine.create ?memory_channel ~compute_scale:s.scale
          ~params:Core_model.default ~hierarchy
          ~generator:(Generator.create ~offset ~seed benchmark) ()
    | Some r ->
        Core_engine.create ?memory_channel ~compute_scale:s.scale
          ~llc_offset:offset ~replay:r ~params:Core_model.default ~hierarchy
          ~generator:(Generator.create ~seed benchmark) ()
  in
  let rng = Rng.create ~seed:(s.bench + (97 * s.caps)) in
  let cap () =
    let retired = Core_engine.retired engine in
    let c =
      match s.caps with
      | 0 -> 1_000 - (retired mod 1_000)
      | 1 -> 1 + Rng.int rng 3_000
      | _ -> 1 lsl 20
    in
    (* Before the recorded length, blocks are cut there, as a profile
       interval or a first pass cuts them. *)
    if retired < trace then min c (trace - retired) else c
  in
  let steps = ref [] in
  while Core_engine.retired engine < total do
    let n = Core_engine.step engine ~cap:(min (cap ()) (total - Core_engine.retired engine)) in
    steps :=
      ( n,
        Int64.bits_of_float (Core_engine.cycles engine),
        Int64.bits_of_float (Core_engine.memory_stall_cycles engine),
        Core_engine.llc_accesses engine,
        Core_engine.llc_misses engine )
      :: !steps
  done;
  (!steps, Hierarchy.counters hierarchy)

let test_replay_equals_live =
  let trace = 20_000 and total = 45_000 in
  QCheck.Test.make ~count:40 ~name:"replayed step sequence = live, bit for bit"
    QCheck.(
      map
        (fun (bench, (scale, (channel, (partitioned, (slot, caps))))) ->
          { bench; scale; channel; partitioned; slot; caps })
        (pair (int_bound (Suite.count - 1))
           (pair (oneofl [ 1.0; 0.6; 1.7 ])
              (pair bool (pair bool (pair (int_bound 15) (int_bound 2)))))))
    (fun s ->
      let benchmark = Suite.all.(s.bench) in
      let seed = Suite.seed_for benchmark.Benchmark.name in
      let bytes = record benchmark ~seed ~trace in
      let live = step_trace s ~trace ~total in
      let replayed =
        step_trace ~replay:(chained benchmark ~seed ~trace bytes) s ~trace ~total
      in
      live = replayed)

(* A compute-only stretch longer than a segment, between memory phases:
   some segments hold no data access at all. *)
let bursty =
  let phase name mem_ratio =
    {
      Benchmark.phase_name = name;
      base_cpi = 1.0;
      mem_ratio;
      store_fraction = 0.3;
      mlp = 1.5;
      regions =
        [ { Benchmark.region_name = "heap"; size_bytes = 1 lsl 20; weight = 1.0;
            region_pattern = Benchmark.Uniform } ];
    }
  in
  {
    Benchmark.name = "bursty";
    description = "memory bursts between long compute stretches";
    schedule = [ (phase "burst" 0.3, 1_700); (phase "compute" 0.0, 7_919) ];
    code_bytes = Geometry.kib 64;
    hot_code_bytes = Geometry.kib 4;
    cold_fetch_rate = 0.05;
  }

(* Crossing segments changes nothing: a chained reader's step sequence
   equals the live one across every boundary, for segment lengths that are
   and are not whole fetch lines, under cap schedules that mix the
   simulator's post-pass cap, caps ending on a boundary and small random
   caps. *)
let test_chained_equals_live =
  QCheck.Test.make ~count:60 ~name:"chained replay = live across segments"
    QCheck.(
      triple (int_bound Suite.count) (oneofl [ 997; 1_024; 2_500; 6_000 ])
        (int_bound 1_000_000))
    (fun (bench, trace, cap_seed) ->
      let benchmark = if bench = Suite.count then bursty else Suite.all.(bench) in
      let seed = 1 + bench in
      let total = 12 * trace in
      let run replay =
        let hierarchy = Hierarchy.create baseline in
        let engine =
          Core_engine.create ?replay ~params:Core_model.default ~hierarchy
            ~generator:(Generator.create ~seed benchmark) ()
        in
        let rng = Rng.create ~seed:cap_seed in
        let steps = ref [] in
        while Core_engine.retired engine < total do
          let retired = Core_engine.retired engine in
          let cap =
            match Rng.int rng 4 with
            | 0 -> Multi_core.post_pass_cap
            | 1 -> trace - (retired mod trace)
            | 2 -> 1 + Rng.int rng 40
            | _ -> 1 + Rng.int rng (3 * trace)
          in
          (* The first segment is cut at its end, as a first pass is. *)
          let cap = if retired < trace then min cap (trace - retired) else cap in
          let n = Core_engine.step engine ~cap:(min cap (total - retired)) in
          steps :=
            ( n,
              Int64.bits_of_float (Core_engine.cycles engine),
              Core_engine.llc_accesses engine,
              Core_engine.llc_misses engine )
            :: !steps
        done;
        (!steps, Hierarchy.counters hierarchy)
      in
      let crossed = ref 0 in
      let replayed =
        run
          (Some
             (chained ~crossed benchmark ~seed ~trace
                (record benchmark ~seed ~trace)))
      in
      run None = replayed && !crossed >= 10)

(* ---- the seam ------------------------------------------------------------ *)

(* A compute-bound core finishes its first pass long before a memory-bound
   one and then replays on, several segments past the first: the mix
   equals the all-live simulation, and no instruction ran live. *)
let test_seam_mix_equals_live () =
  let trace = 30_000 in
  let names = [| "povray"; "mcf"; "lbm" |] in
  let offsets = Multi_core.default_offsets (Array.length names) in
  let programs =
    Array.mapi
      (fun i name ->
        { Multi_core.benchmark = Suite.find name; seed = Suite.seed_for name;
          offset = offsets.(i) })
      names
  in
  let cfg = Multi_core.config baseline in
  let live = Multi_core.run cfg ~programs ~trace_instructions:trace in
  let counter name = Registry.get ("multicore." ^ name) in
  let replayed_before = counter "replayed_instructions"
  and live_before = counter "live_instructions" in
  let crossed = Array.map (fun _ -> ref 0) programs in
  let replays =
    Array.mapi
      (fun i (p : Multi_core.program_spec) ->
        Some
          (chained ~crossed:crossed.(i) p.benchmark ~seed:p.seed ~trace
             (record p.benchmark ~seed:p.seed ~trace)))
      programs
  in
  let replayed = Multi_core.run ~replays cfg ~programs ~trace_instructions:trace in
  Alcotest.(check bool) "the fast core ran well past the first segment" true
    (live.Multi_core.programs.(0).Multi_core.total_retired > 3 * trace);
  Alcotest.(check bool) "the fast core crossed at least 3 segments" true
    (!(crossed.(0)) >= 3);
  Alcotest.(check bool) "replayed mix = live mix" true (live = replayed);
  Alcotest.(check (float 0.0)) "replayed instructions counted"
    (float_of_int
       (Array.fold_left
          (fun acc p -> acc + p.Multi_core.total_retired)
          0 replayed.Multi_core.programs))
    (counter "replayed_instructions" -. replayed_before);
  Alcotest.(check (float 0.0)) "no instruction ran live" 0.0
    (counter "live_instructions" -. live_before)

(* The slot offset reaches the shared LLC even though the private caches
   never see it: two copies of a program at the same offset share their
   lines there, at distinct default offsets they compete for them. *)
let test_offset_reaches_llc () =
  let trace = 30_000 in
  let mix offsets =
    Multi_core.run (Multi_core.config baseline) ~trace_instructions:trace
      ~programs:
        (Array.map
           (fun offset ->
             { Multi_core.benchmark = Suite.find "soplex";
               seed = Suite.seed_for "soplex"; offset })
           offsets)
  in
  let misses r = r.Multi_core.llc_total_misses in
  Alcotest.(check bool) "shared lines miss less" true
    (misses (mix [| 0; 0 |]) < misses (mix (Multi_core.default_offsets 2)))

(* ---- offset invariance --------------------------------------------------- *)

(* The premise, checked on the caches alone: a line-aligned offset only
   rotates the private caches' sets, so the private level code of every
   fetch and data access at each default slot offset equals the one at
   offset 0. *)
let test_private_levels_offset_invariant () =
  let offsets = Multi_core.default_offsets 16 in
  List.iter
    (fun name ->
      let benchmark = Suite.find name and seed = Suite.seed_for name in
      let codes offset =
        let g = Generator.create ~offset ~seed benchmark in
        let h = Hierarchy.create baseline in
        let out = Buffer.create 65536 in
        let debt = ref 0 in
        while Generator.retired g < 30_000 do
          let n = Generator.emit g ~cap:1_000 in
          debt := !debt + n;
          while !debt >= Generator.instructions_per_fetch do
            debt := !debt - Generator.instructions_per_fetch;
            Buffer.add_char out
              (Char.chr
                 (Hierarchy.access_private h ~kind:Hierarchy.Fetch
                    ~addr:(Generator.next_fetch g)))
          done;
          if Generator.emitted_kind g > 0 then
            Buffer.add_char out
              (Char.chr
                 (4
                 + Hierarchy.access_private h ~kind:Hierarchy.Load
                     ~addr:(Generator.emitted_addr g)))
        done;
        Buffer.contents out
      in
      let at_zero = codes 0 in
      Array.iteri
        (fun slot offset ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: slot %d" name slot)
            true
            (String.equal at_zero (codes offset)))
        offsets)
    [ "mcf"; "gcc"; "wrf"; "soplex" ]

(* ---- working sets --------------------------------------------------------- *)

let kib = Geometry.kib

(* One phase touching one [size]-byte region, half the instructions memory
   accesses, a 1 KB hot loop and no cold fetches. *)
let working_set pattern size =
  {
    Benchmark.name = "ws";
    description = "working-set sweep";
    schedule =
      [
        ( {
            Benchmark.phase_name = "sweep";
            base_cpi = 1.0;
            mem_ratio = 0.5;
            store_fraction = 0.2;
            mlp = 1.0;
            regions =
              [ { Benchmark.region_name = "ws"; size_bytes = size; weight = 1.0;
                  region_pattern = pattern } ];
          },
          1_000_000 );
      ];
    code_bytes = kib 4;
    hot_code_bytes = kib 1;
    cold_fetch_rate = 0.0;
  }

let counters ?replay benchmark ~trace =
  let hierarchy = Hierarchy.create baseline in
  let engine =
    Core_engine.create ?replay ~params:Core_model.default ~hierarchy
      ~generator:(Generator.create ~seed:11 benchmark) ()
  in
  run_to engine ~instructions:trace ~cap:(fun () -> 5_000);
  fun key -> List.assoc key (Hierarchy.counters hierarchy)

(* L1D 32 KB, L2 256 KB, LLC 512 KB (config 1), all 8-way: a contiguous
   working set of half a level's size fills half of each of its sets. *)
let test_working_sets () =
  let trace = 400_000 in
  let code_lines = 64.0 in
  List.iter
    (fun (pattern, pattern_name) ->
      List.iter
        (fun (size, level) ->
          let benchmark = working_set pattern size in
          let lines = float_of_int (size / 64) in
          let live = counters benchmark ~trace in
          let replayed =
            counters benchmark ~trace
              ~replay:
                (reader benchmark ~seed:11 ~trace
                   (record benchmark ~seed:11 ~trace))
          in
          let what = Printf.sprintf "%s %d KB" pattern_name (size / 1024) in
          List.iter
            (fun key ->
              Alcotest.(check (float 0.0)) (what ^ ": replayed " ^ key) (live key)
                (replayed key))
            [ "l1d.accesses"; "l1d.misses"; "l2.accesses"; "l2.misses";
              "llc.accesses"; "llc.misses" ];
          let served_within name = live (name ^ ".misses") <= lines +. code_lines in
          let all_reach ?(share = 0.95) name =
            live (name ^ ".misses") >= share *. live (name ^ ".accesses")
          in
          let check name ok = Alcotest.(check bool) (what ^ ": " ^ name) true ok in
          match level with
          | `L1 -> check "only cold L1D misses" (live "l1d.misses" <= lines)
          | `L2 ->
              check "only cold L2 misses" (served_within "l2");
              if pattern = Benchmark.Sequential then
                check "every access misses the L1D" (all_reach "l1d")
          | `Llc ->
              check "only cold LLC misses" (served_within "llc");
              if pattern = Benchmark.Sequential then
                check "every L2 access misses" (live "l2.misses" >= 0.95 *. live "l1d.misses")
          | `Memory ->
              (* A random access hits the 512 KB LLC about 1 time in 8. *)
              check "the LLC misses" (all_reach ~share:0.8 "llc"))
        [ (kib 16, `L1); (kib 128, `L2); (kib 384, `Llc); (kib 4096, `Memory) ])
    [ (Benchmark.Sequential, "sequential"); (Benchmark.Uniform, "random") ]

(* ---- corrupt streams ------------------------------------------------------ *)

let raises_prefixed prefix f =
  match f () with
  | _ -> false
  | exception Failure msg -> String.starts_with ~prefix msg

let test_corrupt_streams () =
  let benchmark = Suite.find "gcc" and seed = Suite.seed_for "gcc" in
  let trace = 20_000 in
  let bytes = record benchmark ~seed ~trace in
  let replay_all bytes () =
    let engine =
      Core_engine.create
        ~replay:(reader benchmark ~seed ~trace bytes)
        ~params:Core_model.default ~hierarchy:(Hierarchy.create baseline)
        ~generator:(Generator.create ~seed benchmark) ()
    in
    run_to engine ~instructions:trace ~cap:(fun () -> trace)
  in
  Alcotest.(check bool) "intact stream replays" true
    (match replay_all bytes () with () -> true);
  Alcotest.(check bool) "truncated: Private_stream failure" true
    (raises_prefixed "Private_stream:"
       (replay_all (String.sub bytes 0 (String.length bytes / 2))));
  Alcotest.(check bool) "bad magic: Private_stream failure" true
    (raises_prefixed "Private_stream:"
       (replay_all ("X" ^ String.sub bytes 1 (String.length bytes - 1))));
  Alcotest.(check bool) "wrong seed: Private_stream failure" true
    (raises_prefixed "Private_stream:" (fun () ->
         reader benchmark ~seed:(seed + 1) ~trace bytes))

(* ---- allocation ------------------------------------------------------------ *)

(* The replay path allocates nothing per access: no generator, no private
   caches, chunked reads into one buffer. *)
let test_replay_allocation_free () =
  if not (Mppm_util.Invariant.enabled ()) then
    List.iter
      (fun name ->
        let benchmark = Suite.find name and seed = Suite.seed_for name in
        let trace = 300_000 in
        let engine =
          Core_engine.create
            ~replay:(reader benchmark ~seed ~trace (record benchmark ~seed ~trace))
            ~params:Core_model.default ~hierarchy:(Hierarchy.create baseline)
            ~generator:(Generator.create ~seed benchmark) ()
        in
        run_to engine ~instructions:50_000 ~cap:(fun () -> 1_000);
        let before = Gc.minor_words () in
        run_to engine ~instructions:250_000 ~cap:(fun () -> 1_000);
        Alcotest.(check (float 0.0))
          (name ^ ": minor words over 200k replayed instructions")
          0.0
          (Gc.minor_words () -. before))
      [ "mcf"; "soplex"; "gamess" ]

let tests =
  [
    ( "stream.replay",
      [
        QCheck_alcotest.to_alcotest test_replay_equals_live;
        QCheck_alcotest.to_alcotest test_chained_equals_live;
        Alcotest.test_case "seam: mix = all-live mix" `Quick test_seam_mix_equals_live;
        Alcotest.test_case "slot offset reaches the LLC" `Quick test_offset_reaches_llc;
        Alcotest.test_case "private levels offset-invariant" `Quick
          test_private_levels_offset_invariant;
        Alcotest.test_case "working sets served by their level" `Quick test_working_sets;
        Alcotest.test_case "corrupt streams fail loudly" `Quick test_corrupt_streams;
        Alcotest.test_case "replay allocates nothing" `Quick test_replay_allocation_free;
      ] );
  ]
