(* What every workload shares: its options, the host clock, the output
   checks, and the result it hands back to the command line. *)

type options = {
  seed : int;
  seconds : float;  (* measurement budget, set-up excluded *)
  traced : bool;
  smoke : bool;  (* toy sizes for the dune smoke test *)
  tmp : string;  (* this run's scratch directory, removed at exit *)
}

(* Every workload simulates at 1M-instruction traces (Scale.quick), so a
   run affords three cold set-ups and three measured passes in about 20 s
   on a 2-core host.  The smoke test uses 100k. *)
let trace_instructions o = if o.smoke then 100_000 else 1_000_000

let scale o =
  Mppm_experiments.Scale.of_trace (trace_instructions o)

(* Two pool domains and a two-domain daemon: the host has two cores. *)
let jobs = 2

(* A pool only around the work that uses it: an idle domain still takes
   part in every stop-the-world minor collection, so single-domain work
   measured beside one would wait on the other core. *)
let with_pool f = Mppm_pool.Pool.with_pool ~jobs f

let now = Unix.gettimeofday

(* Runs [f] at least three times, then again while the next run should
   still end within [seconds] of the first; returns each run's wall time
   and result, in order. *)
let repeat ~seconds f =
  let rec go acc elapsed last =
    if List.length acc >= 3 && elapsed +. last > seconds then List.rev acc
    else begin
      let start = now () in
      let r = f () in
      let d = now () -. start in
      go ((d, r) :: acc) (elapsed +. d) d
    end
  in
  go [] 0.0 0.0

(* The host's contention only ever adds time, in stretches from seconds to
   minutes.  A run's repetitions are summarised by their lower quartile
   (the upper quartile for rates): it follows the host's uncontended speed
   whenever a quarter of the run had it, without resting on the single
   luckiest sample as a minimum would. *)
let lower_quartile xs = Mppm_util.Stats.percentile xs ~p:25.0
let upper_quartile xs = Mppm_util.Stats.percentile xs ~p:75.0

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("perf: no VmHWM in " ^ path)
      in
      scan ())

(* ---- output checks ----------------------------------------------------- *)

type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

(* One attempt: [ok] or a message on stderr and a failure. *)
let check c ok fmt =
  Printf.ksprintf
    (fun msg ->
      c.attempted <- c.attempted + 1;
      if not ok then begin
        c.failed <- c.failed + 1;
        prerr_endline ("perf: check failed: " ^ msg)
      end)
    fmt

let rel_close ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* ---- results ------------------------------------------------------------- *)

type result = {
  end_to_end : (string * float) list;
  layers : (string * float) list;  (* the workload's own per-layer numbers *)
  checks : checks;
  digest : string;  (* of the outputs; traced and untraced runs must agree *)
  details : (string * float) list;  (* extra numbers for the --json report *)
  expected_rows : string list list;  (* what --write-expected commits *)
  ctx : Mppm_experiments.Context.t;  (* holds config-1 profiles *)
  mixes : Mppm_workload.Mix.t array;  (* inputs of the layer replays *)
}

let end_to_end_units =
  [ ("setup_s", "s"); ("throughput", "1/s"); ("latency_ms", "ms");
    ("peak_rss_mb", "MB") ]

(* A digest of output strings, in order. *)
let digest_of strings =
  Mppm_util.Fingerprint.to_hex
    (List.fold_left Mppm_util.Fingerprint.add_string
       Mppm_util.Fingerprint.empty strings)

let float_bits f = Int64.to_string (Int64.bits_of_float f)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path
