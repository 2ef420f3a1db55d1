(* serve-predict: bin/mppmd.exe --jobs 2 under Predict traffic from this
   one client process over two connections.

   Set-up is a daemon start on an empty cache, from spawn until its socket
   accepts (it builds config 1's 29 profiles first); three starts, the
   first two stopped with a Shutdown request.  Traffic: query i is a mix
   of 2, 4, 8 or 16 programs (uniform) drawn from the suite, on config 1.

   - Open loop: seeded Poisson arrivals at the reference rate r0, a
     warm-up that is not recorded, then the measured step.  Latency runs
     from each request's scheduled send time, so a stall also charges the
     requests queued behind it; requests pipeline on a connection when
     they must.
   - Closed loop: each connection keeps [window] requests in flight; the
     answered rate is the daemon's capacity (throughput). *)

module Wire = Mppm_serve.Wire
module Dispatch = Mppm_serve.Dispatch
module Rng = Mppm_util.Rng
module Suite = Mppm_trace.Suite
module Mix = Mppm_workload.Mix
module Context = Mppm_experiments.Context
module Stats = Mppm_util.Stats

(* The reference rate: about 20 % of the closed-loop capacity this
   traffic reaches at seed 42 on an idle 2-core host and 40 % of what it
   reaches while the host is contended (README.md, calibration), so
   queueing stays moderate either way. *)
let r0 (o : Run.options) = if o.smoke then 50.0 else 400.0
let window = 4
let connections = 2
let sample_size = 200

let mppmd_exe () =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ ".."; ".."; "bin"; "mppmd.exe" ]

(* ---- sockets --------------------------------------------------------- *)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let rec really_read fd b off len =
  if len > 0 then begin
    let n = Unix.read fd b off len in
    if n = 0 then failwith "perf: mppmd closed the connection";
    really_read fd b (off + n) (len - n)
  end

(* One blocking round trip (set-up, stats and shutdown only). *)
let round_trip fd req =
  write_all fd (Wire.frame (Wire.encode_request req));
  let hdr = Bytes.create 4 in
  really_read fd hdr 0 4;
  match Wire.frame_length (Bytes.to_string hdr) with
  | Error (_, msg) -> failwith ("perf: " ^ msg)
  | Ok len -> (
      let body = Bytes.create len in
      really_read fd body 0 len;
      match Wire.decode_response (Bytes.to_string body) with
      | Ok r -> r
      | Error (_, msg) -> failwith ("perf: " ^ msg))

(* ---- the daemon ------------------------------------------------------ *)

type daemon = { pid : int; sock : string; cache : string; start_s : float }

let spawn (o : Run.options) k =
  let file ext = Filename.concat o.tmp (Printf.sprintf "d%d.%s" k ext) in
  let sock = file "sock" and cache = file "cache" in
  let log = Unix.openfile (file "log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let exe = mppmd_exe () in
  let args =
    [| exe; "--listen"; "unix:" ^ sock; "--jobs"; string_of_int Run.jobs;
       "--length"; string_of_int (Run.trace_instructions o);
       "--seed"; string_of_int o.seed; "--cache"; cache; "--warm-configs"; "1" |]
  in
  let start = Run.now () in
  let pid = Unix.create_process exe args null log log in
  Unix.close log;
  Unix.close null;
  let rec wait () =
    match connect sock with
    | fd -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("perf: mppmd exited during start-up; see " ^ file "log"));
        if Run.now () -. start > 120.0 then failwith "perf: mppmd did not start";
        Unix.sleepf 0.002;
        wait ()
  in
  (try wait ()
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
     raise e);
  { pid; sock; cache; start_s = Run.now () -. start }

(* Shutdown request, then reap; a daemon that will not answer is killed. *)
let stop d =
  (try
     let fd = connect d.sock in
     Fun.protect
       ~finally:(fun () -> Unix.close fd)
       (fun () -> ignore (round_trip fd Wire.Shutdown))
   with Unix.Unix_error _ | Failure _ -> (
     try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()

(* ---- the query stream ------------------------------------------------ *)

type stream = { rng : Rng.t; mutable items : string list array; mutable n : int }

let stream seed = { rng = Rng.create ~seed; items = Array.make 1024 []; n = 0 }

let query s i =
  while s.n <= i do
    if s.n = Array.length s.items then
      s.items <- Array.append s.items (Array.make s.n []);
    let r = Rng.split s.rng in
    let cores = [| 2; 4; 8; 16 |].(Rng.int r 4) in
    s.items.(s.n) <- List.init cores (fun _ -> Rng.pick r Suite.names);
    s.n <- s.n + 1
  done;
  s.items.(i)

let request s i = Wire.Predict { names = query s i; llc_config = 1 }

(* ---- the client ------------------------------------------------------ *)

type conn = {
  id : int;
  fd : Unix.file_descr;
  mutable inbox : string;
  pending : int Queue.t;  (* request indices, in send order *)
  sent_at : (int, float) Hashtbl.t;  (* request index -> send time *)
}

let outstanding conns =
  List.fold_left (fun acc c -> acc + Queue.length c.pending) 0 conns

let send s c i =
  Queue.push i c.pending;
  Hashtbl.replace c.sent_at i (Run.now ());
  write_all c.fd (Wire.frame (Wire.encode_request (request s i)))

let least_loaded conns =
  List.fold_left
    (fun best c ->
      if Queue.length c.pending < Queue.length best.pending then c else best)
    (List.hd conns) conns

let buf = Bytes.create 65536

(* Waits up to [timeout] for replies and hands each to [on_reply conn
   index payload time]. *)
let receive conns ~timeout on_reply =
  let fds =
    List.filter_map
      (fun c -> if Queue.is_empty c.pending then None else Some c.fd)
      conns
  in
  match Unix.select fds [] [] (Float.max 0.0 timeout) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
      List.iter
        (fun c ->
          if List.mem c.fd readable then begin
            let n = Unix.read c.fd buf 0 (Bytes.length buf) in
            if n = 0 then failwith "perf: mppmd closed a connection";
            let t = Run.now () in
            c.inbox <- c.inbox ^ Bytes.sub_string buf 0 n;
            let rec frames () =
              let data = c.inbox in
              if String.length data >= 4 then
                match Wire.frame_length (String.sub data 0 4) with
                | Error (_, msg) -> failwith ("perf: " ^ msg)
                | Ok len when String.length data >= 4 + len ->
                    c.inbox <- String.sub data (4 + len) (String.length data - 4 - len);
                    on_reply c (Queue.pop c.pending) (String.sub data 4 len) t;
                    frames ()
                | Ok _ -> ()
            in
            frames ()
          end)
        conns

(* Sends requests [lo, lo + length sched) at their scheduled times and
   waits up to [grace] after the last one for the replies.  Returns the
   largest send lag. *)
let open_loop s conns ~lo ~sched ~grace on_reply =
  let hi = lo + Array.length sched in
  let deadline = (if hi > lo then sched.(hi - lo - 1) else Run.now ()) +. grace in
  let next = ref lo and lag = ref 0.0 in
  while (!next < hi || outstanding conns > 0) && Run.now () < deadline do
    let t = Run.now () in
    while !next < hi && sched.(!next - lo) <= t do
      send s (least_loaded conns) !next;
      lag := Float.max !lag (Run.now () -. sched.(!next - lo));
      incr next
    done;
    let wake = if !next < hi then sched.(!next - lo) else deadline in
    receive conns ~timeout:(wake -. Run.now ()) on_reply
  done;
  !lag

(* [window] requests in flight per connection for [duration] seconds;
   returns the answered rate in each [slice]-second slice of the phase and
   the next unused request index. *)
let closed_loop s conns ~lo ~duration ~slice on_reply =
  let next = ref lo in
  let send_next c =
    send s c !next;
    incr next
  in
  let start = Run.now () in
  let stop = start +. duration in
  let slices = max 1 (int_of_float (duration /. slice)) in
  let replies = Array.make slices [] in
  List.iter (fun c -> for _ = 1 to window do send_next c done) conns;
  while Run.now () < stop do
    receive conns ~timeout:(stop -. Run.now ()) (fun c i payload t ->
        on_reply c i payload t;
        if t < stop then begin
          let k = min (slices - 1) (int_of_float ((t -. start) /. slice)) in
          replies.(k) <- t :: replies.(k);
          send_next c
        end)
  done;
  let drain = Run.now () +. 10.0 in
  while outstanding conns > 0 && Run.now () < drain do
    receive conns ~timeout:(drain -. Run.now ()) on_reply
  done;
  (* A slice's rate: replies after its first over the time they took
     (replies read together share a time stamp, so the span can be 0). *)
  let rate = function
    | last :: (_ :: _ as rest) ->
        let span = last -. List.nth rest (List.length rest - 1) in
        if span > 0.0 then float_of_int (List.length rest) /. span else 0.0
    | _ -> 0.0
  in
  (Array.map rate replies, !next)

(* Poisson arrival times from [t0] for [duration] seconds at [rate]. *)
let schedule rng ~t0 ~rate ~duration =
  let rec go acc t =
    let t = t +. Rng.exponential rng ~mean:(1.0 /. rate) in
    if t > t0 +. duration then Array.of_list (List.rev acc) else go (t :: acc) t
  in
  go [] t0

(* ---- the workload ---------------------------------------------------- *)

let run (o : Run.options) spans =
  (* A daemon that drops a connection must fail a check, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let live = ref [] in
  let start_daemon k =
    Spans.within spans "setup.mppmd" (fun _ ->
        let d = spawn o k in
        live := d :: !live;
        d)
  in
  let stop_daemon d =
    stop d;
    live := List.filter (fun x -> x.pid <> d.pid) !live
  in
  Fun.protect ~finally:(fun () -> List.iter stop !live) @@ fun () ->
  let d0 = start_daemon 0 in
  stop_daemon d0;
  let d1 = start_daemon 1 in
  stop_daemon d1;
  let d = start_daemon 2 in
  let setup = [| d0.start_s; d1.start_s; d.start_s |] in
  let checks = Run.checks () in
  let s = stream o.seed in
  let by_mix = Hashtbl.create ~random:false 4096 in
  let replied = Hashtbl.create ~random:false 4096 in
  let on_reply c i payload t =
    let key = String.concat "," (query s i) in
    let ok =
      match Wire.decode_response payload with
      | Ok (Wire.Output text) -> (
          Hashtbl.replace replied i t;
          match Hashtbl.find_opt by_mix key with
          | None ->
              Hashtbl.replace by_mix key text;
              true
          | Some first -> String.equal first text)
      | Ok (Wire.Error { message; _ }) ->
          prerr_endline ("perf: mppmd error: " ^ message);
          false
      | Ok (Wire.Counters _) | Error _ -> false
    in
    ignore
      (Spans.add spans ~key:i ~lane:(c.id + 1) "request"
         ~start:(Hashtbl.find c.sent_at i) ~stop:t);
    Run.check checks ok "request %d (%s): reply" i key
  in
  let conns =
    List.init connections (fun id ->
        {
          id;
          fd = connect d.sock;
          inbox = "";
          pending = Queue.create ();
          sent_at = Hashtbl.create ~random:false 4096;
        })
  in
  let rate = r0 o in
  let warm_s = if o.smoke then 0.0 else 1.0 in
  let step_s = if o.smoke then 1.0 else 0.6 *. o.seconds in
  let cap_s = if o.smoke then 0.3 else 0.3 *. o.seconds in
  let arrivals = Rng.create ~seed:(o.seed + 1) in
  let t0 = Run.now () +. 0.01 in
  let warm = schedule arrivals ~t0 ~rate ~duration:warm_s in
  let step = schedule arrivals ~t0:(t0 +. warm_s) ~rate ~duration:step_s in
  let sched = Array.append warm step in
  let lag = open_loop s conns ~lo:0 ~sched ~grace:1.0 on_reply in
  let n_open = Array.length sched in
  (* Latency of the measured step's requests, grouped by the second they
     were due in. *)
  let step_start = t0 +. warm_s in
  let seconds = max 1 (int_of_float step_s) in
  let by_second = Array.make seconds [] in
  Array.iteri
    (fun k due ->
      match Hashtbl.find_opt replied (Array.length warm + k) with
      | Some t ->
          let w = min (seconds - 1) (int_of_float (due -. step_start)) in
          by_second.(w) <- (t -. due) :: by_second.(w)
      | None -> ())
    step;
  let latencies = Array.of_list (List.concat (Array.to_list by_second)) in
  let second_p50s =
    Array.of_list
      (List.filter_map
         (function [] -> None | l -> Some (Stats.median (Array.of_list l)))
         (Array.to_list by_second))
  in
  let answered_step = Array.length latencies in
  let rates, n_sent =
    closed_loop s conns ~lo:n_open ~duration:cap_s ~slice:0.5 on_reply
  in
  let capacity = Run.upper_quartile rates in
  let p50 = Run.lower_quartile second_p50s in
  List.iter (fun c -> Unix.close c.fd) conns;
  for i = 0 to n_sent - 1 do
    if not (Hashtbl.mem replied i) then
      Run.check checks false "request %d (%s): no reply" i
        (String.concat "," (query s i))
  done;
  let counters =
    let fd = connect d.sock in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> round_trip fd Wire.Stats)
  in
  let counter name =
    match counters with
    | Wire.Counters kvs -> Option.value (List.assoc_opt name kvs) ~default:0.0
    | _ -> 0.0
  in
  let rss = Run.peak_rss_mb d.pid in
  stop_daemon d;
  (* A seeded sample of replies must be byte-identical to the in-process
     handler on the profiles the daemon wrote. *)
  let ctx = Context.create ~seed:o.seed ~cache_dir:d.cache (Run.scale o) in
  let answered = Array.of_list (List.filter (fun i -> Hashtbl.mem replied i) (List.init n_sent Fun.id)) in
  let picks =
    Rng.sample_without_replacement (Rng.create ~seed:(o.seed + 2))
      ~n:(Array.length answered) ~k:(min sample_size (Array.length answered))
  in
  let handle_us =
    Array.map
      (fun p ->
        let i = answered.(p) in
        let key = String.concat "," (query s i) in
        let start = Run.now () in
        let reply = Dispatch.handle ctx (request s i) in
        let us = (Run.now () -. start) *. 1e6 in
        Run.check checks
          (match reply with
          | Wire.Output text -> Hashtbl.find_opt by_mix key = Some text
          | _ -> false)
          "request %d (%s): daemon reply differs from Dispatch.handle" i key;
        us)
      picks
  in
  let ms x = 1e3 *. x in
  let sample =
    Array.of_list
      (List.filteri
         (fun k _ -> k < 6)
         (List.filter_map
            (fun i ->
              let names = query s i in
              if List.length names <= 4 then Some (Mix.of_names (Array.of_list names))
              else None)
            (List.init n_sent Fun.id)))
  in
  let setup_total = Array.fold_left ( +. ) 0.0 setup in
  let measured = warm_s +. step_s +. cap_s in
  {
    Run.end_to_end =
      [
        ("setup_s", Stats.median setup);
        ("throughput", capacity);
        ("latency_ms", ms p50);
        ("peak_rss_mb", rss);
      ];
    layers =
      (if o.traced then Sim_load.sampled_accuracy ctx sample else [])
      @ [ ("run.setup_share", setup_total /. (setup_total +. measured)) ];
    checks;
    digest =
      Run.digest_of
        (List.init n_open (fun i ->
             let key = String.concat "," (query s i) in
             key ^ "\n" ^ Option.value (Hashtbl.find_opt by_mix key) ~default:""));
    details =
      [
        ("r0_qps", rate);
        ("p50_ms", ms (Stats.median latencies));
        ("p99_ms", ms (Stats.percentile latencies ~p:99.0));
        ("step_requests", float_of_int (Array.length step));
        ("answered_share", float_of_int answered_step /. float_of_int (max 1 (Array.length step)));
        ("achieved_qps", float_of_int answered_step /. step_s);
        ("send_lag_max_ms", ms lag);
        ("capacity_best_qps", Array.fold_left Float.max 0.0 rates);
        ("p50_best_second_ms", ms (Array.fold_left Float.min infinity second_p50s));
        ("batch_size_mean", counter "serve.requests" /. Float.max 1.0 (counter "serve.batches"));
        ("dispatch_handle_p50_us", Stats.median handle_us);
      ];
    expected_rows = [];
    ctx;
    mixes = sample;
  }
