(* mppmd: the resident MPPM prediction daemon.

   Keeps the whole benchmark suite's single-core profiles resident (warmed
   through Context.all_profiles over the domain pool at startup, then
   served from the Single_flight memo forever after) and answers
   predict / compare / rank / stats queries over the length-prefixed wire
   protocol of Mppm_serve.Wire — see docs/service.md for the spec.

   Architecture: one select(2) loop owns the listening socket and every
   client connection; complete frames collected in a loop pass form a
   batch that is fanned across an Mppm_pool.Pool of domains (requests
   pipelined on one connection keep their order because batches preserve
   arrival order).  All request handling is Mppm_serve.Dispatch — the
   daemon owns only sockets, so its answers are byte-identical to the
   one-shot CLI for the same query, whatever the job count or client
   interleaving (tested in test/suite_serve.ml, diffed again by CI). *)

module Wire = Mppm_serve.Wire
module Dispatch = Mppm_serve.Dispatch
module Pool = Mppm_pool.Pool
module Registry = Mppm_obs.Registry
open Mppm_experiments

let max_clients = 64

(* ---- sockets --------------------------------------------------------- *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found ->
      failwith (Printf.sprintf "mppmd: cannot resolve host %S" host))

(* A leftover socket file from a crashed daemon would make every restart
   fail; probe it and only reclaim the path when nothing accepts. *)
let reclaim_stale_unix_socket path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect probe (Unix.ADDR_UNIX path) with
    | () ->
        Unix.close probe;
        failwith
          (Printf.sprintf
             "mppmd: %s is in use by a running daemon (shut it down first, \
              or listen elsewhere)"
             path)
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        Unix.close probe;
        (try Sys.remove path with Sys_error _ -> ())
    | exception e ->
        Unix.close probe;
        raise e
  end

let listen_socket = function
  | Wire.Unix_socket path ->
      reclaim_stale_unix_socket path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd max_clients;
      fd
  | Wire.Tcp { host; port } ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
      Unix.listen fd max_clients;
      fd

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* ---- connections ----------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  id : int;
  (* Received bytes not yet consumed by framing: [inbox] from [start] to
     [stop].  Reads append at [stop]; framing advances [start]. *)
  mutable inbox : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable closing : bool;  (* close once the pending responses are out *)
}

(* The most one read takes, and the least room it is given. *)
let read_size = 65536
let min_room = 4096

(* Reads what [conn]'s socket has, up to [read_size] bytes, into the
   inbox; returns the count, 0 at end of stream.  The unconsumed bytes
   move to the front first (once per read, not per frame), and the inbox
   doubles when even that leaves too little room, so a frame of n bytes
   costs O(n) copying however it is split. *)
let read_into conn =
  let pending = conn.stop - conn.start in
  if conn.start > 0 then begin
    Bytes.blit conn.inbox conn.start conn.inbox 0 pending;
    conn.start <- 0;
    conn.stop <- pending
  end;
  if Bytes.length conn.inbox - pending < min_room then begin
    let bigger = Bytes.create (2 * Bytes.length conn.inbox) in
    Bytes.blit conn.inbox 0 bigger 0 pending;
    conn.inbox <- bigger
  end;
  let n =
    Unix.read conn.fd conn.inbox conn.stop
      (min read_size (Bytes.length conn.inbox - pending))
  in
  conn.stop <- conn.stop + n;
  n

(* One unit of work for the dispatch batch: a well-framed payload, or the
   framing-layer error that poisoned the connection. *)
type work = Payload of string | Garbage of Wire.error_code * string

(* Pop every complete frame out of [conn.inbox].  A corrupt length prefix
   cannot be resynchronized, so it yields one final [Garbage] work item
   (answered with a structured error response) and marks the connection
   for close. *)
let rec take_frames conn acc =
  let available = conn.stop - conn.start in
  if available < 4 then List.rev acc
  else
    match Wire.frame_length (Bytes.sub_string conn.inbox conn.start 4) with
    | Error (code, msg) ->
        conn.start <- conn.stop;
        conn.closing <- true;
        List.rev (Garbage (code, msg) :: acc)
    | Ok len ->
        if available < 4 + len then List.rev acc
        else begin
          let payload = Bytes.sub_string conn.inbox (conn.start + 4) len in
          conn.start <- conn.start + 4 + len;
          take_frames conn (Payload payload :: acc)
        end

(* ---- request handling ------------------------------------------------ *)

(* Runs on a pool domain: pure function of the work item (registry and
   single-flight traffic is the sanctioned shared state), so responses
   are independent of scheduling. *)
let compute ctx work =
  match work with
  | Garbage (code, message) ->
      Registry.incr "serve.errors";
      (Wire.encode_response (Wire.Error { code; message }), false)
  | Payload payload -> (
      match Wire.decode_request payload with
      | Error (code, message) ->
          Registry.incr "serve.errors";
          (Wire.encode_response (Wire.Error { code; message }), false)
      | Ok req ->
          let shutdown =
            match req with Wire.Shutdown -> true | _ -> false
          in
          (Wire.encode_response (Dispatch.handle ctx req), shutdown))

(* ---- the serve loop -------------------------------------------------- *)

(* Set by SIGTERM/SIGINT: the loop finishes the batch in hand and
   returns, so [run]'s finaliser removes the unix socket.  A signal
   handler may run on any domain, hence the atomic. *)
let stop_requested = Atomic.make false

let serve ctx pool listen_fd =
  let running = ref true in
  let conns = ref [] in
  let next_id = ref 0 in
  let drop conn =
    conns := List.filter (fun c -> c.id <> conn.id) !conns;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  in
  let accept_new () =
    match Unix.accept listen_fd with
    | fd, _ ->
        incr next_id;
        Registry.incr "serve.connections";
        conns :=
          !conns
          @ [
              {
                fd;
                id = !next_id;
                inbox = Bytes.create min_room;
                start = 0;
                stop = 0;
                closing = false;
              };
            ]
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let read_conn conn =
    match read_into conn with
    | 0 -> drop conn
    | _ -> ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        drop conn
  in
  while !running && not (Atomic.get stop_requested) do
    let watched =
      (if List.length !conns < max_clients then [ listen_fd ] else [])
      @ List.map (fun c -> c.fd) !conns
    in
    (* The timeout bounds how long a signal that lands between the loop
       test and the select can go unnoticed. *)
    match Unix.select watched [] [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        if List.mem listen_fd readable then accept_new ();
        List.iter
          (fun conn -> if List.mem conn.fd readable then read_conn conn)
          !conns;
        (* Collect every complete frame that arrived this pass — across
           connections, in accept order, preserving per-connection
           arrival order — and answer the whole batch through the pool. *)
        let batch =
          List.concat_map
            (fun conn ->
              List.map (fun w -> (conn, w)) (take_frames conn []))
            !conns
        in
        if batch <> [] then begin
          Registry.incr "serve.batches";
          let items = Array.of_list batch in
          let answers =
            Pool.map pool (fun (_, work) -> compute ctx work) items
          in
          Array.iteri
            (fun i (encoded, shutdown) ->
              let conn, _ = items.(i) in
              (try write_all conn.fd (Wire.frame encoded)
               with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
                 conn.closing <- true);
              if shutdown then running := false)
            answers;
          List.iter (fun c -> if c.closing then drop c) !conns
        end
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) !conns

(* ---- start-up -------------------------------------------------------- *)

let parse_warm_configs s =
  let all = Mppm_cache.Configs.llc_config_count in
  if s = "all" then List.init all (fun i -> i + 1)
  else
    let parts = List.filter (fun x -> x <> "") (String.split_on_char ',' s) in
    if parts = [] then
      failwith "mppmd: --warm-configs needs \"all\" or LLC config numbers";
    List.map
      (fun p ->
        match int_of_string_opt p with
        | Some c when c >= 1 && c <= all -> c
        | _ ->
            failwith
              (Printf.sprintf
                 "mppmd: bad --warm-configs entry %S (valid: 1..%d or \
                  \"all\")"
                 p all))
      parts

let run length seed cache_dir listen jobs warm_configs =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let endpoint =
    match Wire.endpoint_of_string listen with
    | Ok ep -> ep
    | Error msg -> failwith msg
  in
  let warm_configs = parse_warm_configs warm_configs in
  let ctx = Context.create ~seed ~cache_dir (Scale.of_trace length) in
  let jobs = if jobs <= 0 then Pool.default_jobs () else jobs in
  Pool.with_pool ~jobs @@ fun pool ->
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun cfg -> ignore (Context.all_profiles ~pool ctx ~llc_config:cfg))
    warm_configs;
  (* Serving keeps only the resident profiles: return the warm-up's
     garbage (profile builds, stream recordings and their channels) to
     the system before the first request. *)
  Gc.compact ();
  Format.printf "mppmd: %d profiles resident (LLC config%s %s) in %.1fs@."
    (Mppm_trace.Suite.count * List.length warm_configs)
    (if List.length warm_configs = 1 then "" else "s")
    (String.concat "," (List.map string_of_int warm_configs))
    (Unix.gettimeofday () -. t0);
  List.iter
    (fun signal ->
      Sys.set_signal signal
        (Sys.Signal_handle (fun _ -> Atomic.set stop_requested true)))
    [ Sys.sigterm; Sys.sigint ];
  let listen_fd = listen_socket endpoint in
  Format.printf "mppmd: listening on %s (%d worker domain%s)@.%!"
    (Wire.endpoint_to_string endpoint)
    jobs
    (if jobs = 1 then "" else "s");
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      match endpoint with
      | Wire.Unix_socket path -> (
          try Sys.remove path with Sys_error _ -> ())
      | Wire.Tcp _ -> ())
    (fun () -> serve ctx pool listen_fd);
  Format.printf "mppmd: served %.0f request(s) over %.0f connection(s)@."
    (Registry.get "serve.requests")
    (Registry.get "serve.connections")

(* ---- command line ---------------------------------------------------- *)

open Cmdliner

let length_term =
  Arg.(
    value & opt int 2_000_000
    & info [ "length" ] ~doc:"Trace length in instructions.")

let seed_term =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Master random seed.")

let cache_term =
  Arg.(
    value
    & opt string "_profile_cache"
    & info [ "cache" ] ~doc:"Profile cache directory.")

let listen_term =
  Arg.(
    value
    & opt string "unix:mppmd.sock"
    & info [ "listen" ] ~docv:"ENDPOINT"
        ~doc:
          "Where to accept connections: $(b,unix:PATH) or \
           $(b,tcp:HOST:PORT).")

let jobs_term =
  Arg.(
    value & opt int 0
    & info [ "jobs" ]
        ~doc:
          "Worker domains answering request batches (0 = \
           Domain.recommended_domain_count).  Responses are bit-for-bit \
           identical for any value.")

let warm_term =
  Arg.(
    value & opt string "1"
    & info [ "warm-configs" ] ~docv:"CONFIGS"
        ~doc:
          "LLC configurations (Table 2) whose 29 profiles are loaded \
           resident at startup: comma-separated numbers or $(b,all).  \
           Other configurations warm lazily on first request.")

let cmd =
  Cmd.v
    (Cmd.info "mppmd"
       ~doc:
         "The resident MPPM prediction daemon: a hot profile store \
          answering predict/compare/rank/stats queries over a \
          length-prefixed socket protocol (see docs/service.md).")
    Term.(
      const run $ length_term $ seed_term $ cache_term $ listen_term
      $ jobs_term $ warm_term)

let () =
  try exit (Cmd.eval ~catch:false cmd) with
  | Failure msg | Sys_error msg | Invalid_argument msg ->
      prerr_endline ("mppmd: " ^ msg);
      exit 2
  | Unix.Unix_error (err, fn, arg) ->
      prerr_endline
        (Printf.sprintf "mppmd: %s%s: %s" fn
           (if arg = "" then "" else " " ^ arg)
           (Unix.error_message err));
      exit 2
