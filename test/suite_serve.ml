(* Tests for lib/serve and the mppmd daemon.

   Wire: qcheck round-trips (decode is a left inverse of encode for
   requests and responses), totality of the decoder on truncated,
   version-bumped, tag-corrupted, oversized and trailing-byte payloads,
   and the framing contract.

   Dispatch: handler output is byte-identical to the CLI renderers over
   the same context, malformed queries come back as structured errors,
   and rank is a deterministic function of the context seed.

   Daemon (when the built executables are visible): mppmd answers eight
   concurrent clients — pipelined, split-write and garbage frames
   included — byte-identically to the one-shot CLI, for --jobs 1 and
   --jobs 4 alike, and the loadgen harness passes its own --check. *)

module Wire = Mppm_serve.Wire
module Dispatch = Mppm_serve.Dispatch
module Suite = Mppm_trace.Suite
open Mppm_experiments

let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0


(* ---- qcheck round-trips ---------------------------------------------- *)

let name_gen = QCheck.Gen.(string_size ~gen:printable (int_bound 12))

let request_gen =
  let open QCheck.Gen in
  oneof
    [
      map2
        (fun names llc_config -> Wire.Predict { names; llc_config })
        (list_size (int_bound 6) name_gen)
        (int_bound 1000);
      map2
        (fun names llc_config -> Wire.Compare { names; llc_config })
        (list_size (int_bound 6) name_gen)
        (int_bound 1000);
      map2
        (fun cores count -> Wire.Rank { cores; count })
        (int_bound 100) (int_bound 10_000);
      return Wire.Stats;
      return Wire.Shutdown;
    ]

let error_code_gen =
  QCheck.Gen.oneofl
    [
      Wire.Bad_frame; Wire.Bad_version; Wire.Bad_request; Wire.Bad_response;
      Wire.Unknown_benchmark; Wire.Internal;
    ]

let response_gen =
  let open QCheck.Gen in
  oneof
    [
      map (fun s -> Wire.Output s) (string_size ~gen:printable (int_bound 200));
      map
        (fun kvs -> Wire.Counters kvs)
        (list_size (int_bound 8) (pair name_gen float));
      map2
        (fun code message -> Wire.Error { code; message })
        error_code_gen name_gen;
    ]

let request_arb =
  QCheck.make request_gen ~print:(fun r ->
      String.escaped (Wire.encode_request r))

let response_arb =
  QCheck.make response_gen ~print:(fun r ->
      String.escaped (Wire.encode_response r))

let qcheck_tests =
  [
    QCheck.Test.make ~count:500 ~name:"request decode∘encode = id" request_arb
      (fun req ->
        match Wire.decode_request (Wire.encode_request req) with
        | Result.Ok req' -> Wire.equal_request req req'
        | Result.Error _ -> false);
    QCheck.Test.make ~count:500 ~name:"response decode∘encode = id"
      response_arb (fun resp ->
        match Wire.decode_response (Wire.encode_response resp) with
        | Result.Ok resp' -> Wire.equal_response resp resp'
        | Result.Error _ -> false);
    QCheck.Test.make ~count:500 ~name:"truncated request is a Bad_frame"
      request_arb (fun req ->
        let enc = Wire.encode_request req in
        match
          Wire.decode_request (String.sub enc 0 (String.length enc - 1))
        with
        | Result.Error (Wire.Bad_frame, _) -> true
        | _ -> false);
    QCheck.Test.make ~count:500 ~name:"trailing bytes are a Bad_frame"
      request_arb (fun req ->
        match Wire.decode_request (Wire.encode_request req ^ "\x00") with
        | Result.Error (Wire.Bad_frame, _) -> true
        | _ -> false);
    QCheck.Test.make ~count:500 ~name:"version bump is a Bad_version"
      request_arb (fun req ->
        let enc = Bytes.of_string (Wire.encode_request req) in
        Bytes.set enc 0 (Char.chr (Wire.protocol_version + 8));
        match Wire.decode_request (Bytes.to_string enc) with
        | Result.Error (Wire.Bad_version, _) -> true
        | _ -> false);
    QCheck.Test.make ~count:500 ~name:"framing round-trip" request_arb
      (fun req ->
        let payload = Wire.encode_request req in
        let framed = Wire.frame payload in
        match Wire.frame_length (String.sub framed 0 4) with
        | Result.Ok len ->
            len = String.length payload
            && String.sub framed 4 len = payload
        | Result.Error _ -> false);
  ]

(* ---- decoder totality on crafted payloads ---------------------------- *)

let u32_be v =
  let b = Bytes.create 4 in
  Bytes.set b 0 (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (v land 0xff));
  Bytes.to_string b

let expect_error what result expected_code =
  match result with
  | Result.Error (code, msg) ->
      Alcotest.(check bool)
        (what ^ " carries the expected code")
        true (code = expected_code);
      Alcotest.(check bool) (what ^ " message is prefixed") true
        (String.length msg > 5 && String.sub msg 0 5 = "Wire:")
  | Result.Ok _ -> Alcotest.fail (what ^ ": decoder accepted a bad payload")

let test_decoder_totality () =
  expect_error "unknown request tag"
    (Wire.decode_request "\x01\xff")
    Wire.Bad_request;
  expect_error "unknown response tag"
    (Wire.decode_response "\x01\xff")
    Wire.Bad_response;
  expect_error "unknown error code"
    (Wire.decode_response ("\x01\x03\x2a" ^ u32_be 0))
    Wire.Bad_response;
  expect_error "empty payload" (Wire.decode_request "") Wire.Bad_frame;
  (* A hostile count field must be rejected before any allocation. *)
  expect_error "list count above the cap"
    (Wire.decode_request ("\x01\x01" ^ u32_be 1 ^ u32_be 1_000_000))
    Wire.Bad_frame;
  (* A name length lying past the payload end. *)
  expect_error "lying string length"
    (Wire.decode_request ("\x01\x01" ^ u32_be 1 ^ u32_be 1 ^ u32_be 500))
    Wire.Bad_frame

let test_framing_contract () =
  (match Wire.frame_length "ab" with
  | Result.Error (Wire.Bad_frame, _) -> ()
  | _ -> Alcotest.fail "short prefix accepted");
  (match Wire.frame_length (u32_be 0) with
  | Result.Error (Wire.Bad_frame, _) -> ()
  | _ -> Alcotest.fail "zero-length frame accepted");
  (match Wire.frame_length (u32_be (Wire.max_frame_bytes + 1)) with
  | Result.Error (Wire.Bad_frame, _) -> ()
  | _ -> Alcotest.fail "oversized frame accepted");
  (match Wire.frame_length (u32_be 2) with
  | Result.Ok 2 -> ()
  | _ -> Alcotest.fail "minimal frame rejected");
  Alcotest.(check bool) "frame rejects the empty payload" true
    (try
       ignore (Wire.frame "");
       false
     with Invalid_argument _ -> true)

let test_endpoints () =
  (match Wire.endpoint_of_string "unix:/tmp/x.sock" with
  | Result.Ok (Wire.Unix_socket "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix endpoint");
  (match Wire.endpoint_of_string "tcp:localhost:7070" with
  | Result.Ok (Wire.Tcp { host = "localhost"; port = 7070 }) -> ()
  | _ -> Alcotest.fail "tcp endpoint");
  List.iter
    (fun bad ->
      match Wire.endpoint_of_string bad with
      | Result.Error _ -> ()
      | Result.Ok _ -> Alcotest.fail ("accepted bad endpoint " ^ bad))
    [ "unix:"; "tcp:localhost"; "tcp::80"; "tcp:h:0"; "tcp:h:70000"; "nope" ];
  List.iter
    (fun s ->
      match Wire.endpoint_of_string s with
      | Result.Ok ep ->
          Alcotest.(check string) "endpoint round-trip" s
            (Wire.endpoint_to_string ep)
      | Result.Error _ -> Alcotest.fail ("endpoint " ^ s))
    [ "unix:mppmd.sock"; "tcp:127.0.0.1:7070" ]

(* ---- dispatch -------------------------------------------------------- *)

let render f = Format.asprintf "%t" f

let output_of what resp =
  match resp with
  | Wire.Output text -> text
  | Wire.Error { message; _ } -> Alcotest.fail (what ^ ": error: " ^ message)
  | Wire.Counters _ -> Alcotest.fail (what ^ ": unexpected counters")

let test_dispatch_predict_matches_renderers () =
  Suite_experiments.with_ctx @@ fun ctx ->
  let names = [ "gamess"; "gamess"; "hmmer"; "soplex" ] in
  let served =
    output_of "predict"
      (Dispatch.handle ctx (Wire.Predict { names; llc_config = 1 }))
  in
  let mixes =
    match Dispatch.parse_mixes names with
    | Result.Ok mixes -> mixes
    | Result.Error (_, msg) -> Alcotest.fail msg
  in
  let direct =
    let results =
      Array.map
        (fun mix -> Context.predict ctx ~llc_config:1 mix)
        (Array.of_list mixes)
    in
    render (fun ppf -> Dispatch.pp_batch Dispatch.pp_predicted ~mixes ppf results)
  in
  Alcotest.(check string) "served = rendered" direct served;
  (* A batch gets the == mix == headers. *)
  let batch =
    output_of "batch predict"
      (Dispatch.handle ctx
         (Wire.Predict { names = [ "gamess,hmmer"; "lbm,milc" ]; llc_config = 1 }))
  in
  Alcotest.(check bool) "batch has mix headers" true
    (contains batch "== mix ")

let test_dispatch_errors () =
  Suite_experiments.with_ctx @@ fun ctx ->
  (match Dispatch.handle ctx (Wire.Predict { names = [ "nosuch" ]; llc_config = 1 }) with
  | Wire.Error { code = Wire.Unknown_benchmark; message } ->
      Alcotest.(check bool) "names the benchmark" true
        (contains message "nosuch")
  | _ -> Alcotest.fail "unknown benchmark not rejected");
  (match Dispatch.handle ctx (Wire.Predict { names = []; llc_config = 1 }) with
  | Wire.Error { code = Wire.Bad_request; _ } -> ()
  | _ -> Alcotest.fail "empty mix not rejected");
  List.iter
    (fun llc_config ->
      match Dispatch.handle ctx (Wire.Predict { names = [ "gamess" ]; llc_config }) with
      | Wire.Error { code = Wire.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "LLC config bound not enforced")
    [ 0; 7; -1 ];
  List.iter
    (fun (cores, count) ->
      match Dispatch.handle ctx (Wire.Rank { cores; count }) with
      | Wire.Error { code = Wire.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "rank bounds not enforced")
    [ (0, 10); (65, 10); (2, 0); (2, 2_000_000) ]

let test_dispatch_rank_deterministic () =
  Suite_experiments.with_ctx @@ fun ctx ->
  let one () =
    output_of "rank" (Dispatch.handle ctx (Wire.Rank { cores = 2; count = 3 }))
  in
  let a = one () in
  Alcotest.(check string) "rank repeats bit-for-bit" a (one ());
  Alcotest.(check bool) "rank lists every config" true
    (contains a
       (Printf.sprintf "%d. config #" Mppm_cache.Configs.llc_config_count));
  (* The handler is exactly rank_configs fed through pp_ranking. *)
  let direct =
    Format.asprintf "%t" (fun fmt ->
        Dispatch.pp_ranking ~cores:2 ~count:3 fmt
          (Dispatch.rank_configs ctx ~cores:2 ~count:3))
  in
  Alcotest.(check string) "handle output is the rendered ranking" direct a

let test_dispatch_stats () =
  Suite_experiments.with_ctx @@ fun ctx ->
  ignore (Dispatch.handle ctx (Wire.Predict { names = [ "hmmer" ]; llc_config = 1 }));
  match Dispatch.handle ctx Wire.Stats with
  | Wire.Counters kvs ->
      let get name = List.assoc_opt name kvs in
      (match get "serve.requests" with
      | Some v -> Alcotest.(check bool) "requests counted" true (v >= 1.0)
      | None -> Alcotest.fail "serve.requests missing")
  | _ -> Alcotest.fail "stats did not return counters"

(* ---- daemon integration ---------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let built_exe rel =
  let candidates =
    (match Sys.getenv_opt "MPPM_LINT_ROOT" with Some r -> [ r ] | None -> [])
    @ [ ".."; "../.."; "." ]
  in
  List.find_map
    (fun root ->
      let path = Filename.concat root rel in
      if Sys.file_exists path then Some path else None)
    candidates

let run_cli cmd =
  let out = Filename.temp_file "mppm_serve_out" ".txt" in
  let rc = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote out)) in
  let text = read_file out in
  Sys.remove out;
  (rc, text)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

(* Reads exactly one frame: [fill] never asks the socket for more bytes
   than the current frame needs, so pipelined responses queued behind it
   are left for the next call. *)
let read_frame fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec fill need =
    if Buffer.length buf < need then begin
      let want = min (Bytes.length chunk) (need - Buffer.length buf) in
      let n = Unix.read fd chunk 0 want in
      if n = 0 then Alcotest.fail "daemon closed the connection mid-response";
      Buffer.add_subbytes buf chunk 0 n;
      fill need
    end
  in
  fill 4;
  let len =
    match Wire.frame_length (String.sub (Buffer.contents buf) 0 4) with
    | Result.Ok len -> len
    | Result.Error (_, msg) -> Alcotest.fail msg
  in
  fill (4 + len);
  String.sub (Buffer.contents buf) 4 len

let response_text payload =
  match Wire.decode_response payload with
  | Result.Ok (Wire.Output text) -> text
  | Result.Ok (Wire.Error { message; _ }) ->
      Alcotest.fail ("daemon error: " ^ message)
  | Result.Ok (Wire.Counters _) -> Alcotest.fail "unexpected counters"
  | Result.Error (_, msg) -> Alcotest.fail msg

(* A daemon under test: spawned from the built mppmd.exe, shut down (and
   reaped) by [stop], its socket reclaimed by the temp-dir name. *)
type daemon = { pid : int; sock : string; log : string }

let start_daemon exe ~jobs ~cache ~idx =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mppmd-test-%d-%d.sock" (Unix.getpid ()) idx)
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let log = Filename.temp_file "mppmd_test" ".log" in
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0o400 in
  let pid =
    Unix.create_process exe
      [|
        exe; "--length"; "100000"; "--seed"; "7"; "--cache"; cache;
        "--listen"; "unix:" ^ sock; "--jobs"; string_of_int jobs;
      |]
      null log_fd log_fd
  in
  Unix.close log_fd;
  Unix.close null;
  (* Wait until the daemon accepts (it warms 29 profiles first). *)
  let deadline = 1200 in
  let rec await tries =
    if tries > deadline then begin
      Unix.kill pid Sys.sigkill;
      Alcotest.fail ("mppmd did not come up; log: " ^ read_file log)
    end;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        Unix.sleepf 0.05;
        await (tries + 1)
  in
  await 0;
  { pid; sock; log }

let connect daemon =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX daemon.sock);
  fd

let request_daemon daemon req =
  let fd = connect daemon in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_all fd (Wire.frame (Wire.encode_request req));
      read_frame fd)

let stop_daemon daemon =
  (try ignore (request_daemon daemon Wire.Shutdown)
   with _ -> (try Unix.kill daemon.pid Sys.sigkill with Unix.Unix_error _ -> ()));
  ignore (Unix.waitpid [] daemon.pid);
  (try Sys.remove daemon.log with Sys_error _ -> ());
  try Sys.remove daemon.sock with Sys_error _ -> ()

let with_daemon exe ~jobs ~cache ~idx f =
  let daemon = start_daemon exe ~jobs ~cache ~idx in
  Fun.protect ~finally:(fun () -> stop_daemon daemon) (fun () -> f daemon)

let mix_a = [ "gamess"; "gamess"; "hmmer"; "soplex" ]
let mix_b = [ "mcf"; "lbm"; "milc"; "GemsFDTD" ]

let test_daemon_end_to_end () =
  match (built_exe "bin/mppmd.exe", built_exe "bin/mppm.exe") with
  | None, _ | _, None -> () (* source checkout without a build *)
  | Some mppmd, Some mppm ->
      let cache =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "mppmd-test-cache-%d" (Unix.getpid ()))
      in
      let cli names =
        let rc, text =
          run_cli
            (Printf.sprintf
               "%s predict %s --length 100000 --seed 7 --cache %s"
               (Filename.quote mppm) (String.concat " " names)
               (Filename.quote cache))
        in
        Alcotest.(check int) "one-shot CLI exits 0" 0 rc;
        text
      in
      let expect_a = cli mix_a in
      let expect_b = cli mix_b in
      with_daemon mppmd ~jobs:4 ~cache ~idx:0 (fun daemon ->
          (* Eight concurrent clients, alternating queries; all frames are
             written before any response is read, so the daemon sees the
             full concurrency. *)
          let clients =
            Array.init 8 (fun i ->
                (connect daemon, if i mod 2 = 0 then mix_a else mix_b))
          in
          Array.iteri
            (fun i (fd, mix) ->
              let framed =
                Wire.frame
                  (Wire.encode_request
                     (Wire.Predict { names = mix; llc_config = 1 }))
              in
              if i = 0 then begin
                (* Split writes exercise the daemon's frame reassembly. *)
                write_all fd (String.sub framed 0 3);
                Unix.sleepf 0.01;
                write_all fd
                  (String.sub framed 3 (String.length framed - 3))
              end
              else write_all fd framed)
            clients;
          Array.iteri
            (fun i (fd, mix) ->
              let expected = if mix == mix_a then expect_a else expect_b in
              Alcotest.(check string)
                (Printf.sprintf "client %d matches the one-shot CLI" i)
                expected
                (response_text (read_frame fd)))
            clients;
          Array.iter (fun (fd, _) -> Unix.close fd) clients;
          (* Pipelining: three requests in one write come back in order. *)
          let fd = connect daemon in
          let one = Wire.frame (Wire.encode_request (Wire.Predict { names = mix_a; llc_config = 1 })) in
          let two = Wire.frame (Wire.encode_request (Wire.Predict { names = mix_b; llc_config = 1 })) in
          write_all fd (one ^ two ^ one);
          Alcotest.(check string) "pipelined 1" expect_a (response_text (read_frame fd));
          Alcotest.(check string) "pipelined 2" expect_b (response_text (read_frame fd));
          Alcotest.(check string) "pipelined 3" expect_a (response_text (read_frame fd));
          Unix.close fd;
          (* A version-corrupted request is answered with a structured
             error and the connection survives for the next query. *)
          let fd = connect daemon in
          write_all fd
            (Wire.frame
               (Printf.sprintf "%c\x04"
                  (Char.chr (Wire.protocol_version + 8))));
          (match Wire.decode_response (read_frame fd) with
          | Result.Ok (Wire.Error { code = Wire.Bad_version; _ }) -> ()
          | _ -> Alcotest.fail "version error not surfaced");
          write_all fd one;
          Alcotest.(check string) "connection survives a bad request"
            expect_a
            (response_text (read_frame fd));
          Unix.close fd;
          (* The client subcommand speaks the same protocol: unknown
             benchmarks exit 2 with the structured message. *)
          let rc, text =
            run_cli
              (Printf.sprintf "%s client predict nosuch --connect unix:%s"
                 (Filename.quote mppm) daemon.sock)
          in
          Alcotest.(check int) "client exits 2 on unknown benchmark" 2 rc;
          Alcotest.(check bool) "client names the benchmark" true
            (contains text "nosuch");
          let rc, text =
            run_cli
              (Printf.sprintf "%s client stats --connect unix:%s"
                 (Filename.quote mppm) daemon.sock)
          in
          Alcotest.(check int) "client stats exits 0" 0 rc;
          Alcotest.(check bool) "stats lists serve.requests" true
            (contains text "serve.requests");
          (* The loadgen harness against the live daemon: its --check
             verifies responses are deterministic across interleavings. *)
          match built_exe "tools/loadgen.exe" with
          | None -> ()
          | Some loadgen ->
              let rc, text =
                run_cli
                  (Printf.sprintf
                     "%s --connect unix:%s --queries 64 --concurrency 8 \
                      --check"
                     (Filename.quote loadgen) daemon.sock)
              in
              Alcotest.(check int) ("loadgen --check exits 0: " ^ text) 0 rc);
      (* A --jobs 1 daemon answers byte-identically to the --jobs 4 one
         (both already diffed against the CLI above, so one query
         suffices). *)
      with_daemon mppmd ~jobs:1 ~cache ~idx:1 (fun daemon ->
          Alcotest.(check string) "--jobs 1 matches the CLI" expect_a
            (response_text
               (request_daemon daemon
                  (Wire.Predict { names = mix_a; llc_config = 1 }))))

(* A frame of several MiB, written a KiB at a time, is reassembled into
   the same request as when it arrives in one write: both get the same
   structured reply. *)
let test_daemon_large_frame () =
  match built_exe "bin/mppmd.exe" with
  | None -> () (* source checkout without a build *)
  | Some mppmd ->
      let cache =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "mppmd-test-cache-%d" (Unix.getpid ()))
      in
      let framed =
        Wire.frame
          (Wire.encode_request
             (Wire.Predict
                { names = mix_a @ [ String.make (3 lsl 20) 'x' ]; llc_config = 1 }))
      in
      with_daemon mppmd ~jobs:2 ~cache ~idx:3 (fun daemon ->
          let ask write =
            let fd = connect daemon in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                write fd;
                read_frame fd)
          in
          let whole = ask (fun fd -> write_all fd framed) in
          let pieces =
            ask (fun fd ->
                let n = String.length framed in
                let rec go off =
                  if off < n then begin
                    let k = min 1024 (n - off) in
                    write_all fd (String.sub framed off k);
                    go (off + k)
                  end
                in
                go 0)
          in
          (match Wire.decode_response whole with
          | Result.Ok (Wire.Error { code = Wire.Unknown_benchmark; _ }) -> ()
          | _ -> Alcotest.fail "the large request was not decoded");
          Alcotest.(check bool) "reply to 1 KiB writes = reply to one write"
            true (String.equal whole pieces))

(* SIGTERM ends the daemon cleanly: exit status 0, the "served" line
   printed, and the unix socket removed by its finaliser. *)
let test_daemon_sigterm () =
  match built_exe "bin/mppmd.exe" with
  | None -> () (* source checkout without a build *)
  | Some mppmd ->
      let cache =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "mppmd-test-cache-%d" (Unix.getpid ()))
      in
      let daemon = start_daemon mppmd ~jobs:2 ~cache ~idx:2 in
      Unix.kill daemon.pid Sys.sigterm;
      let _, status = Unix.waitpid [] daemon.pid in
      let log = read_file daemon.log in
      Sys.remove daemon.log;
      Alcotest.(check bool) ("exit status 0; log: " ^ log) true
        (status = Unix.WEXITED 0);
      Alcotest.(check bool) "socket removed" false (Sys.file_exists daemon.sock);
      Alcotest.(check bool) "served line printed" true (contains log "served")

let tests =
  [
    ( "serve.wire",
      List.map QCheck_alcotest.to_alcotest qcheck_tests
      @ [
          Alcotest.test_case "decoder totality" `Quick test_decoder_totality;
          Alcotest.test_case "framing contract" `Quick test_framing_contract;
          Alcotest.test_case "endpoints" `Quick test_endpoints;
        ] );
    ( "serve.dispatch",
      [
        Alcotest.test_case "predict matches renderers" `Quick
          test_dispatch_predict_matches_renderers;
        Alcotest.test_case "structured errors" `Quick test_dispatch_errors;
        Alcotest.test_case "rank deterministic" `Quick
          test_dispatch_rank_deterministic;
        Alcotest.test_case "stats counters" `Quick test_dispatch_stats;
      ] );
    ( "serve.daemon",
      [
        Alcotest.test_case "end to end vs one-shot CLI" `Slow
          test_daemon_end_to_end;
        Alcotest.test_case "SIGTERM removes the socket" `Slow
          test_daemon_sigterm;
        Alcotest.test_case "multi-MiB frame in small writes" `Slow
          test_daemon_large_frame;
      ] );
  ]
