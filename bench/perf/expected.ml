(* Committed expected outputs (bench/perf/expected/), one file per
   workload and seed, written by --write-expected.  A run whose seed has
   a file compares every output against it; other seeds rely on the
   checks that need no reference (repeat passes, daemon vs in-process
   answers, sanity bounds). *)

let dir = Filename.concat "bench" (Filename.concat "perf" "expected")

let path ~workload ~seed =
  Filename.concat dir (Printf.sprintf "%s-seed%d.txt" workload seed)

(* Rows of whitespace-separated fields; [None] when there is no file. *)
let load ~workload ~seed =
  let p = path ~workload ~seed in
  if not (Sys.file_exists p) then None
  else begin
    let ic = open_in p in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec rows acc =
          match input_line ic with
          | line when String.length line = 0 || line.[0] = '#' -> rows acc
          | line ->
              rows
                (List.filter (fun f -> f <> "") (String.split_on_char ' ' line)
                :: acc)
          | exception End_of_file -> List.rev acc
        in
        Some (rows []))
  end

let save ~workload ~seed ~header rows =
  Run.mkdir_p dir;
  let p = path ~workload ~seed in
  let oc = open_out p in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "# %s\n" header;
      List.iter (fun r -> output_string oc (String.concat " " r ^ "\n")) rows);
  Printf.printf "wrote %s\n%!" p
