(* Incremental facts cache.

   Facts are plain serializable data, so one Marshal'd file keyed by
   per-source fingerprints lets a re-run skip every unchanged parse.
   The cache is disposable: any read failure (missing file, stale magic
   after a format change, truncation) degrades to an empty cache. *)

let magic = "mppm-sema-cache v6"

let key ~rel content =
  Mppm_util.Fingerprint.(
    to_hex (add_string (add_string (of_string magic) rel) content))

type t = (string, Facts.t) Hashtbl.t

let create () : t = Hashtbl.create ~random:false 64

let load path : t =
  match
    if Sys.file_exists path then begin
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let m = really_input_string ic (String.length magic) in
          if m <> magic then None
          else Some (Marshal.from_channel ic : (string * Facts.t) list))
    end
    else None
  with
  | Some entries ->
      let t = create () in
      List.iter (fun (k, v) -> Hashtbl.replace t k v) entries;
      t
  | None -> create ()
  | exception _ -> create ()

let store path (t : t) =
  let entries =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] |> List.sort compare
  in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      Marshal.to_channel oc entries [])

let find (t : t) k = Hashtbl.find_opt t k
let add (t : t) k v = Hashtbl.replace t k v
