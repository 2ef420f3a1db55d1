(* One global counter table, shared by every domain.  Pool workers
   (lib/pool/) publish per-run aggregates here concurrently, so every
   operation takes the registry lock; counter updates are commutative
   additions, which keeps the totals independent of worker scheduling. *)

(* lint: allow-file S5 the registry is the one lib/ module outside
   lib/pool/ written from worker domains; a single lock makes its
   updates atomic *)

let counters : (string, float ref) Hashtbl.t = Hashtbl.create ~random:false 16
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(* Callers hold the lock. *)
let bump name by =
  if not (Float.is_finite by) then invalid_arg "Registry.add: non-finite delta";
  match Hashtbl.find_opt counters name with
  | Some cell -> cell := !cell +. by
  | None -> Hashtbl.add counters name (ref by)

let add name by = locked (fun () -> bump name by)
let incr name = add name 1.0

let add_all ~prefix pairs =
  locked (fun () ->
      List.iter (fun (name, v) -> bump (prefix ^ "." ^ name) v) pairs)

let get name =
  locked (fun () ->
      match Hashtbl.find_opt counters name with
      | Some cell -> !cell
      | None -> 0.0)

let snapshot_prefix prefix =
  let p = prefix ^ "." in
  locked (fun () ->
      Hashtbl.fold
        (fun name cell acc ->
          if String.starts_with ~prefix:p name then (name, !cell) :: acc
          else acc)
        counters [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset () = locked (fun () -> Hashtbl.reset counters)
