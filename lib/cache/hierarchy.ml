type level = { geometry : Geometry.t; latency : int }

type config = {
  l1i : level;
  l1d : level;
  l2 : level;
  llc : level;
  memory_latency : int;
}

type access_kind = Fetch | Load | Store

type t = {
  config : config;
  l1i_cache : Cache.t;
  l1d_cache : Cache.t;
  l2_cache : Cache.t;
  llc_cache : Cache.t;
  llc_owner : int;
  perfect_llc : bool;
  mutable llc_accesses : int;
  mutable llc_misses : int;
  mutable llc_depth : int;
  tally : int array;
}

let create ?llc ?(llc_owner = 0) ?(perfect_llc = false) config =
  let llc_cache =
    match llc with
    | Some cache ->
        if Cache.geometry cache <> config.llc.geometry then
          invalid_arg "Hierarchy.create: shared LLC geometry mismatch";
        cache
    | None -> Cache.create config.llc.geometry
  in
  {
    config;
    l1i_cache = Cache.create config.l1i.geometry;
    l1d_cache = Cache.create config.l1d.geometry;
    l2_cache = Cache.create config.l2.geometry;
    llc_cache;
    llc_owner;
    perfect_llc;
    llc_accesses = 0;
    llc_misses = 0;
    llc_depth = -1;
    tally = Array.make 6 0;
  }

let config t = t.config
let llc t = t.llc_cache

let level_latency config ~kind level =
  match level with
  | 0 -> (
      match kind with
      | Fetch -> config.l1i.latency
      | Load | Store -> config.l1d.latency)
  | 1 -> config.l2.latency
  | 2 -> config.llc.latency
  | _ -> config.llc.latency + config.memory_latency

(* mppm: unit _ -- level code: 0 = L1, 1 = L2, 2 = bound for the LLC *)
let access_private t ~kind ~addr =
  let l1 =
    match kind with Fetch -> t.l1i_cache | Load | Store -> t.l1d_cache
  in
  t.llc_depth <- -1;
  if Cache.access l1 addr > 0 then 0
  else if Cache.access t.l2_cache addr > 0 then 1
  else 2

(* mppm: unit _ -- level code: 2 = LLC hit, 3 = memory *)
let access_llc t ~addr =
  t.llc_accesses <- t.llc_accesses + 1;
  (* A perfect LLC hits on every access and keeps no state. *)
  let depth =
    if t.perfect_llc then 1
    else Cache.access_as t.llc_cache ~owner:t.llc_owner addr
  in
  t.llc_depth <- depth;
  if depth > 0 then 2
  else begin
    t.llc_misses <- t.llc_misses + 1;
    3
  end

(* mppm: unit _ -- level code: 0 = L1, 1 = L2, 2 = LLC, 3 = memory *)
let access t ~kind ~addr =
  match access_private t ~kind ~addr with
  | 2 -> access_llc t ~addr
  | level -> level

let save_private t put =
  List.iter (fun c -> Cache.save c put) [ t.l1i_cache; t.l1d_cache; t.l2_cache ]

let restore_private t get =
  List.iter
    (fun c -> Cache.restore c get)
    [ t.l1i_cache; t.l1d_cache; t.l2_cache ]

let llc_depth t = t.llc_depth
let llc_accesses t = t.llc_accesses
let llc_misses t = t.llc_misses

let tally t = t.tally

let counters t =
  (* A cache's own statistics plus the tallied outcomes it did not
     simulate. *)
  let level name cache ~hits ~misses =
    [
      (name ^ ".accesses", float_of_int (Cache.accesses cache + hits + misses));
      (name ^ ".hits", float_of_int (Cache.hits cache + hits));
      (name ^ ".misses", float_of_int (Cache.misses cache + misses));
    ]
  in
  let f = t.tally in
  level "l1i" t.l1i_cache ~hits:f.(0) ~misses:(f.(1) + f.(2))
  @ level "l1d" t.l1d_cache ~hits:f.(3) ~misses:(f.(4) + f.(5))
  @ level "l2" t.l2_cache ~hits:(f.(1) + f.(4)) ~misses:(f.(2) + f.(5))
  (* The LLC may be shared between cores; report this core's own view. *)
  @ [
      ("llc.accesses", float_of_int t.llc_accesses);
      ("llc.misses", float_of_int t.llc_misses);
      ("llc.hits", float_of_int (t.llc_accesses - t.llc_misses));
    ]

let pp_level ppf (name, level) =
  Format.fprintf ppf "%-10s %a, %d cycle%s" name Geometry.pp level.geometry
    level.latency
    (if level.latency = 1 then "" else "s")

let pp_config ppf config =
  Format.fprintf ppf "@[<v>%a@,%a@,%a@,%a@,%-10s %d cycles@]" pp_level
    ("L1 I", config.l1i) pp_level
    ("L1 D", config.l1d)
    pp_level ("L2", config.l2) pp_level ("LLC", config.llc) "memory"
    config.memory_latency
