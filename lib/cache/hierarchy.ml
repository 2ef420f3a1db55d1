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

(* mppm: unit _ -- level code: 0 = L1, 1 = L2, 2 = LLC, 3 = memory *)
let access t ~kind ~addr =
  let l1 =
    match kind with Fetch -> t.l1i_cache | Load | Store -> t.l1d_cache
  in
  if Cache.access l1 addr > 0 then begin
    t.llc_depth <- -1;
    0
  end
  else if Cache.access t.l2_cache addr > 0 then begin
    t.llc_depth <- -1;
    1
  end
  else begin
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
  end

let llc_depth t = t.llc_depth
let llc_accesses t = t.llc_accesses
let llc_misses t = t.llc_misses

let counters t =
  let level name cache =
    List.map (fun (k, v) -> (name ^ "." ^ k, v)) (Cache.counters cache)
  in
  level "l1i" t.l1i_cache
  @ level "l1d" t.l1d_cache
  @ level "l2" t.l2_cache
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
