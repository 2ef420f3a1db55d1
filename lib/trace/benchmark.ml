type pattern = Uniform | Sequential | Strided of int

type region = {
  region_name : string;
  size_bytes : int;
  weight : float;
  region_pattern : pattern;
}

type phase = {
  phase_name : string;
  base_cpi : float;
  mem_ratio : float;
  store_fraction : float;
  mlp : float;
  regions : region list;
}

type t = {
  name : string;
  description : string;
  schedule : (phase * int) list;
  code_bytes : int;
  hot_code_bytes : int;
  cold_fetch_rate : float;
}

let fail fmt = Printf.ksprintf invalid_arg fmt

let validate_region b r =
  if r.size_bytes <= 0 then
    fail "Benchmark %s: region %s has non-positive size" b r.region_name;
  if r.weight < 0.0 then
    fail "Benchmark %s: region %s has negative weight" b r.region_name;
  match r.region_pattern with
  | Strided s when s <= 0 -> fail "Benchmark %s: region %s has non-positive stride" b r.region_name
  | Strided s when s >= r.size_bytes ->
      fail "Benchmark %s: region %s stride exceeds region size" b r.region_name
  | Strided _ | Uniform | Sequential -> ()

let validate_phase b (p, duration) =
  if duration <= 0 then fail "Benchmark %s: phase %s has non-positive duration" b p.phase_name;
  if p.base_cpi <= 0.0 then fail "Benchmark %s: phase %s has non-positive base CPI" b p.phase_name;
  if p.mem_ratio < 0.0 || p.mem_ratio > 1.0 then
    fail "Benchmark %s: phase %s mem_ratio not in [0,1]" b p.phase_name;
  if p.store_fraction < 0.0 || p.store_fraction > 1.0 then
    fail "Benchmark %s: phase %s store_fraction not in [0,1]" b p.phase_name;
  if p.mlp < 1.0 then fail "Benchmark %s: phase %s mlp must be >= 1" b p.phase_name;
  if p.regions = [] then fail "Benchmark %s: phase %s has no regions" b p.phase_name;
  List.iter (validate_region b) p.regions;
  let total_weight = List.fold_left (fun acc r -> acc +. r.weight) 0.0 p.regions in
  if not (total_weight > 0.0) then
    fail "Benchmark %s: phase %s has zero total region weight" b p.phase_name

let validate t =
  if t.name = "" then fail "Benchmark: empty name";
  if t.schedule = [] then fail "Benchmark %s: empty schedule" t.name;
  List.iter (validate_phase t.name) t.schedule;
  if t.code_bytes <= 0 then fail "Benchmark %s: non-positive code footprint" t.name;
  if t.hot_code_bytes <= 0 || t.hot_code_bytes > t.code_bytes then
    fail "Benchmark %s: hot code must be positive and within the footprint"
      t.name;
  if t.cold_fetch_rate < 0.0 || t.cold_fetch_rate > 1.0 then
    fail "Benchmark %s: cold_fetch_rate not in [0,1]" t.name

let schedule_period t =
  List.fold_left (fun acc (_, d) -> acc + d) 0 t.schedule

let data_footprint t =
  List.fold_left
    (fun acc (p, _) ->
      let phase_bytes =
        List.fold_left (fun b r -> b + r.size_bytes) 0 p.regions
      in
      max acc phase_bytes)
    0 t.schedule

let mean_mem_ratio t =
  let period = schedule_period t in
  let weighted =
    List.fold_left
      (fun acc (p, d) -> acc +. (p.mem_ratio *. float_of_int d))
      0.0 t.schedule
  in
  weighted /. float_of_int period

let pp ppf t =
  Format.fprintf ppf "%s: %s (%d phases, %s data, %s code)" t.name
    t.description (List.length t.schedule)
    (let b = data_footprint t in
     if b >= 1 lsl 20 then Printf.sprintf "%.1fMB" (float_of_int b /. 1048576.0)
     else Printf.sprintf "%dKB" (b / 1024))
    (Printf.sprintf "%dKB" (t.code_bytes / 1024))
