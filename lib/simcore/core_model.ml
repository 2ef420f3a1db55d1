module Hierarchy = Mppm_cache.Hierarchy

type params = {
  width : int;
  rob_entries : int;
  l2_exposure : float;
  llc_exposure : float;
  memory_exposure : float;
  fetch_exposure : float;
}

let default =
  {
    width = 4;
    rob_entries = 128;
    l2_exposure = 0.35;
    llc_exposure = 0.55;
    memory_exposure = 0.85;
    fetch_exposure = 0.70;
  }

type stalls = {
  data : float array;
  fetch : float array;
  fetch_miss_extra : float;
}

(* The L1 hit latency is pipelined away; only latency beyond it can stall. *)
let extra_latency config ~kind level =
  float_of_int (max 0 (Hierarchy.level_latency config ~kind level - 1))

(* Exposures are per level code; an L1 hit's is 0. *)
let stalls params config =
  let numerators ~kind exposures =
    Array.mapi
      (fun level exposure -> exposure *. extra_latency config ~kind level)
      exposures
  in
  let fetch = params.fetch_exposure in
  {
    data =
      numerators ~kind:Hierarchy.Load
        [| 0.0; params.l2_exposure; params.llc_exposure; params.memory_exposure |];
    fetch = numerators ~kind:Hierarchy.Fetch [| 0.0; fetch; fetch; fetch |];
    fetch_miss_extra =
      params.fetch_exposure *. float_of_int config.Hierarchy.memory_latency;
  }

let pp ppf params =
  Format.fprintf ppf
    "%d-wide, %d-entry ROB; exposure L2 %.2f / LLC %.2f / mem %.2f / fetch %.2f"
    params.width params.rob_entries params.l2_exposure params.llc_exposure
    params.memory_exposure params.fetch_exposure
