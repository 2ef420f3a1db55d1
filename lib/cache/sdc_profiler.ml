(* The private cache image is built on the first [access]: a profiler fed
   through [record] from an external cache (the core engine's profiling
   runs) never allocates one. *)
type t = {
  cache : Cache.t Lazy.t;
  mutable current : Sdc.t;
  total : Sdc.t;
}

let create geometry =
  let assoc = geometry.Geometry.associativity in
  {
    cache = lazy (Cache.create geometry);
    current = Sdc.create ~assoc;
    total = Sdc.create ~assoc;
  }

(* mppm: hot — per-access profiling hook *)
let record t code =
  let depth = if code > 0 then code else max_int in
  Sdc.record t.current ~depth;
  Sdc.record t.total ~depth

let access t addr =
  let code = Cache.access (Lazy.force t.cache) addr in
  record t code;
  code

let cut_interval t =
  let finished = t.current in
  t.current <- Sdc.create ~assoc:(Sdc.assoc finished);
  finished

let current t = t.current
let lifetime_total t = Sdc.copy t.total
