type access_kind = Load | Store
type access = { addr : int; kind : access_kind }
type t = { instructions : int; access : access option }

let compute n =
  if n < 1 then invalid_arg "Op.compute: block must retire >= 1 instruction";
  { instructions = n; access = None }

let memory ~gap ~addr ~kind =
  if gap < 0 then invalid_arg "Op.memory: negative gap";
  { instructions = gap + 1; access = Some { addr; kind } }
