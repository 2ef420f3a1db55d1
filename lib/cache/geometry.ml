type t = {
  size_bytes : int;
  line_bytes : int;
  associativity : int;
  num_sets : int;
  set_shift : int;
  set_mask : int;
}

let is_power_of_two x = x > 0 && x land (x - 1) = 0

let log2_exact x =
  let rec go acc v = if v = 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 x

let make ~size_bytes ~line_bytes ~associativity =
  if not (is_power_of_two line_bytes) then
    invalid_arg "Geometry.make: line_bytes must be a power of two";
  if size_bytes <= 0 || size_bytes mod line_bytes <> 0 then
    invalid_arg "Geometry.make: size_bytes must be a positive multiple of line_bytes";
  if associativity <= 0 then
    invalid_arg "Geometry.make: associativity must be positive";
  let total_lines = size_bytes / line_bytes in
  if total_lines = 0 || total_lines mod associativity <> 0 then
    invalid_arg "Geometry.make: associativity must divide the line count";
  let num_sets = total_lines / associativity in
  if not (is_power_of_two num_sets) then
    invalid_arg "Geometry.make: derived set count must be a power of two";
  (* lint: allow U1 the set count is carved out of untyped byte arithmetic (capacity / line / ways); sets is a base dimension born at this constructor *)
  {
    size_bytes;
    line_bytes;
    associativity;
    num_sets;
    set_shift = log2_exact line_bytes;
    set_mask = num_sets - 1;
  }

let kib n = n * 1024
let mib n = n * 1024 * 1024
let set_index t addr = (addr lsr t.set_shift) land t.set_mask
let tag t addr = addr lsr t.set_shift
let lines t = t.num_sets * t.associativity

let describe_size bytes =
  if bytes >= mib 1 && bytes mod mib 1 = 0 then
    Printf.sprintf "%dMB" (bytes / mib 1)
  else if bytes >= kib 1 && bytes mod kib 1 = 0 then
    Printf.sprintf "%dKB" (bytes / kib 1)
  else Printf.sprintf "%dB" bytes

let pp ppf t =
  Format.fprintf ppf "%s %d-way %dB-line (%d sets)"
    (describe_size t.size_bytes) t.associativity t.line_bytes t.num_sets
