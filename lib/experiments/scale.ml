type t = { trace_instructions : int; interval_instructions : int }

let intervals_per_trace = 50

let of_trace n =
  if n <= 0 then invalid_arg "Scale.of_trace: non-positive trace length";
  let interval = (n + intervals_per_trace - 1) / intervals_per_trace in
  { trace_instructions = interval * intervals_per_trace;
    interval_instructions = interval }

let default = of_trace 2_000_000
let quick = of_trace 1_000_000

let pp ppf t =
  Format.fprintf ppf "%dK-instruction traces, %dK-instruction intervals"
    (t.trace_instructions / 1000)
    (t.interval_instructions / 1000)
