type t = { emit : Event.t -> unit; close : unit -> unit }

let make ?(close = fun () -> ()) emit = { emit; close }
let emit t event = t.emit event
let close t = t.close ()

let memory () =
  let events = ref [] in
  (make (fun e -> events := e :: !events), fun () -> List.rev !events)
