type t = Event.t list ref option

let null = None

let memory () =
  let events = ref [] in
  (Some events, fun () -> List.rev !events)

let enabled t = Option.is_some t

let emit t thunk =
  match t with None -> () | Some events -> events := thunk () :: !events
