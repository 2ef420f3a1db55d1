type t = Lru | Fifo | Random of int

let to_string = function
  | Lru -> "lru"
  | Fifo -> "fifo"
  | Random seed -> Printf.sprintf "random:%d" seed

let of_string s =
  match String.lowercase_ascii s with
  | "lru" -> Lru
  | "fifo" -> Fifo
  | s when String.length s > 7 && String.sub s 0 7 = "random:" -> (
      match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
      | Some seed -> Random seed
      | None -> invalid_arg "Replacement.of_string: bad random seed")
  | _ -> invalid_arg "Replacement.of_string: expected lru|fifo|random:<seed>"
