(* Pure renderers for collected events.  File I/O stays in bin/ and
   bench/ (lint rules S1/O1): a renderer only turns events into the exact
   bytes a writer should write, including the file framing (the Chrome
   trace_event array brackets and separators). *)

type t = Jsonl | Chrome of (Event.t -> int)

let jsonl () = Jsonl
let chrome ?(lane = fun _ -> 0) () = Chrome lane

let to_string t events =
  let buf = Buffer.create 4096 in
  (match t with
  | Jsonl ->
      List.iter
        (fun ev ->
          Buffer.add_string buf (Event.to_jsonl ev);
          Buffer.add_char buf '\n')
        events
  | Chrome lane ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i ev ->
          Buffer.add_string buf (if i = 0 then "\n" else ",\n");
          Buffer.add_string buf (Event.to_chrome ~tid:(lane ev) ev))
        events;
      Buffer.add_string buf "\n]\n");
  Buffer.contents buf
