(* Just enough JSON for the benchmark: reading BENCHMARK.json and the
   result line a child run prints, and writing result objects. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let bad what = raise (Bad (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () = Some c then incr pos
    else bad (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else bad "unknown literal"
  in
  let string_body () =
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> bad "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' ->
          incr pos;
          (match peek () with
          | Some ('"' | '\\' | '/') -> Buffer.add_char b s.[!pos]
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'r' -> Buffer.add_char b '\r'
          | Some 'b' -> Buffer.add_char b '\b'
          | Some 'f' -> Buffer.add_char b '\012'
          | _ -> bad "unsupported escape");
          incr pos;
          go ()
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') ->
          incr pos;
          go ()
      | _ -> ()
    in
    go ();
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> bad "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            expect '"';
            let k = string_body () in
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ((k, v) :: acc)
            | Some '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> bad "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                items (v :: acc)
            | Some ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> bad "expected ',' or ']'"
          in
          items []
    | Some '"' ->
        incr pos;
        Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> number ()
    | None -> bad "unexpected end of input"
  in
  match value () with
  | v ->
      skip_ws ();
      if !pos = n then Ok v else Error (Printf.sprintf "trailing bytes at %d" !pos)
  | exception Bad msg -> Error msg

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let to_list = function Arr xs -> xs | _ -> []

let to_string_opt = function Str s -> Some s | _ -> None

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit a double carries, so two runs never read identical by
   rounding alone. *)
let number f = Printf.sprintf "%.17g" f

let obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> quote k ^ ": " ^ v) fields)
  ^ "}"
