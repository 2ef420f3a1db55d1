type t = int64

let empty = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let add_byte h b =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

let add_string h s =
  let h = ref h in
  String.iter (fun c -> h := add_byte !h (Char.code c)) s;
  !h

let of_string s = add_string empty s
let of_value v = add_string empty (Marshal.to_string v [])
let to_hex h = Printf.sprintf "%016Lx" h
