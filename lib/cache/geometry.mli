(** Cache geometry: capacity, line size and associativity, plus the address
    arithmetic (set index / tag extraction) shared by the cache model and
    the stack-distance profiler. *)

type t = private {
  size_bytes : int;  (** total capacity in bytes; a multiple of [line_bytes] *)
  line_bytes : int;  (** line size in bytes; power of two *)
  associativity : int;  (** ways per set; must divide the line count *)  (* mppm: unit ways *)
  num_sets : int;  (** derived: [size_bytes / line_bytes / associativity] *)  (* mppm: unit sets *)
  set_shift : int;  (** derived: log2 [line_bytes] *)
  set_mask : int;  (** derived: [num_sets - 1] *)
}

val make : size_bytes:int -> line_bytes:int -> associativity:int -> t
(** [make ~size_bytes ~line_bytes ~associativity] validates the parameters
    (power-of-two line size and set count, associativity divides the line
    count; the capacity itself need not be a power of two, so a 3-way
    cache is expressible) and derives the indexing fields.  Raises
    [Invalid_argument] on malformed geometry. *)

val kib : int -> int  (* mppm: unit _ -> bytes *)
(** [kib n] is [n] kibibytes in bytes. *)

val mib : int -> int  (* mppm: unit _ -> bytes *)
(** [mib n] is [n] mebibytes in bytes. *)

val set_index : t -> int -> int  (* mppm: unit sets *)
(** [set_index t addr] is the set the byte address [addr] maps to. *)

val tag : t -> int -> int  (* mppm: unit _ -- line tag from untyped address bits *)
(** [tag t addr] is the tag stored for [addr] (line address; distinct lines
    mapping to the same set have distinct tags). *)

val lines : t -> int  (* mppm: unit sets*ways *)
(** Total number of lines ([num_sets * associativity]). *)

val pp : Format.formatter -> t -> unit
(** Prints e.g. "512KB 8-way 64B-line (1024 sets)". *)

val describe_size : int -> string
(** [describe_size bytes] renders a byte count as "32KB", "1MB", ... *)
