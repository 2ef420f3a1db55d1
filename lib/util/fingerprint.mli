(** Deterministic 64-bit content digests (FNV-1a).

    Unlike [Hashtbl.hash], which is documented to be portable but truncates
    structure and is easy to misuse on floats, this digest is an explicit
    byte-stream fold with a stable, documented algorithm: cache filenames
    and other persistent keys derived from it are reproducible across runs,
    builds and machines. *)

type t = int64
(** Digest state / value. *)

val empty : t
(** The FNV-1a 64-bit offset basis. *)

val add_string : t -> string -> t
(** [add_string t s] folds the bytes of [s] into [t]. *)

val of_string : string -> t
(** [of_string s] is [add_string empty s]. *)

val of_value : 'a -> t
(** [of_value v] digests the [Marshal] byte representation of [v]: a
    convenient structural fingerprint for immutable, closure-free data
    (records of scalars, strings, arrays, ...).  Deterministic across runs
    of the same binary; any change to the value {e or} its type layout
    changes the digest, which is exactly what cache invalidation wants. *)

val to_hex : t -> string
(** 16-character lowercase hex rendering. *)
