(** Replacement policies for set-associative caches.

    The paper's caches are all LRU; MPPM itself is independent of the
    policy as long as the contention model matches it (Sec. 2.3), so we also
    provide FIFO and Random to support that discussion and the ablation
    benches. *)

type t =
  | Lru  (** least-recently-used: the policy used throughout the paper *)
  | Fifo  (** first-in-first-out: insertion order, untouched by hits *)
  | Random of int  (** random victim, with the PRNG seed to use *)

val to_string : t -> string
(** "lru", "fifo" or "random:<seed>". *)

val of_string : string -> t
(** Inverse of {!to_string} ("lru", "fifo", "random:<seed>").  Raises
    [Invalid_argument] on unknown names. *)
