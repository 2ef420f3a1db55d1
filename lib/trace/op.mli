(** The unit of work produced by a workload generator and consumed by the
    timing simulators: a small block of instructions, optionally ending in
    one data-memory access.

    Block-level (rather than per-instruction) delivery keeps trace-driven
    simulation fast while preserving exact instruction counts and the exact
    memory reference stream. *)

type access_kind = Load | Store
(** Data read vs. data write. *)

type access = { addr : int; kind : access_kind }
(** One data reference: byte address plus load/store. *)

type t = {
  instructions : int;  (* mppm: unit insns *)
      (** instructions retired by this block, including the memory
          instruction itself when [access] is [Some _]; always >= 1 *)
  access : access option;
      (** the data reference ending the block, if any.  [None] blocks are
          pure compute (e.g. the tail of a phase). *)
}

val compute : int -> t  (* mppm: unit insns -> op *)
(** [compute n] is a block of [n] compute instructions. *)

val memory : gap:int -> addr:int -> kind:access_kind -> t  (* mppm: unit gap:insns -> addr:_ -> kind:_ -> op *)
(** [memory ~gap ~addr ~kind] is [gap] compute instructions followed by one
    memory instruction. *)
