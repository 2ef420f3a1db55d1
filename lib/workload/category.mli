(** MEM/COMP benchmark classification and category-structured mixes.

    Current practice (paper Sec. 5) often buckets benchmarks into
    memory-intensive (MEM) and compute-intensive (COMP) classes and then
    builds workload categories: all-MEM mixes, all-COMP mixes, and MIX
    mixes of half each.  Fig. 7(b) evaluates random selection within this
    category structure (4 MEM / 4 COMP / 4 MIX mixes per set). *)

type t = Mem | Comp
(** Memory-intensive vs. compute-intensive. *)

val classify : memory_fraction:float -> threshold:float -> t
(** [classify ~memory_fraction ~threshold] is [Mem] iff the benchmark's
    memory-CPI fraction reaches the threshold. *)

val classify_profiles :
  ?threshold:float -> Mppm_profile.Profile.t array -> t array
(** Classifies every profile by {!Mppm_profile.Profile.memory_cpi_fraction}
    (default threshold 0.5: at least half the isolated CPI is memory
    stall). *)

val partition : t array -> int array * int array
(** [partition classes] is [(mem_indices, comp_indices)]. *)

type composition = All_mem | All_comp | Half_half
(** The three workload categories of Sec. 5. *)

val compositions : composition list
(** [All_mem; All_comp; Half_half]. *)

val random_mix :
  Mppm_util.Rng.t ->
  mem:int array ->
  comp:int array ->
  cores:int ->
  composition ->
  Mix.t
(** [random_mix rng ~mem ~comp ~cores composition] draws a mix of the given
    composition (programs drawn independently and uniformly within their
    class; [Half_half] rounds the MEM half down).  Raises
    [Invalid_argument] if a needed class is empty. *)

val pp : Format.formatter -> t -> unit
(** Prints "MEM" or "COMP". *)
