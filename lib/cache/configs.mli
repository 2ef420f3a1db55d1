(** The paper's cache configurations (Tables 1 and 2).

    Table 1 fixes the private levels: 32KB 4-way L1I, 32KB 8-way L1D (both
    1 cycle), 256KB 8-way private L2 (10 cycles), 200-cycle memory.  Table 2
    lists six shared-LLC design points that the design-space experiments
    (Figs. 7-9) rank against each other. *)

val line_bytes : int
(** Cache line size used throughout (64 bytes). *)

val l1d : Hierarchy.level
(** 32KB 8-way data L1, 1 cycle (Table 1). *)

val l2 : Hierarchy.level
(** 256KB 8-way private L2, 10 cycles (Table 1). *)

val llc_config : int -> Hierarchy.level
(** [llc_config n] is LLC configuration #[n] of Table 2 for [n] in 1..6:
    {ul
    {- #1: 512KB 8-way, 16 cycles}
    {- #2: 512KB 16-way, 20 cycles}
    {- #3: 1MB 8-way, 18 cycles}
    {- #4: 1MB 16-way, 22 cycles}
    {- #5: 2MB 8-way, 20 cycles}
    {- #6: 2MB 16-way, 24 cycles}}
    Raises [Invalid_argument] otherwise. *)

val llc_config_count : int
(** Number of Table 2 configurations (6). *)

val baseline : ?llc:int -> unit -> Hierarchy.config
(** [baseline ~llc ()] is the Table 1 hierarchy with LLC configuration
    #[llc] (default #1, the smallest LLC, which the paper uses "to stress
    our model"). *)

val llc_config_name : int -> string
(** "config #1" ... "config #6". *)
