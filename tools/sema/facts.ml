(* Per-file facts extracted from the compiler-libs parse tree.

   Facts are plain serializable data (no AST nodes), so they can be cached
   by source fingerprint and re-fed to the cross-module passes without
   re-parsing.  Extraction is syntactic — no typing — so every judgment
   here is a heuristic; the rules built on top are tuned to be zero-noise
   on this tree (asserted by the test suite). *)

type mut_scope =
  | Mut_local  (* target is let-bound to a fresh mutable allocation *)
  | Mut_arg  (* target is bound somewhere in the function (param, let,
                match case) but not to a visible fresh allocation *)
  | Mut_toplevel  (* target is free in the function: module-level state
                     of this unit, or a qualified path into another *)

type mutation = {
  mut_target : string;
  mut_prim : string;  (* ":=", "<-", "Hashtbl.replace", ... *)
  mut_scope : mut_scope;
  mut_line : int;
}

type closure = {
  ct_line : int;
  ct_writes : (string * string * string * int) list;
      (* (target, prim, "captured"|"toplevel", line): writes whose target
         is not bound inside the closure *)
  ct_calls : string list list;
      (* every value path referenced inside the closure, alias-expanded *)
  ct_escaping : (string list * string * int) list;
      (* (callee, ident, line): calls whose first positional argument is
         an identifier captured from outside the closure *)
}

type task =
  | Task_path of string list * string option
      (* a named task, possibly partially applied; the option is the
         first positional identifier applied at the call site *)
  | Task_closure of closure

type pool_call = { pc_entry : string; pc_line : int; pc_tasks : task list }

type perf_site = {
  ps_rule : string;  (* "P1".."P4" *)
  ps_what : string;  (* human description of the offending shape *)
  ps_line : int;
}

(* ---- unit-analysis shapes (U1-U3) -------------------------------------- *)

type uop = U_add | U_sub | U_mul | U_div | U_minmax | U_cmp | U_rem

(* A serializable unit-relevant skeleton of an expression: enough structure
   for the Units pass to infer and check physical units cross-module
   without re-parsing.  Conversion is lossy by design — shapes the unit
   algebra cannot reason about collapse to U_opaque (poisons, never
   findings) or containers whose children are still checked. *)
type uexpr =
  | U_opaque  (* unknown value: never produces a finding *)
  | U_const  (* literal or nullary constructor: unifies with anything *)
  | U_ident of string list  (* alias-expanded value path *)
  | U_field of string  (* record projection, by trailing field name *)
  | U_apply of {
      ua_path : string list;  (* callee path, [] when the head is computed *)
      ua_args : (string option * uexpr) list;  (* (label, argument) *)
      ua_line : int;
    }
  | U_arith of { uo_op : uop; uo_lhs : uexpr; uo_rhs : uexpr; uo_line : int }
  | U_branch of uexpr list  (* if/match arms: result is the join *)
  | U_let of { ul_name : string; ul_rhs : uexpr; ul_body : uexpr; ul_line : int }
  | U_fun of { uf_params : (string option * string) list; uf_body : uexpr }
  | U_seq of uexpr * uexpr  (* first checked, second is the value *)
  | U_stmt of uexpr list  (* unit-typed container: checked, result free *)
  | U_block of uexpr list  (* opaque container: checked, result unknown *)
  | U_record of { ur_fields : (string * uexpr) list; ur_line : int }
  | U_setfield of { us_field : string; us_rhs : uexpr; us_line : int }

type fn = {
  fn_name : string;
  fn_line : int;
  calls : string list list;
      (* every value path referenced inside the body, alias-expanded *)
  rng_fields : string list;
      (* record fields passed as the state argument of an Rng draw *)
  prim_io : (string * int) list;  (* (primitive, line) of direct file I/O *)
  prim_conc : (string * int) list;
      (* (primitive, line) of direct Domain/Mutex/Condition/Atomic use *)
  has_rng : bool;
  mutations : mutation list;  (* direct writes, scope-classified *)
  mut_arg0 : bool;  (* mutates its own first positional parameter *)
  pool_calls : pool_call list;  (* Pool.map/map_reduce/Single_flight sites *)
  top_arg_calls : (string list * string * int) list;
      (* (callee, ident, line): calls passing a module-level value as the
         first positional argument *)
  raises : bool;
  fn_hot : bool;  (* carries a (* mppm: hot *) root annotation *)
  fn_has_loop : bool;  (* the warm region contains a while/for loop *)
  warm_sites : perf_site list;
      (* P1-P4 shapes anywhere in the body outside cold guards
         (Invariant/Trace-conditioned branches, Trace.emit thunks,
         mppm:cold-marked expressions) *)
  loop_sites : perf_site list;
      (* the subset of warm_sites inside while/for loops, including the
         bodies of local lambdas referenced from a loop *)
  warm_calls : string list list;
      (* value paths referenced outside cold guards: the hotness
         propagation edges of a non-root (or loop-free root) hot fn *)
  loop_calls : string list list;
      (* value paths referenced inside loops: the propagation edges of an
         annotated root whose hot region is its loops *)
  fn_uparams : (string option * string) list;
      (* every parameter in binding order: (label, name) *)
  fn_ubody : uexpr;  (* unit skeleton of the body (params stripped) *)
  fn_unit_annot : string option;
      (* (* mppm: unit ... *) annotation on or just above the binding *)
}

type rng_create = { rc_line : int; rc_constant_seed : bool }
type float_accum = { fa_line : int; fa_context : string }

type t = {
  rel : string;
  unit_name : string;  (* capitalized stem, e.g. "Generator" *)
  dir : string;  (* e.g. "lib/trace" *)
  is_mli : bool;
  opens : string list list;
  aliases : (string * string list) list;  (* module X = A.B *)
  fns : fn list;
  refs : string list list;  (* every value path referenced in the file *)
  mli_vals : (string * int) list;  (* .mli val items: (name, line) *)
  val_units : (string * string) list;
      (* (.mli val name, unit annotation) pairs, attached by line *)
  field_units : (string * string) list;
      (* (record field name, unit annotation) pairs from type decls *)
  rng_creates : rng_create list;
  float_accums : float_accum list;
  toplevel_muts : (string * string * int) list;
      (* (name, kind, line): module-level mutable allocations *)
  allows : (string * int) list;
  allow_files : string list;
  findings : Mppm_lint.Diag.t list;  (* per-file rules, unsuppressed *)
}

let unit_key_of_rel rel = Filename.remove_extension rel

(* ---- path helpers ------------------------------------------------------ *)

let flatten = Astparse.flatten
let expand = Astparse.expand

let channel_prims =
  [
    "open_in"; "open_in_bin"; "open_in_gen"; "open_out"; "open_out_bin";
    "open_out_gen"; "close_in"; "close_in_noerr"; "close_out";
    "close_out_noerr"; "input_line"; "input_char"; "input_byte";
    "input_binary_int"; "input_value"; "really_input"; "really_input_string";
    "output_string"; "output_char"; "output_byte"; "output_binary_int";
    "output_value"; "output_bytes"; "output_substring"; "seek_in"; "seek_out";
    "pos_in"; "pos_out"; "in_channel_length"; "out_channel_length";
    "set_binary_mode_in"; "set_binary_mode_out";
  ]

let sys_fs_prims =
  [
    "remove"; "rename"; "readdir"; "mkdir"; "rmdir"; "command"; "chdir";
    "getcwd"; "file_exists"; "is_directory";
  ]

let io_prim_of_path = function
  | [ p ] when List.mem p channel_prims -> Some p
  | [ "Stdlib"; p ] when List.mem p channel_prims -> Some p
  | [ "Sys"; p ] when List.mem p sys_fs_prims -> Some ("Sys." ^ p)
  | "Unix" :: p :: _ -> Some ("Unix." ^ p)
  | _ -> None

let conc_modules = [ "Domain"; "Mutex"; "Condition"; "Atomic" ]

(* A use of the OCaml 5 concurrency surface (S5).  Aliases are expanded
   before we get here, and the stdlib qualifies these as [Stdlib.Mutex]
   etc., so both spellings resolve. *)
let conc_prim_of_path path =
  let path = match path with "Stdlib" :: rest -> rest | p -> p in
  match path with
  | m :: member :: _ when List.mem m conc_modules -> Some (m ^ "." ^ member)
  | _ -> None

(* A path that ends [....Rng.member] is a use of the deterministic RNG:
   the only module named Rng anywhere in the tree is Mppm_util.Rng, and
   local aliases ([module Rng = Mppm_util.Rng]) keep the name. *)
let rng_member_of_path path =
  match List.rev path with
  | member :: "Rng" :: _ -> Some member
  | _ -> None

let raise_prims = [ "raise"; "raise_notrace"; "failwith"; "invalid_arg" ]

let float_ops = [ "+."; "-."; "*."; "/." ]

(* ---- mutation primitives ----------------------------------------------- *)

let bigarray_modules = [ "Array0"; "Array1"; "Array2"; "Array3"; "Genarray" ]

(* Stdlib functions whose application allocates a fresh mutable value; a
   name let-bound to one of these is local state, not shared state. *)
let alloc_prim_of_path path =
  let named m kind members =
    if List.mem m members then Some kind else None
  in
  match path with
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
  | _ -> (
      match List.rev path with
      | m :: "Hashtbl" :: _ -> named m ("Hashtbl." ^ m) [ "create"; "copy" ]
      | m :: "Array" :: _ ->
          named m ("Array." ^ m)
            [
              "make"; "create"; "init"; "copy"; "sub"; "of_list"; "append";
              "concat"; "make_matrix"; "map"; "mapi"; "of_seq";
            ]
      | m :: "Bytes" :: _ ->
          named m ("Bytes." ^ m)
            [ "create"; "make"; "init"; "copy"; "sub"; "of_string" ]
      | m :: "Buffer" :: _ -> named m ("Buffer." ^ m) [ "create" ]
      | m :: "Queue" :: _ -> named m ("Queue." ^ m) [ "create"; "copy" ]
      | m :: "Stack" :: _ -> named m ("Stack." ^ m) [ "create"; "copy" ]
      | m :: "Atomic" :: _ -> named m ("Atomic." ^ m) [ "make" ]
      | m :: "Mutex" :: _ -> named m ("Mutex." ^ m) [ "create" ]
      | m :: "Condition" :: _ -> named m ("Condition." ^ m) [ "create" ]
      | m :: b :: _ when List.mem b bigarray_modules ->
          named m (b ^ "." ^ m) [ "create"; "init"; "of_array" ]
      | _ -> None)

(* Stdlib write primitives: [Some (name, i)] means the [i]-th positional
   argument is the mutated value. *)
let write_prim_of_path path =
  let named m kind members idx =
    if List.mem m members then Some (kind, idx) else None
  in
  match path with
  | [ ":=" ] | [ "Stdlib"; ":=" ] -> Some (":=", 0)
  | [ ("incr" | "decr") as p ] | [ "Stdlib"; (("incr" | "decr") as p) ] ->
      Some (p, 0)
  | _ -> (
      match List.rev path with
      | "blit" :: "Array" :: _ -> Some ("Array.blit", 2)
      | m :: "Array" :: _ when List.mem m [ "sort"; "fast_sort"; "stable_sort" ]
        ->
          (* The comparison function comes first; the array is mutated. *)
          Some ("Array." ^ m, 1)
      | m :: "Array" :: _ ->
          named m ("Array." ^ m) [ "set"; "unsafe_set"; "fill" ] 0
      | ("blit" | "blit_string") :: "Bytes" :: _ -> Some ("Bytes.blit", 2)
      | m :: "Bytes" :: _ ->
          named m ("Bytes." ^ m) [ "set"; "unsafe_set"; "fill" ] 0
      | "filter_map_inplace" :: "Hashtbl" :: _ ->
          Some ("Hashtbl.filter_map_inplace", 1)
      | m :: "Hashtbl" :: _ ->
          named m ("Hashtbl." ^ m)
            [ "add"; "replace"; "remove"; "reset"; "clear" ]
            0
      | m :: "Buffer" :: _ when String.length m >= 4 && String.sub m 0 4 = "add_"
        ->
          Some ("Buffer." ^ m, 0)
      | m :: "Buffer" :: _ ->
          named m ("Buffer." ^ m) [ "clear"; "reset"; "truncate" ] 0
      | m :: "Queue" :: _ when m = "add" || m = "push" || m = "transfer" ->
          Some ("Queue." ^ m, 1)
      | m :: "Queue" :: _ ->
          named m ("Queue." ^ m) [ "take"; "pop"; "clear" ] 0
      | "push" :: "Stack" :: _ -> Some ("Stack.push", 1)
      | m :: "Stack" :: _ -> named m ("Stack." ^ m) [ "pop"; "clear" ] 0
      | m :: "Atomic" :: _ ->
          named m ("Atomic." ^ m)
            [
              "set"; "exchange"; "compare_and_set"; "fetch_and_add"; "incr";
              "decr";
            ]
            0
      | "blit" :: b :: _ when List.mem b bigarray_modules ->
          Some (b ^ ".blit", 1)
      | m :: b :: _ when List.mem b bigarray_modules ->
          named m (b ^ "." ^ m) [ "set"; "unsafe_set"; "fill" ] 0
      | _ -> None)

(* Entries of the parallel surface whose function argument runs on pool
   worker domains (or is shared by them): the S6 purity boundary. *)
let pool_entry_of_path path =
  match List.rev path with
  | m :: "Pool" :: _ when m = "map" || m = "map_reduce" -> Some ("Pool." ^ m)
  | m :: "Single_flight" :: _ when m = "get" || m = "run_or_wait" ->
      Some ("Single_flight." ^ m)
  | _ -> None

(* Module-level bindings to these shapes are the S7 inventory.  Mutable
   records and toplevel arrays are deliberately absent: they are caught at
   their write sites instead, so constant tables stay unflagged. *)
let toplevel_mut_kind_of_path path =
  match path with
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
  | _ -> (
      match List.rev path with
      | "create" :: m :: _
        when List.mem m
               [ "Hashtbl"; "Buffer"; "Queue"; "Stack"; "Mutex"; "Condition" ]
        ->
          Some (m ^ ".create")
      | ("create" | "make") :: "Bytes" :: _ -> Some "Bytes.create"
      | "make" :: "Atomic" :: _ -> Some "Atomic.make"
      | _ -> None)

(* ---- expression scanning ---------------------------------------------- *)

let line_of_expr e = e.Parsetree.pexp_loc.Location.loc_start.Lexing.pos_lnum

let expr_contains pred e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          if pred e then found := true;
          if not !found then Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

let is_float_op e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt = Longident.Lident op; _ } ->
      List.mem op float_ops
  | Parsetree.Pexp_ident { txt; _ } -> (
      match flatten txt with
      | [ "Float"; ("add" | "sub" | "mul" | "div") ] -> true
      | _ -> false)
  | _ -> false

let mentions_ident e =
  expr_contains
    (fun e ->
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident _ -> true
      | _ -> false)
    e

let is_fun e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ -> true
  | _ -> false

let head_path aliases e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> expand aliases (flatten txt)
  | _ -> []

let applies_hashtbl_to_seq aliases e =
  expr_contains
    (fun e ->
      let path =
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_apply (head, _) -> head_path aliases head
        | Parsetree.Pexp_ident { txt; _ } -> expand aliases (flatten txt)
        | _ -> []
      in
      match List.rev path with
      | m :: "Hashtbl" :: _ ->
          String.length m >= 6 && String.sub m 0 6 = "to_seq"
      | _ -> false)
    e

(* The identifier ultimately mutated by a write: the head of a (possibly
   nested) field chain.  Unknown shapes (computed targets) yield None and
   the write is conservatively not recorded. *)
let rec target_ident e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { txt; _ } -> (
      match flatten txt with
      | [] -> None
      | [ v ] -> Some (v, false)
      | path -> Some (String.concat "." path, true))
  | Parsetree.Pexp_field (e, _) -> target_ident e
  | Parsetree.Pexp_constraint (e, _) -> target_ident e
  | _ -> None

let nth_positional args i =
  let positional = List.filter (fun (l, _) -> l = Asttypes.Nolabel) args in
  match List.nth_opt positional i with Some (_, a) -> Some a | None -> None

let first_positional_ident args =
  match nth_positional args 0 with
  | Some { Parsetree.pexp_desc = Parsetree.Pexp_ident { txt = Longident.Lident v; _ }; _ }
    ->
      Some v
  | _ -> None

(* The task argument of a parallel entry: Pool.map's second positional
   argument, Pool.map_reduce's ~map, a Single_flight memo's third. *)
let task_arg_of_entry entry args =
  match entry with
  | "Pool.map_reduce" ->
      List.find_map
        (fun (l, a) -> if l = Asttypes.Labelled "map" then Some a else None)
        args
  | "Pool.map" -> nth_positional args 1
  | _ -> nth_positional args 2

(* Names bound anywhere inside [e] (params, lets, match cases — flat,
   shadowing-insensitive) and the subset let-bound to a fresh mutable
   allocation. *)
let binding_env aliases e =
  let bound = ref [] in
  let alloc = ref [] in
  let rec shallow_names p =
    match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_var { txt; _ } -> [ txt ]
    | Parsetree.Ppat_constraint (p, _) -> shallow_names p
    | Parsetree.Ppat_tuple ps -> List.concat_map shallow_names ps
    | Parsetree.Ppat_alias (p, { txt; _ }) -> txt :: shallow_names p
    | _ -> []
  in
  let rec allocates rhs =
    match rhs.Parsetree.pexp_desc with
    | Parsetree.Pexp_array _ | Parsetree.Pexp_record _ -> true
    | Parsetree.Pexp_constraint (e, _) -> allocates e
    | Parsetree.Pexp_apply (head, _) ->
        alloc_prim_of_path (head_path aliases head) <> None
    | _ -> false
  in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } -> bound := txt :: !bound
          | Parsetree.Ppat_alias (_, { txt; _ }) -> bound := txt :: !bound
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_let (_, vbs, _) ->
              List.iter
                (fun vb ->
                  if allocates vb.Parsetree.pvb_expr then
                    alloc := shallow_names vb.Parsetree.pvb_pat @ !alloc)
                vbs
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  (!bound, !alloc)

let rec first_positional_param e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (Asttypes.Nolabel, _, pat, _) -> (
      match pat.Parsetree.ppat_desc with
      | Parsetree.Ppat_var { txt; _ } -> Some txt
      | Parsetree.Ppat_constraint
          ({ Parsetree.ppat_desc = Parsetree.Ppat_var { txt; _ }; _ }, _) ->
          Some txt
      | _ -> None)
  | Parsetree.Pexp_fun (_, _, _, rest) -> first_positional_param rest
  | Parsetree.Pexp_newtype (_, rest) -> first_positional_param rest
  | Parsetree.Pexp_constraint (e, _) -> first_positional_param e
  | _ -> None

let rec positional_params e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (Asttypes.Nolabel, _, pat, rest) ->
      let name =
        match pat.Parsetree.ppat_desc with
        | Parsetree.Ppat_var { txt; _ } -> txt
        | _ -> "_"
      in
      name :: positional_params rest
  | Parsetree.Pexp_fun (_, _, _, rest) -> positional_params rest
  | Parsetree.Pexp_newtype (_, rest) -> positional_params rest
  | Parsetree.Pexp_constraint (e, _) -> positional_params e
  | _ -> []

(* ---- hot-path perf primitives (P1-P4) ---------------------------------- *)

(* Stdlib calls that allocate on every invocation, beyond the mutable
   allocators already in [alloc_prim_of_path]: list/array producers,
   string builders and the formatting modules.  [Hashtbl] is deliberately
   absent — any hashtable traffic on a hot path is P3, not P1. *)
let perf_alloc_of_path path =
  match alloc_prim_of_path path with
  | Some p when String.length p >= 8 && String.sub p 0 8 = "Hashtbl." -> None
  | Some p -> Some p
  | None -> (
      match path with
      | [ "@" ] | [ "Stdlib"; "@" ] -> Some "list append (@)"
      | [ "^" ] | [ "Stdlib"; "^" ] -> Some "string concat (^)"
      | _ -> (
          match List.rev path with
          | m :: "Array" :: _ when List.mem m [ "append"; "concat"; "to_list"; "to_seq"; "split"; "combine" ]
            ->
              Some ("Array." ^ m)
          | m :: "List" :: _
            when List.mem m
                   [
                     "map"; "mapi"; "map2"; "rev_map"; "init"; "append";
                     "concat"; "concat_map"; "filter"; "filter_map"; "rev";
                     "rev_append"; "sort"; "stable_sort"; "fast_sort";
                     "sort_uniq"; "merge"; "split"; "combine"; "of_seq";
                     "to_seq"; "cons";
                   ] ->
              Some ("List." ^ m)
          | m :: "String" :: _
            when List.mem m [ "make"; "init"; "sub"; "concat"; "cat"; "map"; "mapi"; "split_on_char" ]
            ->
              Some ("String." ^ m)
          | _ :: "Printf" :: _ -> Some "Printf formatting"
          | _ :: "Format" :: _ -> Some "Format formatting"
          | _ -> None))

(* Polymorphic structural comparison: the runtime walks the representation
   through a C call, boxing floats on the way.  [<]/[<=] are excluded —
   the tree only uses them on immediates the compiler specializes. *)
let poly_compare_of_path path =
  match path with
  | [ ("=" | "<>" | "compare") as p ] | [ "Stdlib"; (("=" | "<>" | "compare") as p) ]
    ->
      Some (if p = "compare" then "compare" else "( " ^ p ^ " )")
  | _ -> (
      match List.rev path with
      | ("hash" | "hash_param" | "seeded_hash") :: "Hashtbl" :: _ ->
          Some "Hashtbl.hash"
      | _ -> None)

let hashtbl_member_of_path path =
  match List.rev path with
  | m :: "Hashtbl" :: _ -> Some ("Hashtbl." ^ m)
  | _ -> None

(* Conditions that gate off-hot-path work: the sanitizer and the trace
   sink are disabled on the bench path, so branches they guard are cold. *)
let is_cold_guard_path path =
  match List.rev path with
  | "enabled" :: ("Invariant" | "Trace" | "Prof") :: _ -> true
  | _ -> false

(* Applications whose argument work only runs when observability is on:
   Trace.emit takes a thunk forced behind the sink check, and the
   Invariant entry points only evaluate under MPPM_SANITIZE. *)
let is_cold_apply_path path =
  match List.rev path with
  | "emit" :: "Trace" :: _ -> true
  | _ :: "Invariant" :: _ -> true
  | _ -> false

(* Single lowercase idents that resolve to the stdlib, not to a captured
   binding: referencing one from a lambda does not force an environment. *)
let pervasive_idents =
  [
    "not"; "ignore"; "min"; "max"; "abs"; "fst"; "snd"; "succ"; "pred";
    "float_of_int"; "int_of_float"; "string_of_int"; "truncate"; "sqrt";
    "log"; "exp"; "ceil"; "floor"; "epsilon_float"; "infinity"; "nan";
    "max_int"; "min_int"; "raise"; "failwith"; "invalid_arg"; "compare";
    "incr"; "decr"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
  ]

let rec strip_params e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (_, _, _, rest) -> strip_params rest
  | Parsetree.Pexp_newtype (_, rest) -> strip_params rest
  | Parsetree.Pexp_constraint (e, _) -> strip_params e
  | _ -> e

(* ---- unit-skeleton conversion ------------------------------------------ *)

(* Arithmetic heads the unit algebra understands, by alias-expanded path. *)
let uop_of_path path =
  let path = match path with "Stdlib" :: rest -> rest | p -> p in
  match path with
  | [ p ] -> (
      match p with
      | "+" | "+." -> Some U_add
      | "-" | "-." -> Some U_sub
      | "*" | "*." -> Some U_mul
      | "/" | "/." -> Some U_div
      | "mod" -> Some U_rem
      | "min" | "max" -> Some U_minmax
      | "=" | "<>" | "==" | "!=" | "<" | ">" | "<=" | ">=" | "compare" ->
          Some U_cmp
      | _ -> None)
  | [ ("Float" | "Int") as m; p ] -> (
      match p with
      | "add" -> Some U_add
      | "sub" -> Some U_sub
      | "mul" -> Some U_mul
      | "div" -> Some U_div
      | "rem" when m = "Float" -> Some U_rem
      | "min" | "max" -> Some U_minmax
      | "equal" | "compare" -> Some U_cmp
      | _ -> None)
  | _ -> None

(* Unary wrappers that preserve the unit of their (first positional)
   argument: numeric casts, negation, rounding, ref cells and array
   reads.  [sqrt]/[log]/[exp] are deliberately absent — they change or
   destroy dimensions, so they collapse to opaque. *)
let unit_transparent_of_path path =
  let path = match path with "Stdlib" :: rest -> rest | p -> p in
  match path with
  | [ p ] ->
      List.mem p
        [
          "~-"; "~-."; "~+"; "~+."; "abs"; "abs_float"; "float_of_int";
          "int_of_float"; "truncate"; "floor"; "ceil"; "succ"; "pred";
          "ref"; "!";
        ]
  | [ "Float"; p ] ->
      List.mem p
        [ "abs"; "neg"; "of_int"; "to_int"; "round"; "trunc"; "succ"; "pred" ]
  | [ "Int"; p ] -> List.mem p [ "abs"; "neg"; "to_float"; "of_float" ]
  | _ -> (
      match List.rev path with
      | ("get" | "unsafe_get") :: "Array" :: _ -> true
      | _ -> false)

(* Applications that produce no unit-bearing value (writes, loops-as-
   functions, raises): children are still checked, the result is free. *)
let unit_stmt_of_path path =
  write_prim_of_path path <> None
  ||
  let path = match path with "Stdlib" :: rest -> rest | p -> p in
  match path with
  | [ p ] -> List.mem p ([ "ignore"; "assert" ] @ raise_prims)
  | _ -> false

let label_name = function
  | Asttypes.Nolabel -> None
  | Asttypes.Labelled s | Asttypes.Optional s -> Some s

(* Every parameter of a curried binding, in order: (label, name). *)
let rec all_params e =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun (lbl, _, pat, rest) ->
      let name =
        match pat.Parsetree.ppat_desc with
        | Parsetree.Ppat_var { txt; _ } -> txt
        | Parsetree.Ppat_constraint
            ({ Parsetree.ppat_desc = Parsetree.Ppat_var { txt; _ }; _ }, _) ->
            txt
        | _ -> "_"
      in
      (label_name lbl, name) :: all_params rest
  | Parsetree.Pexp_newtype (_, rest) -> all_params rest
  | Parsetree.Pexp_constraint (e, _) -> all_params e
  | _ -> []

let field_name_of_lid lid =
  match List.rev (flatten lid) with f :: _ -> Some f | [] -> None

(* Convert an expression to its unit skeleton.  Total and lossy: shapes
   outside the handled set become U_opaque, so the Units pass stays
   silent about them rather than guessing. *)
let rec uexpr_of aliases e =
  let conv = uexpr_of aliases in
  let line = line_of_expr e in
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant _ -> U_const
  | Parsetree.Pexp_ident { txt; _ } -> (
      match expand aliases (flatten txt) with
      | [] -> U_opaque
      | path -> U_ident path)
  | Parsetree.Pexp_field (_, lid) -> (
      match field_name_of_lid lid.Location.txt with
      | Some f -> U_field f
      | None -> U_opaque)
  | Parsetree.Pexp_constraint (e, _) | Parsetree.Pexp_newtype (_, e) -> conv e
  | Parsetree.Pexp_open (_, e) -> conv e
  | Parsetree.Pexp_apply (head, args) -> (
      let path = head_path aliases head in
      let positional =
        List.filter_map
          (fun (l, a) -> if l = Asttypes.Nolabel then Some a else None)
          args
      in
      if is_cold_apply_path path then U_stmt []
      else
        match (uop_of_path path, positional) with
        | Some op, [ lhs; rhs ] ->
            U_arith
              { uo_op = op; uo_lhs = conv lhs; uo_rhs = conv rhs; uo_line = line }
        | _ ->
            if unit_transparent_of_path path then
              match positional with a :: _ -> conv a | [] -> U_opaque
            else if unit_stmt_of_path path then
              U_stmt (List.map (fun (_, a) -> conv a) args)
            else
              U_apply
                {
                  ua_path = path;
                  ua_args = List.map (fun (l, a) -> (label_name l, conv a)) args;
                  ua_line = line;
                })
  | Parsetree.Pexp_ifthenelse (c, t, Some e) ->
      U_seq (conv c, U_branch [ conv t; conv e ])
  | Parsetree.Pexp_ifthenelse (c, t, None) ->
      U_seq (conv c, U_stmt [ conv t ])
  | Parsetree.Pexp_match (scrut, cases) | Parsetree.Pexp_try (scrut, cases) ->
      U_seq
        ( conv scrut,
          U_branch (List.map (fun c -> conv c.Parsetree.pc_rhs) cases) )
  | Parsetree.Pexp_let (_, vbs, body) ->
      List.fold_right
        (fun vb acc ->
          match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } ->
              U_let
                {
                  ul_name = txt;
                  ul_rhs = conv vb.Parsetree.pvb_expr;
                  ul_body = acc;
                  ul_line = line_of_loc' vb.Parsetree.pvb_loc;
                }
          | _ -> U_seq (U_stmt [ conv vb.Parsetree.pvb_expr ], acc))
        vbs (conv body)
  | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
      let params = all_params e in
      let body =
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_function cases ->
            U_branch (List.map (fun c -> conv c.Parsetree.pc_rhs) cases)
        | _ -> conv (strip_params e)
      in
      let params = if params = [] then [ (None, "_") ] else params in
      U_fun { uf_params = params; uf_body = body }
  | Parsetree.Pexp_sequence (a, b) -> U_seq (conv a, conv b)
  | Parsetree.Pexp_while (c, b) -> U_stmt [ conv c; conv b ]
  | Parsetree.Pexp_for (_, lo, hi, _, b) -> U_stmt [ conv lo; conv hi; conv b ]
  | Parsetree.Pexp_assert e | Parsetree.Pexp_lazy e -> U_stmt [ conv e ]
  | Parsetree.Pexp_tuple es -> U_block (List.map conv es)
  | Parsetree.Pexp_array es -> U_block (List.map conv es)
  | Parsetree.Pexp_construct (_, Some e) -> U_block [ conv e ]
  | Parsetree.Pexp_construct (_, None) | Parsetree.Pexp_variant (_, None) ->
      U_const
  | Parsetree.Pexp_variant (_, Some e) -> U_block [ conv e ]
  | Parsetree.Pexp_record (fields, base) ->
      let converted =
        List.filter_map
          (fun (lid, e) ->
            match field_name_of_lid lid.Location.txt with
            | Some f -> Some (f, conv e)
            | None -> None)
          fields
      in
      let base_checked =
        match base with Some b -> [ ("_base", conv b) ] | None -> []
      in
      U_record { ur_fields = converted @ base_checked; ur_line = line }
  | Parsetree.Pexp_setfield (_, lid, rhs) -> (
      match field_name_of_lid lid.Location.txt with
      | Some f -> U_setfield { us_field = f; us_rhs = conv rhs; us_line = line }
      | None -> U_stmt [ conv rhs ])
  | _ -> U_opaque

and line_of_loc' (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

(* ---- per-file extraction ----------------------------------------------- *)

type state = {
  mutable st_opens : string list list;
  mutable st_aliases : (string * string list) list;
  mutable st_toplevel : string list;
  mutable st_topmuts : (string * string * int) list;
  mutable st_fns : fn list;
  mutable st_refs : string list list;
  mutable st_creates : rng_create list;
  mutable st_accums : float_accum list;
  mutable st_hots : int list;
  mutable st_colds : int list;
  mutable st_units : (string * int * bool) list;
  mutable st_fields : (string * string) list;
}

let rec pattern_names p =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_var { txt; _ } -> [ txt ]
  | Parsetree.Ppat_constraint (p, _) -> pattern_names p
  | Parsetree.Ppat_tuple ps -> List.concat_map pattern_names ps
  | Parsetree.Ppat_alias (p, { txt; _ }) -> txt :: pattern_names p
  | _ -> []

(* The unit annotation attached to an item starting at [line]: the
   comment may sit on the same line, the line above, or two above (so it
   stacks with a [(* mppm: hot *)] marker). *)
let unit_annot_near units line =
  match
    List.find_map (fun (u, l, _) -> if l = line then Some u else None) units
  with
  | Some u -> Some u
  | None ->
      (* Only a standalone annotation reaches down to the next item, so
         a trailing annotation on one record field never bleeds onto the
         field declared on the following line. *)
      List.find_map
        (fun (u, l, trailing) ->
          if (not trailing) && (l = line - 1 || l = line - 2) then Some u
          else None)
        units

let unit_annot_at st line = unit_annot_near st.st_units line

(* Summarize a closure handed to the parallel surface: writes to values
   it does not bind itself, every path it references, and captured
   identifiers it passes as a callee's first (potentially mutated)
   positional argument. *)
let summarize_closure st lambda =
  let bound, _alloc = binding_env st.st_aliases lambda in
  let writes = ref [] in
  let calls = ref [] in
  let escaping = ref [] in
  let record_write line target prim =
    match target_ident target with
    | Some (v, qualified) when qualified || not (List.mem v bound) ->
        let scope =
          if qualified || List.mem v st.st_toplevel then "toplevel"
          else "captured"
        in
        writes := (v, prim, scope, line) :: !writes
    | _ -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } ->
              let path = expand st.st_aliases (flatten txt) in
              if path <> [] then calls := path :: !calls
          | Parsetree.Pexp_setfield (target, _, _) ->
              record_write (line_of_expr e) target "<-"
          | Parsetree.Pexp_apply (head, args) -> (
              let line = line_of_expr e in
              let path = head_path st.st_aliases head in
              (match write_prim_of_path path with
              | Some (prim, idx) -> (
                  match nth_positional args idx with
                  | Some target -> record_write line target prim
                  | None -> ())
              | None -> ());
              match (path, first_positional_ident args) with
              | _ :: _, Some v when not (List.mem v bound) ->
                  escaping := (path, v, line) :: !escaping
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it lambda;
  {
    ct_line = line_of_expr lambda;
    ct_writes = List.rev !writes;
    ct_calls = List.sort_uniq compare !calls;
    ct_escaping = List.rev !escaping;
  }

(* Whether a lambda captures anything: a reference to a single-ident name
   bound neither inside the lambda nor at the module toplevel forces a
   closure environment at runtime.  Capture-free lambdas are statically
   allocated by the compiler and cost nothing per call, so P1 skips
   them. *)
let lambda_captures st lambda =
  let bound, _ = binding_env st.st_aliases lambda in
  expr_contains
    (fun e ->
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident { txt = Longident.Lident v; _ } ->
          String.length v > 0
          && (match v.[0] with 'a' .. 'z' | '_' -> true | _ -> false)
          && (not (List.mem v bound))
          && (not (List.mem v st.st_toplevel))
          && not (List.mem v pervasive_idents)
      | _ -> false)
    lambda

(* P1-P4 site collection with hot-region structure.  One walk over the
   body records every perf-relevant shape outside the cold guards
   (branches conditioned on Invariant/Trace/Prof.enabled or an ident
   bound to one, Trace.emit/Invariant applications, and expressions under
   an [(* mppm: cold *)] marker).  Sites and referenced paths inside
   while/for loops land in the loop region too, and the bodies of local
   lambdas referenced from a loop are folded into the loop region by a
   worklist pass — so [let stop () = ... in while not (stop ()) do]
   contributes [stop]'s body to the loop. *)
let perf_scan st body =
  let warm_sites = ref [] and loop_sites = ref [] in
  let warm_calls = ref [] and loop_calls = ref [] in
  let has_loop = ref false in
  let loop_idents = ref [] in
  let local_lambdas = ref [] in
  let in_loop = ref false in
  let loop_only = ref false in
  (* Idents let-bound to a cold-guard read:
     [let observing = Trace.enabled obs]. *)
  let cold_idents = ref [] in
  let cold_rhs e =
    expr_contains
      (fun e ->
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_ident { txt; _ } ->
            is_cold_guard_path (expand st.st_aliases (flatten txt))
        | _ -> false)
      e
  in
  let collect_cold =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_let (_, vbs, _) ->
              List.iter
                (fun vb ->
                  match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
                  | Parsetree.Ppat_var { txt = v; _ }
                    when cold_rhs vb.Parsetree.pvb_expr ->
                      cold_idents := v :: !cold_idents
                  | _ -> ())
                vbs
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  collect_cold.expr collect_cold body;
  let is_cold_cond c =
    expr_contains
      (fun e ->
        match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_ident { txt; _ } -> (
            match expand st.st_aliases (flatten txt) with
            | [ v ] -> List.mem v !cold_idents
            | path -> is_cold_guard_path path)
        | _ -> false)
      c
  in
  let marked_cold e =
    let line = line_of_expr e in
    List.mem line st.st_colds || List.mem (line - 1) st.st_colds
  in
  let site rule what line =
    let s = { ps_rule = rule; ps_what = what; ps_line = line } in
    if not !loop_only then warm_sites := s :: !warm_sites;
    if !in_loop || !loop_only then loop_sites := s :: !loop_sites
  in
  let record_call path =
    if path <> [] then begin
      if not !loop_only then warm_calls := path :: !warm_calls;
      if !in_loop || !loop_only then begin
        loop_calls := path :: !loop_calls;
        match path with
        | [ v ] -> loop_idents := v :: !loop_idents
        | _ -> ()
      end
    end
  in
  let apply_sites line path args =
    match hashtbl_member_of_path path with
    | Some m -> site "P3" m line
    | None -> (
        match perf_alloc_of_path path with
        | Some p -> site "P1" ("allocating call " ^ p) line
        | None -> (
            match poly_compare_of_path path with
            | Some p -> site "P2" ("polymorphic " ^ p) line
            | None ->
                if path = [ ":=" ] || path = [ "Stdlib"; ":=" ] then
                  match nth_positional args 1 with
                  | Some rhs when expr_contains is_float_op rhs ->
                      site "P4" "boxed-float ref accumulation" line
                  | _ -> ()))
  in
  let iter = ref Ast_iterator.default_iterator in
  let handle it e =
    if not (marked_cold e) then
      let line = line_of_expr e in
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_while (cond, loop_body) ->
          if not !loop_only then has_loop := true;
          let saved = !in_loop in
          in_loop := true;
          it.Ast_iterator.expr it cond;
          it.Ast_iterator.expr it loop_body;
          in_loop := saved
      | Parsetree.Pexp_for (_, lo, hi, _, loop_body) ->
          if not !loop_only then has_loop := true;
          it.Ast_iterator.expr it lo;
          it.Ast_iterator.expr it hi;
          let saved = !in_loop in
          in_loop := true;
          it.Ast_iterator.expr it loop_body;
          in_loop := saved
      | Parsetree.Pexp_ifthenelse (cond, _, else_opt) when is_cold_cond cond
        -> (
          match else_opt with
          | Some else_ -> it.Ast_iterator.expr it else_
          | None -> ())
      | Parsetree.Pexp_apply (head, args) ->
          let path = head_path st.st_aliases head in
          if not (is_cold_apply_path path) then begin
            record_call path;
            apply_sites line path args;
            (match head.Parsetree.pexp_desc with
            | Parsetree.Pexp_ident _ -> ()
            | _ -> it.Ast_iterator.expr it head);
            List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args
          end
      | Parsetree.Pexp_ident { txt; _ } -> (
          let path = expand st.st_aliases (flatten txt) in
          record_call path;
          match poly_compare_of_path path with
          | Some p -> site "P2" ("polymorphic " ^ p ^ " passed as a value") line
          | None -> ())
      | Parsetree.Pexp_fun _ ->
          (* A syntactically curried chain compiles to one multi-param
             closure, so captures are judged on the whole chain and the
             intermediate fun nodes are skipped — an outer param is not a
             capture of the inner lambda. *)
          if lambda_captures st e then
            site "P1" "closure allocation (captures its environment)" line;
          it.Ast_iterator.expr it (strip_params e)
      | Parsetree.Pexp_function _ ->
          if lambda_captures st e then
            site "P1" "closure allocation (captures its environment)" line;
          Ast_iterator.default_iterator.expr it e
      | Parsetree.Pexp_match
          ({ pexp_desc = Parsetree.Pexp_tuple comps; _ }, cases) ->
          (* [match (a, b) with ...] deconstructs the pair in place — the
             compiler never builds the tuple — so only the components and
             the cases are scanned, not the scrutinee tuple itself. *)
          List.iter (it.Ast_iterator.expr it) comps;
          List.iter (it.Ast_iterator.case it) cases
      | Parsetree.Pexp_tuple _ ->
          site "P1" "tuple allocation" line;
          Ast_iterator.default_iterator.expr it e
      | Parsetree.Pexp_record _ ->
          site "P1" "record allocation" line;
          Ast_iterator.default_iterator.expr it e
      | Parsetree.Pexp_array els ->
          if els <> [] then site "P1" "array literal" line;
          Ast_iterator.default_iterator.expr it e
      | Parsetree.Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) ->
          site "P1" "list cons" line;
          Ast_iterator.default_iterator.expr it e
      | Parsetree.Pexp_let (_, vbs, _) ->
          List.iter
            (fun vb ->
              match vb.Parsetree.pvb_pat.Parsetree.ppat_desc with
              | Parsetree.Ppat_var { txt = v; _ }
                when is_fun vb.Parsetree.pvb_expr ->
                  if not (List.mem_assoc v !local_lambdas) then
                    local_lambdas := (v, vb.Parsetree.pvb_expr) :: !local_lambdas
              | _ -> ())
            vbs;
          Ast_iterator.default_iterator.expr it e
      | _ -> Ast_iterator.default_iterator.expr it e
  in
  iter := { Ast_iterator.default_iterator with expr = handle };
  let iter = !iter in
  iter.Ast_iterator.expr iter (strip_params body);
  (* Fold loop-referenced local lambdas into the loop region. *)
  let visited = ref [] in
  let rec expand_loop_lambdas () =
    let pending =
      List.filter
        (fun (name, _) ->
          List.mem name !loop_idents && not (List.mem name !visited))
        !local_lambdas
    in
    if pending <> [] then begin
      List.iter
        (fun (name, lam) ->
          visited := name :: !visited;
          loop_only := true;
          in_loop := true;
          iter.Ast_iterator.expr iter (strip_params lam);
          loop_only := false;
          in_loop := false)
        pending;
      expand_loop_lambdas ()
    end
  in
  expand_loop_lambdas ();
  ( List.sort_uniq compare !warm_sites,
    List.sort_uniq compare !loop_sites,
    List.sort_uniq compare !warm_calls,
    List.sort_uniq compare !loop_calls,
    !has_loop )

(* A let-bound local function that forwards one of its own positional
   parameters as the task of a parallel entry is a sink: calls to it are
   pool calls, with the task at the forwarded parameter's index. *)
let sink_index_of st lambda =
  let params = positional_params lambda in
  let found = ref None in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_apply (head, args) -> (
              match pool_entry_of_path (head_path st.st_aliases head) with
              | Some entry -> (
                  match task_arg_of_entry entry args with
                  | Some
                      {
                        Parsetree.pexp_desc =
                          Parsetree.Pexp_ident { txt = Longident.Lident v; _ };
                        _;
                      } -> (
                      match
                        List.find_index (fun p -> p = v) params
                      with
                      | Some i when !found = None -> found := Some i
                      | _ -> ())
                  | _ -> ())
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it lambda;
  !found

(* Scan one top-level binding body, accumulating the fn summary. *)
let scan_body st ~fn_name ~fn_line body =
  let calls = ref [] in
  let rng_fields = ref [] in
  let prim_io = ref [] in
  let prim_conc = ref [] in
  let has_rng = ref false in
  let mutations = ref [] in
  let pool_calls = ref [] in
  let top_arg_calls = ref [] in
  let raises = ref false in
  let fn_bound, fn_alloc = binding_env st.st_aliases body in
  let first_param = first_positional_param body in
  (* Let-bound local lambdas, so a task referenced by name is analyzed as
     the closure it is, and local pool-forwarding wrappers act as
     entries. *)
  let local_lambdas = ref [] in
  let local_sinks = ref [] in
  (* Function-wide map of [let v = expr.field] aliases, so a draw through a
     local binding still resolves to the record field. *)
  let field_aliases = ref [] in
  let record_path line path =
    if path <> [] then begin
      calls := path :: !calls;
      st.st_refs <- path :: st.st_refs;
      (match io_prim_of_path path with
      | Some p -> prim_io := (p, line) :: !prim_io
      | None -> ());
      (match conc_prim_of_path path with
      | Some p -> prim_conc := (p, line) :: !prim_conc
      | None -> ());
      (match List.rev path with
      | last :: _ when List.mem last raise_prims && List.length path <= 2 ->
          raises := true
      | _ -> ());
      match rng_member_of_path path with
      | Some _ -> has_rng := true
      | None -> ()
    end
  in
  let record_mutation line target prim =
    match target_ident target with
    | None -> ()
    | Some (v, qualified) ->
        let scope =
          if qualified then Mut_toplevel
          else if List.mem v fn_alloc then Mut_local
          else if List.mem v fn_bound then Mut_arg
          else Mut_toplevel
        in
        mutations :=
          { mut_target = v; mut_prim = prim; mut_scope = scope; mut_line = line }
          :: !mutations
  in
  let rec tasks_of_expr e =
    if is_fun e then [ Task_closure (summarize_closure st e) ]
    else
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_constraint (e, _) -> tasks_of_expr e
      | Parsetree.Pexp_ident { txt; _ } -> (
          let path = expand st.st_aliases (flatten txt) in
          match path with
          | [] -> []
          | [ name ] when List.mem_assoc name !local_lambdas ->
              [ Task_closure (summarize_closure st (List.assoc name !local_lambdas)) ]
          | _ -> [ Task_path (path, None) ])
      | Parsetree.Pexp_apply (head, hargs) -> (
          match head_path st.st_aliases head with
          | [] -> []
          | path -> [ Task_path (path, first_positional_ident hargs) ])
      | _ -> []
  in
  let rng_field_of_arg e =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_field (_, { txt; _ }) -> (
        match List.rev (flatten txt) with f :: _ -> Some f | [] -> None)
    | Parsetree.Pexp_ident { txt = Longident.Lident v; _ } ->
        List.assoc_opt v !field_aliases
    | _ -> None
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Parsetree.Pexp_ident { txt; _ } ->
              record_path (line_of_expr e) (expand st.st_aliases (flatten txt))
          | Parsetree.Pexp_field (_, { txt; _ }) ->
              (* Qualified record-field access ([cfg.Hierarchy.llc]) counts
                 as a reference so S4 does not flag a val sharing a field's
                 name. *)
              st.st_refs <- expand st.st_aliases (flatten txt) :: st.st_refs
          | Parsetree.Pexp_open (od, _) -> (
              match od.Parsetree.popen_expr.Parsetree.pmod_desc with
              | Parsetree.Pmod_ident { txt; _ } ->
                  st.st_opens <- flatten txt :: st.st_opens
              | _ -> ())
          | Parsetree.Pexp_let (_, vbs, _) ->
              List.iter
                (fun vb ->
                  match
                    ( vb.Parsetree.pvb_pat.Parsetree.ppat_desc,
                      vb.Parsetree.pvb_expr.Parsetree.pexp_desc )
                  with
                  | ( Parsetree.Ppat_var { txt = v; _ },
                      Parsetree.Pexp_field (_, { txt; _ }) ) -> (
                      match List.rev (flatten txt) with
                      | f :: _ -> field_aliases := (v, f) :: !field_aliases
                      | [] -> ())
                  | Parsetree.Ppat_var { txt = v; _ }, _
                    when is_fun vb.Parsetree.pvb_expr ->
                      local_lambdas :=
                        (v, vb.Parsetree.pvb_expr) :: !local_lambdas;
                      (match sink_index_of st vb.Parsetree.pvb_expr with
                      | Some i -> local_sinks := (v, i) :: !local_sinks
                      | None -> ())
                  | _ -> ())
                vbs
          | Parsetree.Pexp_setfield (target, _, _) ->
              record_mutation (line_of_expr e) target "<-"
          | Parsetree.Pexp_apply (head, args) -> (
              let line = line_of_expr e in
              let path = head_path st.st_aliases head in
              (* Direct writes through stdlib mutation primitives *)
              (match write_prim_of_path path with
              | Some (prim, idx) -> (
                  match nth_positional args idx with
                  | Some target -> record_mutation line target prim
                  | None -> ())
              | None -> ());
              (* A module-level value passed as a callee's first positional
                 argument: pairs with the callee's mut_arg0 to detect
                 writes to toplevel state made on its behalf. *)
              (match first_positional_ident args with
              | Some v when List.mem v st.st_toplevel && path <> [] ->
                  top_arg_calls := (path, v, line) :: !top_arg_calls
              | _ -> ());
              (* Parallel entries and local forwarding sinks (S6) *)
              (let entry =
                 match pool_entry_of_path path with
                 | Some e -> Some (e, None)
                 | None -> (
                     match path with
                     | [ name ] -> (
                         match List.assoc_opt name !local_sinks with
                         | Some i -> Some ("Pool.map via " ^ name, Some i)
                         | None -> None)
                     | _ -> None)
               in
               match entry with
               | Some (entry_name, sink_idx) ->
                   let task_expr =
                     match sink_idx with
                     | Some i -> nth_positional args i
                     | None -> task_arg_of_entry entry_name args
                   in
                   let pc_tasks =
                     match task_expr with
                     | Some e -> tasks_of_expr e
                     | None -> []
                   in
                   pool_calls :=
                     { pc_entry = entry_name; pc_line = line; pc_tasks }
                     :: !pool_calls
               | None -> ());
              (* Rng call classification *)
              (match rng_member_of_path path with
              | Some "create" ->
                  let constant =
                    match
                      List.find_opt
                        (fun (lbl, _) -> lbl = Asttypes.Labelled "seed")
                        args
                    with
                    | Some (_, seed_expr) -> not (mentions_ident seed_expr)
                    | None -> false
                  in
                  st.st_creates <-
                    { rc_line = line; rc_constant_seed = constant }
                    :: st.st_creates
              | Some _ -> (
                  (* A draw: the generator state is the first positional
                     argument of every Mppm_util.Rng function. *)
                  match
                    List.find_opt
                      (fun (lbl, _) -> lbl = Asttypes.Nolabel)
                      args
                  with
                  | Some (_, state_arg) -> (
                      match rng_field_of_arg state_arg with
                      | Some f -> rng_fields := f :: !rng_fields
                      | None -> ())
                  | None -> ())
              | None -> ());
              (* S3: float accumulation over unordered Hashtbl iteration *)
              let closure_has_float_op () =
                List.exists
                  (fun (_, a) ->
                    (is_fun a && expr_contains is_float_op a) || is_float_op a)
                  args
              in
              match List.rev path with
              | m :: "Hashtbl" :: _ when m = "fold" || m = "iter" ->
                  if closure_has_float_op () then
                    st.st_accums <-
                      { fa_line = line; fa_context = "Hashtbl." ^ m }
                      :: st.st_accums
              | m :: _
                when (m = "fold_left" || m = "fold_right" || m = "fold")
                     && List.exists
                          (fun (_, a) ->
                            applies_hashtbl_to_seq st.st_aliases a)
                          args
                     && closure_has_float_op () ->
                  st.st_accums <-
                    { fa_line = line; fa_context = "fold over Hashtbl.to_seq" }
                    :: st.st_accums
              | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body;
  let mutations = List.rev !mutations in
  (* Perf facts only make sense for function bindings: a non-fn toplevel
     binding runs once at module init, so its allocations are not
     per-call costs and must not taint the hotness propagation. *)
  let warm_sites, loop_sites, warm_calls, loop_calls, fn_has_loop =
    if is_fun body then perf_scan st body else ([], [], [], [], false)
  in
  {
    fn_name;
    fn_line;
    calls = List.sort_uniq compare !calls;
    rng_fields = List.sort_uniq compare !rng_fields;
    prim_io = List.rev !prim_io;
    prim_conc = List.rev !prim_conc;
    has_rng = !has_rng;
    mutations;
    mut_arg0 =
      (match first_param with
      | Some p ->
          List.exists
            (fun m -> m.mut_scope = Mut_arg && m.mut_target = p)
            mutations
      | None -> false);
    pool_calls = List.rev !pool_calls;
    top_arg_calls = List.rev !top_arg_calls;
    raises = !raises;
    fn_hot =
      List.mem fn_line st.st_hots || List.mem (fn_line - 1) st.st_hots;
    fn_has_loop;
    warm_sites;
    loop_sites;
    warm_calls;
    loop_calls;
    fn_uparams = all_params body;
    fn_ubody = uexpr_of st.st_aliases (strip_params body);
    fn_unit_annot = unit_annot_at st fn_line;
  }

let line_of_loc (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

(* Record fields declared by one type declaration: (name, line) pairs,
   so unit annotations can attach by line. *)
let record_fields_of_decls decls =
  List.concat_map
    (fun d ->
      match d.Parsetree.ptype_kind with
      | Parsetree.Ptype_record labels ->
          List.map
            (fun ld ->
              ( ld.Parsetree.pld_name.Location.txt,
                line_of_loc ld.Parsetree.pld_loc ))
            labels
      | _ -> [])
    decls

(* First pass: module-level opens, aliases, value names and mutable
   allocations, recursing into inline submodule structures. *)
let rec collect_scaffolding st items =
  List.iter
    (fun item ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_type (_, decls) ->
          List.iter
            (fun (fname, fline) ->
              match unit_annot_at st fline with
              | Some u -> st.st_fields <- (fname, u) :: st.st_fields
              | None -> ())
            (record_fields_of_decls decls)
      | Parsetree.Pstr_open od -> (
          match od.Parsetree.popen_expr.Parsetree.pmod_desc with
          | Parsetree.Pmod_ident { txt; _ } ->
              st.st_opens <- flatten txt :: st.st_opens
          | _ -> ())
      | Parsetree.Pstr_module mb -> (
          let rec module_body me =
            match me.Parsetree.pmod_desc with
            | Parsetree.Pmod_constraint (me, _) -> module_body me
            | d -> d
          in
          match (mb.Parsetree.pmb_name.Location.txt, module_body mb.Parsetree.pmb_expr) with
          | Some name, Parsetree.Pmod_ident { txt; _ } ->
              st.st_aliases <- (name, flatten txt) :: st.st_aliases
          | _, Parsetree.Pmod_structure items -> collect_scaffolding st items
          | _ -> ())
      | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              st.st_toplevel <-
                pattern_names vb.Parsetree.pvb_pat @ st.st_toplevel;
              let rec alloc_kind rhs =
                match rhs.Parsetree.pexp_desc with
                | Parsetree.Pexp_constraint (e, _) -> alloc_kind e
                | Parsetree.Pexp_apply (head, _) ->
                    toplevel_mut_kind_of_path (head_path st.st_aliases head)
                | _ -> None
              in
              match
                (pattern_names vb.Parsetree.pvb_pat, alloc_kind vb.Parsetree.pvb_expr)
              with
              | name :: _, Some kind ->
                  st.st_topmuts <-
                    (name, kind, line_of_loc vb.Parsetree.pvb_loc)
                    :: st.st_topmuts
              | _ -> ())
            vbs
      | _ -> ())
    items

(* Second pass: one fn summary per top-level binding. *)
let rec collect_fns st items =
  List.iter
    (fun item ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let fn_name =
                match pattern_names vb.Parsetree.pvb_pat with
                | name :: _ -> name
                | [] -> Printf.sprintf "(init:%d)" (line_of_loc vb.Parsetree.pvb_loc)
              in
              st.st_fns <-
                scan_body st ~fn_name
                  ~fn_line:(line_of_loc vb.Parsetree.pvb_loc)
                  vb.Parsetree.pvb_expr
                :: st.st_fns)
            vbs
      | Parsetree.Pstr_eval (e, _) ->
          st.st_fns <-
            scan_body st
              ~fn_name:(Printf.sprintf "(init:%d)" (line_of_expr e))
              ~fn_line:(line_of_expr e) e
            :: st.st_fns
      | Parsetree.Pstr_module mb -> (
          let rec module_body me =
            match me.Parsetree.pmod_desc with
            | Parsetree.Pmod_constraint (me, _) -> module_body me
            | d -> d
          in
          match module_body mb.Parsetree.pmb_expr with
          | Parsetree.Pmod_structure items -> collect_fns st items
          | _ -> ())
      | _ -> ())
    items

let mli_vals_of_signature signature =
  List.filter_map
    (fun item ->
      match item.Parsetree.psig_desc with
      | Parsetree.Psig_value vd ->
          Some
            ( vd.Parsetree.pval_name.Location.txt,
              line_of_loc vd.Parsetree.pval_loc )
      | _ -> None)
    signature

let mli_fields_of_signature signature =
  List.concat_map
    (fun item ->
      match item.Parsetree.psig_desc with
      | Parsetree.Psig_type (_, decls) -> record_fields_of_decls decls
      | _ -> [])
    signature

let extract ~rel content =
  let is_mli = Filename.check_suffix rel ".mli" in
  let base (c : Astparse.comments) =
    {
      rel;
      unit_name =
        String.capitalize_ascii
          (Filename.remove_extension (Filename.basename rel));
      dir = Filename.dirname rel;
      is_mli;
      opens = [];
      aliases = [];
      fns = [];
      refs = [];
      mli_vals = [];
      val_units = [];
      field_units = [];
      rng_creates = [];
      float_accums = [];
      toplevel_muts = [];
      allows = c.allows;
      allow_files = c.allow_files;
      findings = [];
    }
  in
  if is_mli then
    Result.map
      (fun { Astparse.ast = signature; comments = c } ->
        let mli_vals = mli_vals_of_signature signature in
        let attach items =
          List.filter_map
            (fun (name, line) ->
              match unit_annot_near c.units line with
              | Some u -> Some (name, u)
              | None -> None)
            items
        in
        {
          (base c) with
          mli_vals;
          val_units = attach mli_vals;
          field_units = attach (mli_fields_of_signature signature);
          findings = Filecheck.signature ~rel ~docs:c.docs signature;
        })
      (Astparse.interface ~filename:rel content)
  else
    Result.map
      (fun { Astparse.ast = structure; comments = c } ->
        let st =
          {
            st_opens = [];
            st_aliases = [];
            st_toplevel = [];
            st_topmuts = [];
            st_fns = [];
            st_refs = [];
            st_creates = [];
            st_accums = [];
            st_hots = c.hots;
            st_colds = c.colds;
            st_units = c.units;
            st_fields = [];
          }
        in
        collect_scaffolding st structure;
        collect_fns st structure;
        {
          (base c) with
          opens = List.rev st.st_opens;
          aliases = st.st_aliases;
          fns = List.rev st.st_fns;
          refs = List.sort_uniq compare st.st_refs;
          field_units = List.rev st.st_fields;
          rng_creates = List.rev st.st_creates;
          float_accums = List.rev st.st_accums;
          toplevel_muts = List.rev st.st_topmuts;
          findings =
            Filecheck.structure ~rel ~aliases:st.st_aliases structure;
        })
      (Astparse.implementation ~filename:rel content)
