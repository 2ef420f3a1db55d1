(* Transitive per-function effect summaries and the S1/S5 containment
   rules.

   Each top-level function starts from its direct effects (recorded in
   Facts) and absorbs the effects of every resolvable callee to a
   fixpoint over an explicit join-semilattice of summaries.  Propagation
   of the I/O effect stops at the allowlisted units: calling into the
   profile cache or the trace-file store is sanctioned, so the caller
   does not inherit the I/O taint.  The concurrency effect (S5) is
   absorbed at lib/pool/ the same way, and the module-state mutation
   effect (backing S6/S7) at the purity allowlist: the pool internals,
   the obs registry (commutative counters) and the sanitizer's check
   registry are allowed to hold and write module-level state without
   tainting callers.  Lock-class sets (backing S8) propagate with no
   absorption at all — holding a lock is never sanctioned away. *)

module Diag = Mppm_lint.Diag

(* Units allowed to perform (and absorb) file/channel I/O: the profile
   store and the profile-cache directory management (profiles and private
   streams) in the experiment context. *)
let allowlist = [ "lib/profile/profile"; "lib/experiments/context" ]

(* Units allowed to use (and absorb) the Domain/Mutex/Condition/Atomic
   concurrency surface: everything under lib/pool/. *)
let conc_dir = "lib/pool/"

let in_conc_allowlist unit_key =
  String.length unit_key >= String.length conc_dir
  && String.sub unit_key 0 (String.length conc_dir) = conc_dir

(* Units sanctioned to hold and mutate module-level state (S6/S7): the
   registry's counters are commutative additions under one lock, and the
   sanitizer's invariant-check registry is result-neutral by contract
   (MPPM_SANITIZE runs are bit-for-bit identical).  lib/pool/ is included
   so the pool's own machinery never taints its callers. *)
let purity_allowlist = [ "lib/obs/registry"; "lib/util/invariant" ]

let in_purity_allowlist unit_key =
  in_conc_allowlist unit_key || List.mem unit_key purity_allowlist

(* The declared lock ordering (S8): the pool mutex is acquired before the
   registry mutex, never the other way around. *)
let lock_order = [ "pool"; "registry" ]

let lock_class_of_unit unit_key =
  if in_conc_allowlist unit_key then Some "pool"
  else if unit_key = "lib/obs/registry" then Some "registry"
  else None

let lock_rank c =
  let rec go i = function
    | [] -> None
    | x :: rest -> if x = c then Some i else go (i + 1) rest
  in
  go 0 lock_order

(* ---- the summary lattice ------------------------------------------------ *)

type summary = {
  e_io : bool;
  e_conc : bool;
  e_rng : bool;
  e_mut_top : bool;  (* writes module-level mutable state *)
  e_mut_arg : bool;  (* writes caller-owned state it was handed *)
  e_raises : bool;
  e_locks : string list;  (* sorted distinct lock classes acquired *)
}

let bottom =
  {
    e_io = false;
    e_conc = false;
    e_rng = false;
    e_mut_top = false;
    e_mut_arg = false;
    e_raises = false;
    e_locks = [];
  }

let merge a b =
  {
    e_io = a.e_io || b.e_io;
    e_conc = a.e_conc || b.e_conc;
    e_rng = a.e_rng || b.e_rng;
    e_mut_top = a.e_mut_top || b.e_mut_top;
    e_mut_arg = a.e_mut_arg || b.e_mut_arg;
    e_raises = a.e_raises || b.e_raises;
    e_locks = List.sort_uniq compare (a.e_locks @ b.e_locks);
  }

let equal (a : summary) b = a = b
let leq a b = equal (merge a b) b

(* ---- nodes and the fixpoint --------------------------------------------- *)

type node = {
  mutable s : summary;
  mutable io_witness : string;
  mutable conc_witness : string;
  mutable mut_witness : string;
  n_mut_arg0 : bool;
  fn : Facts.fn;
  unit_key : string;
  rel : string;
}

type info = {
  i_summary : summary;
  i_mut_arg0 : bool;
      (* direct fact: the callee mutates its own first positional param *)
  i_mut_witness : string;
  i_unit : string;
  i_rel : string;
  i_fn_name : string;
  i_fn_line : int;
}

type table = { env : Resolve.env; nodes : (string, node) Hashtbl.t }

let node_key unit_key fn_name = unit_key ^ ":" ^ fn_name

(* Direct concurrency prims with the file's S5 allow comments already
   applied: a prim on an allowed line never enters the effect lattice, so
   a sanctioned use (e.g. the registry's lock) does not taint its
   callers the way a suppressed-at-report-time diag still would. *)
let conc_prims_of (f : Facts.t) (fn : Facts.fn) =
  if List.mem "S5" f.Facts.allow_files then []
  else
    List.filter
      (fun (_, line) ->
        not
          (List.exists
             (fun (rule, l) -> rule = "S5" && (l = line || l = line - 1))
             f.Facts.allows))
      fn.Facts.prim_conc

(* The lock-order rule needs the raw prims: the registry's allow-file S5
   sanctions its lock's *existence*, not its ordering. *)
let locks_directly (fn : Facts.fn) =
  List.exists (fun (p, _) -> p = "Mutex.lock") fn.Facts.prim_conc

let has_mut scope (fn : Facts.fn) =
  List.exists (fun (m : Facts.mutation) -> m.Facts.mut_scope = scope)
    fn.Facts.mutations

let build_nodes facts_list =
  let nodes : (string, node) Hashtbl.t = Hashtbl.create ~random:false 256 in
  List.iter
    (fun (f : Facts.t) ->
      if not f.Facts.is_mli then
        let unit_key = Facts.unit_key_of_rel f.Facts.rel in
        List.iter
          (fun (fn : Facts.fn) ->
            let conc_prims = conc_prims_of f fn in
            let mut_top = has_mut Facts.Mut_toplevel fn in
            Hashtbl.replace nodes
              (node_key unit_key fn.Facts.fn_name)
              {
                s =
                  {
                    e_io = fn.Facts.prim_io <> [];
                    e_conc = conc_prims <> [];
                    e_rng = fn.Facts.has_rng;
                    e_mut_top = mut_top;
                    e_mut_arg = has_mut Facts.Mut_arg fn;
                    e_raises = fn.Facts.raises;
                    e_locks =
                      (match lock_class_of_unit unit_key with
                      | Some c when locks_directly fn -> [ c ]
                      | _ -> []);
                  };
                io_witness =
                  (match fn.Facts.prim_io with
                  | (p, _) :: _ -> p
                  | [] -> "");
                conc_witness =
                  (match conc_prims with (p, _) :: _ -> p | [] -> "");
                mut_witness =
                  (if mut_top then
                     match
                       List.find_opt
                         (fun (m : Facts.mutation) ->
                           m.Facts.mut_scope = Facts.Mut_toplevel)
                         fn.Facts.mutations
                     with
                     | Some m ->
                         Printf.sprintf "writes %s via %s" m.Facts.mut_target
                           m.Facts.mut_prim
                     | None -> ""
                   else "");
                n_mut_arg0 = fn.Facts.mut_arg0;
                fn;
                unit_key;
                rel = f.Facts.rel;
              })
          f.Facts.fns)
    facts_list;
  nodes

(* Resolve a call made from [facts] to a node key, when the callee is a
   known top-level function of a scanned unit.  Unqualified single-element
   paths resolve within the same unit. *)
let callee_key env (facts : Facts.t) nodes path =
  let unit_key = Facts.unit_key_of_rel facts.Facts.rel in
  match path with
  | [ name ] ->
      let k = node_key unit_key name in
      if Hashtbl.mem nodes k then Some k else None
  | _ -> (
      match Resolve.resolve env facts path with
      | Some (callee_unit, member) ->
          let k = node_key callee_unit member in
          if Hashtbl.mem nodes k then Some k else None
      | None -> None)

let callee_label callee =
  Printf.sprintf "%s.%s"
    (String.capitalize_ascii (Filename.basename callee.unit_key))
    callee.fn.Facts.fn_name

(* Pre-fixpoint seeding: a call passing a module-level value as the first
   positional argument of a callee that mutates its first parameter is a
   write to toplevel state made on the caller's behalf — the shape
   [Tally.add totals name 1.0], where [totals] is a toplevel table and
   [Tally.add] is a lib/ function that writes its first argument. *)
let seed_top_arg_calls env facts_list nodes =
  List.iter
    (fun (f : Facts.t) ->
      if not f.Facts.is_mli then
        let unit_key = Facts.unit_key_of_rel f.Facts.rel in
        List.iter
          (fun (fn : Facts.fn) ->
            match Hashtbl.find_opt nodes (node_key unit_key fn.Facts.fn_name) with
            | None -> ()
            | Some node ->
                List.iter
                  (fun (path, target, _line) ->
                    match callee_key env f nodes path with
                    | None -> ()
                    | Some k ->
                        let callee = Hashtbl.find nodes k in
                        if
                          callee.n_mut_arg0
                          && (not (in_purity_allowlist callee.unit_key))
                          && not node.s.e_mut_top
                        then begin
                          node.s <- { node.s with e_mut_top = true };
                          node.mut_witness <-
                            Printf.sprintf "passes module state %s to %s"
                              target (callee_label callee)
                        end)
                  fn.Facts.top_arg_calls)
          f.Facts.fns)
    facts_list

(* What a caller inherits from [callee]: its summary with the effects the
   callee's unit is sanctioned to absorb masked off.  The caller-owned
   mutation bit never propagates — it describes the callee's own
   parameters, not the caller's. *)
let contribution callee =
  let s = callee.s in
  let s = if List.mem callee.unit_key allowlist then { s with e_io = false } else s in
  let s = if in_conc_allowlist callee.unit_key then { s with e_conc = false } else s in
  let s =
    if in_purity_allowlist callee.unit_key then { s with e_mut_top = false }
    else s
  in
  { s with e_mut_arg = false }

let propagate env facts_list nodes =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (f : Facts.t) ->
        if not f.Facts.is_mli then
          let unit_key = Facts.unit_key_of_rel f.Facts.rel in
          List.iter
            (fun (fn : Facts.fn) ->
              match Hashtbl.find_opt nodes (node_key unit_key fn.Facts.fn_name) with
              | None -> ()
              | Some node ->
                  List.iter
                    (fun path ->
                      match callee_key env f nodes path with
                      | None -> ()
                      | Some k ->
                          let callee = Hashtbl.find nodes k in
                          if callee != node then begin
                            let merged = merge node.s (contribution callee) in
                            if not (equal merged node.s) then begin
                              if merged.e_io && not node.s.e_io then
                                node.io_witness <-
                                  Printf.sprintf "call to %s"
                                    (callee_label callee);
                              if merged.e_conc && not node.s.e_conc then
                                node.conc_witness <-
                                  Printf.sprintf "call to %s"
                                    (callee_label callee);
                              if merged.e_mut_top && not node.s.e_mut_top then
                                node.mut_witness <-
                                  Printf.sprintf "call to %s"
                                    (callee_label callee);
                              node.s <- merged;
                              changed := true
                            end
                          end)
                    fn.Facts.calls)
            f.Facts.fns)
      facts_list
  done

let build env facts_list =
  let nodes = build_nodes facts_list in
  seed_top_arg_calls env facts_list nodes;
  propagate env facts_list nodes;
  { env; nodes }

let info_of node =
  {
    i_summary = node.s;
    i_mut_arg0 = node.n_mut_arg0;
    i_mut_witness = node.mut_witness;
    i_unit = node.unit_key;
    i_rel = node.rel;
    i_fn_name = node.fn.Facts.fn_name;
    i_fn_line = node.fn.Facts.fn_line;
  }

let find t (facts : Facts.t) path =
  match callee_key t.env facts t.nodes path with
  | Some k -> Some (info_of (Hashtbl.find t.nodes k))
  | None -> None

let in_lib rel = String.length rel >= 4 && String.sub rel 0 4 = "lib/"

let check t =
  let diags = ref [] in
  Hashtbl.iter
    (fun _ node ->
      if
        node.s.e_io && in_lib node.rel
        && not (List.mem node.unit_key allowlist)
      then
        diags :=
          {
            Diag.file = node.rel;
            line = node.fn.Facts.fn_line;
            rule = "S1";
            severity = Diag.Error;
            message =
              Printf.sprintf
                "%s reaches file/channel I/O (%s); lib/ effects must stay \
                 inside the allowlisted \
                 profile-cache/trace-file/experiment-context modules"
                node.fn.Facts.fn_name node.io_witness;
          }
          :: !diags;
      if
        node.s.e_conc && in_lib node.rel
        && not (in_conc_allowlist node.unit_key)
      then
        diags :=
          {
            Diag.file = node.rel;
            line = node.fn.Facts.fn_line;
            rule = "S5";
            severity = Diag.Error;
            message =
              Printf.sprintf
                "%s reaches the Domain/Mutex/Condition/Atomic surface (%s); \
                 lib/ concurrency must stay inside lib/pool/ (or carry an \
                 allow comment)"
                node.fn.Facts.fn_name node.conc_witness;
          }
          :: !diags)
    t.nodes;
  List.sort Diag.compare !diags

let summaries t =
  Hashtbl.fold
    (fun _ node acc ->
      let effects =
        List.filter_map
          (fun (name, on) -> if on then Some name else None)
          [
            ("io", node.s.e_io); ("conc", node.s.e_conc);
            ("rng", node.s.e_rng); ("mut-top", node.s.e_mut_top);
            ("mut-arg", node.s.e_mut_arg); ("raises", node.s.e_raises);
          ]
        @ List.map (fun c -> "lock:" ^ c) node.s.e_locks
      in
      (node.rel, node.fn.Facts.fn_name, String.concat "," effects) :: acc)
    t.nodes []
  |> List.sort compare
