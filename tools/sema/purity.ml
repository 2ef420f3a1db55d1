(* S6/S7/S8: the parallel-determinism rules.

   The invariant "parallel runs are bit-for-bit equal to sequential"
   holds because every task handed to Mppm_pool is a pure function of its
   inputs, shared state is confined to the sanctioned memo/registry
   units, and the two mutexes those units own are always taken in one
   order.  These rules make each clause a build-time theorem over the
   mutation facts and the closed effect lattice:

   S6  every closure reaching Pool.map / Pool.map_reduce / a
       Single_flight memo must be observationally pure — no writes to
       captured or module-level mutable state, no calls reaching such a
       write outside the purity allowlist, and no captured value shared
       with a callee that mutates its first argument (the shape of every
       Rng draw and in-place simulator step);
   S7  lib/ holds no module-level mutable state outside the sanctioned
       units — neither the allocation (ref/Hashtbl.create/... at
       toplevel) nor a write to one, nor handing one to a mutating
       callee;
   S8  a function that acquires a declared lock may not call into code
       acquiring a lock of an outer class (declared order: pool before
       registry), so the lock graph stays acyclic. *)

module Diag = Mppm_lint.Diag

let in_lib rel = String.length rel >= 4 && String.sub rel 0 4 = "lib/"
let pretty path = String.concat "." path

let diag rel line rule message =
  { Diag.file = rel; line; rule; severity = Diag.Error; message }

(* ---- S6: pool-task purity ----------------------------------------------- *)

(* A resolvable callee whose closed summary still carries the
   module-state taint: the purity allowlist was already absorbed during
   propagation, but the sanctioned units themselves keep their own bit. *)
let tainted_callee table facts path =
  match Effects.find table facts path with
  | Some i
    when i.Effects.i_summary.Effects.e_mut_top
         && not (Effects.in_purity_allowlist i.Effects.i_unit) ->
      Some i
  | _ -> None

let arg0_mutating_callee table facts path =
  match Effects.find table facts path with
  | Some i
    when i.Effects.i_mut_arg0
         && not (Effects.in_purity_allowlist i.Effects.i_unit) ->
      Some i
  | _ -> None

let s6_task table (facts : Facts.t) (pc : Facts.pool_call) task =
  let d line message = diag facts.Facts.rel line "S6" message in
  match task with
  | Facts.Task_closure c ->
      List.map
        (fun (target, prim, scope, line) ->
          d line
            (Printf.sprintf
               "task passed to %s writes %s state %s (%s); pool tasks must \
                be pure functions of their inputs"
               pc.Facts.pc_entry scope target prim))
        c.Facts.ct_writes
      @ List.filter_map
          (fun path ->
            match tainted_callee table facts path with
            | Some i ->
                Some
                  (d pc.Facts.pc_line
                     (Printf.sprintf
                        "task passed to %s calls %s, which reaches \
                         module-level mutable state (%s)"
                        pc.Facts.pc_entry (pretty path)
                        i.Effects.i_mut_witness))
            | None -> None)
          c.Facts.ct_calls
      @ List.filter_map
          (fun (path, v, line) ->
            match arg0_mutating_callee table facts path with
            | Some _ ->
                Some
                  (d line
                     (Printf.sprintf
                        "task passed to %s shares captured value %s with %s, \
                         which mutates its first argument — workers would \
                         race on it"
                        pc.Facts.pc_entry v (pretty path)))
            | None -> None)
          c.Facts.ct_escaping
  | Facts.Task_path (path, applied) ->
      (match tainted_callee table facts path with
      | Some i ->
          [
            d pc.Facts.pc_line
              (Printf.sprintf
                 "task %s passed to %s reaches module-level mutable state \
                  (%s)"
                 (pretty path) pc.Facts.pc_entry i.Effects.i_mut_witness);
          ]
      | None -> [])
      @
      (match (applied, arg0_mutating_callee table facts path) with
      | Some v, Some _ ->
          [
            d pc.Facts.pc_line
              (Printf.sprintf
                 "task %s passed to %s is partially applied to %s and \
                  mutates it — workers would race on the shared value"
                 (pretty path) pc.Facts.pc_entry v);
          ]
      | _ -> [])

let s6 table facts_list =
  List.concat_map
    (fun (f : Facts.t) ->
      if
        in_lib f.Facts.rel && (not f.Facts.is_mli)
        && not (Effects.in_purity_allowlist (Facts.unit_key_of_rel f.Facts.rel))
      then
        List.concat_map
          (fun (fn : Facts.fn) ->
            List.concat_map
              (fun (pc : Facts.pool_call) ->
                List.concat_map (s6_task table f pc) pc.Facts.pc_tasks)
              fn.Facts.pool_calls)
          f.Facts.fns
      else [])
    facts_list

(* ---- S7: no new module-level mutable state in lib/ ----------------------- *)

let s7 table facts_list =
  List.concat_map
    (fun (f : Facts.t) ->
      if
        in_lib f.Facts.rel && (not f.Facts.is_mli)
        && not (Effects.in_purity_allowlist (Facts.unit_key_of_rel f.Facts.rel))
      then
        let d line message = diag f.Facts.rel line "S7" message in
        List.map
          (fun (name, kind, line) ->
            d line
              (Printf.sprintf
                 "module-level mutable state %s (%s) in lib/; keep state \
                  local, thread it through arguments, or move it into a \
                  sanctioned memo/registry unit"
                 name kind))
          f.Facts.toplevel_muts
        @ List.concat_map
            (fun (fn : Facts.fn) ->
              List.filter_map
                (fun (m : Facts.mutation) ->
                  if m.Facts.mut_scope = Facts.Mut_toplevel then
                    Some
                      (d m.Facts.mut_line
                         (Printf.sprintf
                            "%s writes module-level mutable state %s (%s); \
                             lib/ state outside the sanctioned \
                             memo/registry units must stay local"
                            fn.Facts.fn_name m.Facts.mut_target
                            m.Facts.mut_prim))
                  else None)
                fn.Facts.mutations
              @ List.filter_map
                  (fun (path, target, line) ->
                    match Effects.find table f path with
                    | Some i
                      when i.Effects.i_mut_arg0
                           && not
                                (Effects.in_purity_allowlist i.Effects.i_unit)
                      ->
                        Some
                          (d line
                             (Printf.sprintf
                                "%s passes module-level value %s to %s, \
                                 which mutates it; lib/ state outside the \
                                 sanctioned memo/registry units must stay \
                                 local"
                                fn.Facts.fn_name target (pretty path)))
                    | _ -> None)
                  fn.Facts.top_arg_calls)
            f.Facts.fns
      else [])
    facts_list

(* ---- S8: declared lock order --------------------------------------------- *)

let s8 table facts_list =
  List.concat_map
    (fun (f : Facts.t) ->
      if f.Facts.is_mli then []
      else
        match Effects.lock_class_of_unit (Facts.unit_key_of_rel f.Facts.rel) with
        | None -> []
        | Some own -> (
            match Effects.lock_rank own with
            | None -> []
            | Some own_rank ->
                List.concat_map
                  (fun (fn : Facts.fn) ->
                    if
                      List.exists
                        (fun (p, _) -> p = "Mutex.lock")
                        fn.Facts.prim_conc
                    then
                      List.filter_map
                        (fun path ->
                          match Effects.find table f path with
                          | Some i -> (
                              let outer =
                                List.find_opt
                                  (fun c ->
                                    match Effects.lock_rank c with
                                    | Some r -> r < own_rank
                                    | None -> false)
                                  i.Effects.i_summary.Effects.e_locks
                              in
                              match outer with
                              | Some c ->
                                  Some
                                    (diag f.Facts.rel fn.Facts.fn_line "S8"
                                       (Printf.sprintf
                                          "lock-order violation: %s acquires \
                                           the %s lock and may call %s, \
                                           which acquires the %s lock; the \
                                           declared order is %s"
                                          fn.Facts.fn_name own (pretty path)
                                          c
                                          (String.concat " before "
                                             Effects.lock_order)))
                              | None -> None)
                          | None -> None)
                        fn.Facts.calls
                    else [])
                  f.Facts.fns))
    facts_list

let check table facts_list =
  List.sort_uniq compare
    (s6 table facts_list @ s7 table facts_list @ s8 table facts_list)
  |> List.sort Diag.compare
