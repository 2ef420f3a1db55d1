(* S2: seed-flow discipline for Mppm_util.Rng states.

   Two checks, both per compilation unit:

   - Stream separation.  The workload generator keeps distinct RNG
     streams for data references ([next]) and instruction fetches
     ([next_fetch]) so the data stream is invariant to fetch blocking.
     For every unit defining both members of a stream pair, the set of
     record fields whose [Rng.t] reaches a draw inside [next] (closed
     over same-unit helper calls) must be disjoint from the set reached
     by [next_fetch].

   - Seed provenance.  An [Rng.create] whose [~seed] argument mentions
     no identifier is a baked-in constant: the stream no longer flows
     from the caller's integer seed, breaking reproducibility plumbing. *)

module Diag = Mppm_lint.Diag

let stream_pairs = [ ("next", "next_fetch") ]

let in_lib rel = String.length rel >= 4 && String.sub rel 0 4 = "lib/"

(* Transitive rng-field sets per top-level function of one unit, closed
   over unqualified same-unit calls to a fixpoint. *)
let field_sets (facts : Facts.t) =
  let tbl : (string, string list) Hashtbl.t =
    Hashtbl.create ~random:false 16
  in
  List.iter
    (fun (fn : Facts.fn) ->
      Hashtbl.replace tbl fn.Facts.fn_name fn.Facts.rng_fields)
    facts.Facts.fns;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (fn : Facts.fn) ->
        let current =
          Option.value ~default:[] (Hashtbl.find_opt tbl fn.Facts.fn_name)
        in
        let extra =
          List.concat_map
            (fun path ->
              match path with
              | [ callee ] ->
                  Option.value ~default:[] (Hashtbl.find_opt tbl callee)
              | _ -> [])
            fn.Facts.calls
        in
        let merged =
          List.fold_left
            (fun acc f -> if List.mem f acc then acc else f :: acc)
            current extra
        in
        if List.length merged <> List.length current then begin
          Hashtbl.replace tbl fn.Facts.fn_name merged;
          changed := true
        end)
      facts.Facts.fns
  done;
  tbl

let fn_line (facts : Facts.t) name =
  List.find_map
    (fun (fn : Facts.fn) ->
      if fn.Facts.fn_name = name then Some fn.Facts.fn_line else None)
    facts.Facts.fns

let check_unit (facts : Facts.t) =
  if facts.Facts.is_mli || not (in_lib facts.Facts.rel) then []
  else begin
    let sets = field_sets facts in
    let pair_diags =
      List.concat_map
        (fun (a, b) ->
          match (Hashtbl.find_opt sets a, Hashtbl.find_opt sets b) with
          | Some sa, Some sb ->
              let shared = List.filter (fun f -> List.mem f sb) sa in
              List.map
                (fun field ->
                  {
                    Diag.file = facts.Facts.rel;
                    line =
                      Option.value ~default:1 (fn_line facts b);
                    rule = "S2";
                    severity = Diag.Error;
                    message =
                      Printf.sprintf
                        "Rng state %S feeds both %s and %s; data and fetch \
                         streams must draw from separate Rng.t values"
                        field a b;
                  })
                shared
          | _ -> [])
        stream_pairs
    in
    let seed_diags =
      List.map
        (fun (rc : Facts.rng_create) ->
          {
            Diag.file = facts.Facts.rel;
            line = rc.Facts.rc_line;
            rule = "S2";
            severity = Diag.Error;
            message =
              "Rng.create with a constant seed; every Rng state in lib/ \
               must originate from a caller-provided seed argument";
          })
        (List.filter
           (fun (rc : Facts.rng_create) -> rc.Facts.rc_constant_seed)
           facts.Facts.rng_creates)
    in
    pair_diags @ seed_diags
  end

let check facts_list =
  List.concat_map check_unit facts_list |> List.sort Diag.compare
