(* Interprocedural hotness propagation and the hot-path perf rules
   (P1-P4).

   A [(* mppm: hot *)] annotation on a toplevel binding marks a hotness
   root.  Hotness propagates transitively over the cross-module
   value-reference graph: from a root with a while/for loop along its
   [loop_calls] (the annotated region is the loop), from a loop-free root
   or a transitively-hot function along its [warm_calls] (the whole body
   minus cold guards).  Every perf site recorded by {!Facts.extract} on a
   reachable function becomes a finding, labeled with the shortest call
   chain back to a root.  Suppression is left to the driver so one
   [(* lint: allow P1 <why> *)] comment behaves exactly like every other
   rule's. *)

module Diag = Mppm_lint.Diag

type node = {
  n_rel : string;
  n_unit : string;  (* unit key, e.g. "lib/cache/sdc" *)
  n_fn : Facts.fn;
  n_facts : Facts.t;  (* for alias/open-aware path resolution *)
}

type entry = {
  h_key : string;  (* unit_key ^ ":" ^ fn_name *)
  h_rel : string;
  h_label : string;  (* "Sdc.add_into" *)
  h_line : int;
  h_root : bool;
  h_chain : string list;  (* labels, root first, this fn last *)
  h_sites : (Facts.perf_site * bool) list;  (* (site, allow-suppressed) *)
}

let node_key unit_key fn_name = unit_key ^ ":" ^ fn_name

let label unit_key fn_name =
  String.capitalize_ascii (Filename.basename unit_key) ^ "." ^ fn_name

let in_lib rel = String.length rel >= 4 && String.sub rel 0 4 = "lib/"

(* Pure reachability core, exposed for the law tests: the hot set is
   exactly the set of nodes reachable from [roots] over [edges]. *)
let closure ~roots ~edges =
  let adj : (string, string list) Hashtbl.t =
    Hashtbl.create ~random:false 64
  in
  List.iter
    (fun (src, dsts) ->
      let prev =
        match Hashtbl.find_opt adj src with Some l -> l | None -> []
      in
      Hashtbl.replace adj src (dsts @ prev))
    edges;
  let hot : (string, unit) Hashtbl.t = Hashtbl.create ~random:false 64 in
  let rec visit k =
    if not (Hashtbl.mem hot k) then begin
      Hashtbl.add hot k ();
      List.iter visit
        (match Hashtbl.find_opt adj k with Some l -> l | None -> [])
    end
  in
  List.iter visit roots;
  Hashtbl.fold (fun k () acc -> k :: acc) hot [] |> List.sort compare

let allowed (f : Facts.t) rule line =
  List.mem rule f.Facts.allow_files
  || List.exists
       (fun (r, l) -> r = rule && (l = line || l = line - 1))
       f.Facts.allows

(* The hot region of a node: an annotated root with a loop is hot in its
   loops only; everything else (loop-free roots, transitively-hot fns)
   is hot over the whole cold-guard-stripped body. *)
let region_calls n =
  if n.n_fn.Facts.fn_hot && n.n_fn.Facts.fn_has_loop then
    n.n_fn.Facts.loop_calls
  else n.n_fn.Facts.warm_calls

let region_sites n =
  if n.n_fn.Facts.fn_hot && n.n_fn.Facts.fn_has_loop then
    n.n_fn.Facts.loop_sites
  else n.n_fn.Facts.warm_sites

let analyze env facts_list =
  let nodes : (string, node) Hashtbl.t = Hashtbl.create ~random:false 512 in
  List.iter
    (fun (f : Facts.t) ->
      if not f.Facts.is_mli then begin
        let unit_key = Facts.unit_key_of_rel f.Facts.rel in
        List.iter
          (fun (fn : Facts.fn) ->
            Hashtbl.replace nodes
              (node_key unit_key fn.Facts.fn_name)
              { n_rel = f.Facts.rel; n_unit = unit_key; n_fn = fn; n_facts = f })
          f.Facts.fns
      end)
    facts_list;
  let callee_key (f : Facts.t) path =
    match path with
    | [ name ] ->
        let k = node_key (Facts.unit_key_of_rel f.Facts.rel) name in
        if Hashtbl.mem nodes k then Some k else None
    | _ -> (
        match Resolve.resolve env f path with
        | Some (callee_unit, member) ->
            let k = node_key callee_unit member in
            if Hashtbl.mem nodes k then Some k else None
        | None -> None)
  in
  let succs n =
    List.filter_map (callee_key n.n_facts) (region_calls n)
    |> List.sort_uniq compare
  in
  (* BFS from all roots at once: [parent] doubles as the visited set and
     yields a shortest call chain per reached node.  Roots are seeded in
     sorted order so ties break deterministically. *)
  let roots =
    Hashtbl.fold
      (fun k n acc -> if n.n_fn.Facts.fn_hot then k :: acc else acc)
      nodes []
    |> List.sort compare
  in
  let parent : (string, string option) Hashtbl.t =
    Hashtbl.create ~random:false 256
  in
  let q = Queue.create () in
  List.iter
    (fun r ->
      if not (Hashtbl.mem parent r) then begin
        Hashtbl.replace parent r None;
        Queue.add r q
      end)
    roots;
  while not (Queue.is_empty q) do
    let k = Queue.pop q in
    List.iter
      (fun s ->
        if not (Hashtbl.mem parent s) then begin
          Hashtbl.replace parent s (Some k);
          Queue.add s q
        end)
      (succs (Hashtbl.find nodes k))
  done;
  let rec chain k acc =
    let n = Hashtbl.find nodes k in
    let lbl = label n.n_unit n.n_fn.Facts.fn_name in
    match Hashtbl.find parent k with
    | None -> lbl :: acc
    | Some p -> chain p (lbl :: acc)
  in
  let entries =
    Hashtbl.fold
      (fun k n acc -> if Hashtbl.mem parent k then (k, n) :: acc else acc)
      nodes []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (k, n) ->
           {
             h_key = k;
             h_rel = n.n_rel;
             h_label = label n.n_unit n.n_fn.Facts.fn_name;
             h_line = n.n_fn.Facts.fn_line;
             h_root = n.n_fn.Facts.fn_hot;
             h_chain = chain k [];
             h_sites =
               List.map
                 (fun (s : Facts.perf_site) ->
                   (s, allowed n.n_facts s.Facts.ps_rule s.Facts.ps_line))
                 (region_sites n);
           })
  in
  (* Rank: open (unsuppressed) site count descending, then shortest
     chain, then key — the flat-rewrite work-list order. *)
  let open_sites e =
    List.length (List.filter (fun (_, allowed) -> not allowed) e.h_sites)
  in
  List.sort
    (fun a b ->
      match compare (open_sites b) (open_sites a) with
      | 0 -> (
          match
            compare (List.length a.h_chain) (List.length b.h_chain)
          with
          | 0 -> compare a.h_key b.h_key
          | c -> c)
      | c -> c)
    entries

let hint = function
  | "P1" ->
      "hot regions must stay allocation-free — hoist or preallocate, or \
       allow with a rationale"
  | "P2" -> "use monomorphic Int.equal/Float.equal on hot paths"
  | "P3" ->
      "hashtable traffic is banned on the hot path — use an array keyed \
       by a dense index"
  | "P4" ->
      "accumulate through a float array cell; a float accumulator \
       argument or return value is boxed at every call"
  | _ -> ""

let check env facts_list =
  analyze env facts_list
  |> List.concat_map (fun e ->
         let via =
           match e.h_chain with
           | [ _ ] -> "hot root"
           | chain -> "hot via " ^ String.concat " -> " chain
         in
         List.map
           (fun ((s : Facts.perf_site), _) ->
             {
               Diag.file = e.h_rel;
               line = s.Facts.ps_line;
               rule = s.Facts.ps_rule;
               severity =
                 (if in_lib e.h_rel then Diag.Error else Diag.Warning);
               message =
                 Printf.sprintf "%s on the hot path (%s); %s"
                   s.Facts.ps_what via (hint s.Facts.ps_rule);
             })
           e.h_sites)
