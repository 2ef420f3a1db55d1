type t = { id : string; summary : string }

(* Report order: the per-file rules first, then the cross-module ones.
   SARIF [ruleIndex] values index into this list, so the order is part of
   the golden-tested output format. *)
let all =
  [
    {
      id = "D1";
      summary =
        "Nondeterminism source in lib/: stdlib Random, wall-clock reads, \
         Hashtbl.hash-family, Hashtbl.create without ~random:false, or a \
         lib/ dune file linking unix.";
    };
    {
      id = "D2";
      summary =
        "stdlib Random outside Mppm_util.Rng: all randomness must flow from \
         integer seeds through Mppm_util.Rng.";
    };
    {
      id = "F1";
      summary =
        "Float equality via polymorphic =/==/<>/!=/compare applied to a \
         float constant; use Float.equal or an explicit tolerance.";
    };
    {
      id = "M1";
      summary =
        "Public lib/ module without an .mli, or an .mli item without a doc \
         comment.";
    };
    {
      id = "E1";
      summary =
        "failwith/invalid_arg message without the defining module's name as \
         prefix.";
    };
    {
      id = "O1";
      summary =
        "Console output from lib/: return data, render via a caller-supplied \
         formatter, or collect events in an Mppm_obs trace.";
    };
    {
      id = "S1";
      summary =
        "Effect containment: a lib/ function transitively reaches file or \
         channel I/O outside the allowlisted profile-cache / trace-file / \
         experiment-context modules.";
    };
    {
      id = "S2";
      summary =
        "Seed flow: an Mppm_util.Rng state created from a baked-in literal \
         seed, or one Rng stream feeding both the data (next) and fetch \
         (next_fetch) draw sites.";
    };
    {
      id = "S3";
      summary =
        "Order-sensitive float accumulation over unordered Hashtbl \
         iteration: the sum depends on hash-bucket order.";
    };
    {
      id = "S4";
      summary =
        "Dead export: a lib/ .mli value referenced by no other compilation \
         unit.";
    };
    {
      id = "S5";
      summary =
        "Concurrency containment: a lib/ function transitively reaches the \
         Domain/Mutex/Condition/Atomic surface outside lib/pool/.";
    };
    {
      id = "S6";
      summary =
        "Pool-task purity: a closure reaching Pool.map/map_reduce or a \
         Single_flight memo writes captured or module-level mutable state, \
         or shares a captured value with a callee that mutates it.";
    };
    {
      id = "S7";
      summary =
        "Module-level mutable state in lib/ (ref/Hashtbl.create at \
         toplevel, a write to one, or handing one to a mutating callee) \
         outside the sanctioned pool/registry/invariant units.";
    };
    {
      id = "S8";
      summary =
        "Lock order: lib/pool/ and the obs registry must acquire their \
         mutexes in the declared order (pool before registry).";
    };
    {
      id = "P1";
      summary =
        "Heap allocation on a hot path: closure capture, \
         tuple/record/array/list construction, or an allocating stdlib \
         call (Array.append, List.map, Printf/Format, ...) reachable \
         from a (* mppm: hot *) root.";
    };
    {
      id = "P2";
      summary =
        "Polymorphic =/<>/compare/Hashtbl.hash reaching a hot path; use \
         monomorphic Int.equal/Float.equal.";
    };
    {
      id = "P3";
      summary =
        "Hashtbl traffic (create/add/find/iter/...) on a hot path: the \
         per-quantum loop must index arrays, not hash.";
    };
    {
      id = "P4";
      summary =
        "Boxed-float ref accumulation in a hot loop; accumulate through \
         a float array cell (a float accumulator argument or return value \
         is boxed at every call).";
    };
    {
      id = "U1";
      summary =
        "Mixed-unit arithmetic or comparison: adding, subtracting, \
         min/max-ing or comparing two quantities whose (* mppm: unit *) \
         dimensions disagree (cycles vs insns, ...).";
    };
    {
      id = "U2";
      summary =
        "Cumulative/per-interval confusion: adding two cumulative \
         counters, or passing/storing a cumulative value where a \
         per-interval one is declared — only subtracting two cumulative \
         readings discharges the flavor.";
    };
    {
      id = "U3";
      summary =
        "Inverted or unit-unsound ratio: cycles/insns mixed with \
         insns/cycles (CPI vs IPC), or an interval index used as an \
         access/cycle/instruction count.";
    };
  ]

let all_ids = List.map (fun r -> r.id) all

let find id = List.find_opt (fun r -> r.id = id) all
