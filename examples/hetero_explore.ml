(* lint: allow-file O1 example programs print their results to stdout by design *)
(* Heterogeneous multi-core exploration — one of the paper's Sec. 8 future
   directions.  A "little" core is modelled by dilating the non-memory part
   of a program's profiled CPI (memory stall cycles are hierarchy-bound and
   stay); MPPM then resolves the shared-LLC entanglement between big and
   little cores exactly as in the homogeneous case, because the model only
   sees per-program profiles.  The detailed simulator supports the same
   heterogeneity (per-core compute scaling), so the winning placement is
   verified at the end.

   The experiment: for each big/little assignment of a 4-program mix, which
   placement maximizes STP?

   Run with:  dune exec examples/hetero_explore.exe *)

module Profile = Mppm_profile.Profile
module Model = Mppm_core.Model
open Mppm_experiments

(* Dilate the compute portion of each interval's cycles: a core with half
   the issue width roughly doubles base CPI while memory time is
   unchanged. *)
let on_little_core ~slowdown (p : Profile.t) =
  let intervals =
    Array.map
      (fun iv ->
        let compute = iv.Profile.cycles -. iv.Profile.memory_stall_cycles in
        {
          iv with
          Profile.cycles =
            (compute *. slowdown) +. iv.Profile.memory_stall_cycles;
        })
      (Profile.intervals p)
  in
  Profile.make ~benchmark:p.Profile.benchmark
    ~interval_instructions:p.Profile.interval_instructions
    ~llc_assoc:p.Profile.llc_assoc intervals

let mix_names = [| "gamess"; "mcf"; "hmmer"; "libquantum" |]
let little_slowdown = 2.0
let little_cores = 2

let rec choose k lo n =
  if k = 0 then [ [] ]
  else
    List.concat_map
      (fun i -> List.map (fun rest -> i :: rest) (choose (k - 1) (i + 1) n))
    @@ List.init (n - lo) (fun d -> lo + d)

let () =
  let ctx = Context.create ~cache_dir:"_profile_cache" Scale.default in
  (* Profiles in mix_names order (deliberately not via Mix.t, which sorts):
     placement indices must line up with the verification run's per-slot
     compute scales. *)
  let base_profiles =
    Array.map
      (fun name ->
        Context.profile ctx ~llc_config:1 (Mppm_trace.Suite.index name))
      mix_names
  in
  let params = Context.model_params ctx in
  let n = Array.length base_profiles in
  Printf.printf
    "placing %d programs on %d big + %d little cores (little = %.1fx compute \
     slowdown)\n\n%!"
    n (n - little_cores) little_cores little_slowdown;
  let big_cpi = Array.map Profile.cpi base_profiles in
  (* Rank placements by throughput in big-core equivalents: each program's
     predicted multi-core CPI (little-core baseline included) against its
     big-core isolated CPI — the machine-level question a placement study
     asks.  (result.stp would instead measure contention relative to each
     program's own core.) *)
  let hetero_stp (result : Model.result) =
    Array.to_list result.Model.programs
    |> List.mapi (fun i p -> big_cpi.(i) /. p.Model.cpi_multi)
    |> List.fold_left ( +. ) 0.0
  in
  let assignments = choose little_cores 0 n in
  let scored =
    List.map
      (fun little ->
        let inputs =
          Array.mapi
            (fun i p ->
              let is_little = List.mem i little in
              {
                Model.label =
                  Printf.sprintf "%s@%s" p.Profile.benchmark
                    (if is_little then "little" else "big");
                profile =
                  (if is_little then
                     on_little_core ~slowdown:little_slowdown p
                   else p);
              })
            base_profiles
        in
        let result = Model.predict params inputs in
        (little, result, hetero_stp result))
      assignments
  in
  let scored =
    List.sort (fun (_, _, a) (_, _, b) -> compare b a) scored
  in
  List.iteri
    (fun rank (little, result, stp) ->
      let names =
        List.map (fun i -> base_profiles.(i).Profile.benchmark) little
      in
      Printf.printf
        "%d. little = {%s}  STP %.3f (big-core equivalents)  contention ANTT          %.3f\n"
        (rank + 1)
        (String.concat ", " names)
        stp result.Model.antt)
    scored;
  (* Verify the MPPM ranking's extremes with heterogeneous detailed
     simulation. *)
  let scale = Context.scale ctx in
  let verify little =
    let offsets =
      Mppm_multicore.Multi_core.default_offsets (Array.length mix_names)
    in
    let specs =
      Array.mapi
        (fun i name ->
          {
            Mppm_multicore.Multi_core.benchmark = Mppm_trace.Suite.find name;
            seed = Mppm_trace.Suite.seed_for name;
            offset = offsets.(i);
          })
        mix_names
    in
    let compute_scales =
      Array.init (Array.length mix_names) (fun i ->
          if List.mem i little then little_slowdown else 1.0)
    in
    let detail =
      Mppm_multicore.Multi_core.run ~compute_scales
        (Mppm_multicore.Multi_core.config (Context.hierarchy ctx ~llc_config:1))
        ~programs:specs
        ~trace_instructions:scale.Scale.trace_instructions
    in
    (* STP against the *big-core* isolated CPI: the placement question is
       how much total progress the heterogeneous machine retains. *)
    let cpi_single = Array.map Profile.cpi base_profiles in
    let cpi_multi =
      Array.map
        (fun p -> p.Mppm_multicore.Multi_core.multicore_cpi)
        detail.Mppm_multicore.Multi_core.programs
    in
    Mppm_core.Metrics.stp ~cpi_single ~cpi_multi
  in
  match (scored, List.rev scored) with
  | (best, _, best_stp) :: _, (worst, _, worst_stp) :: _ ->
      let names little =
        String.concat ", "
          (List.map (fun i -> base_profiles.(i).Profile.benchmark) little)
      in
      Printf.printf
        "\nbest placement puts {%s} on the little cores: programs whose CPI\n\
         is dominated by stalls a slower core does not lengthen.\n"
        (names best);
      Printf.printf "\nverifying with heterogeneous detailed simulation:\n%!";
      Printf.printf "  best  {%s}: predicted STP %.3f, measured %.3f\n%!"
        (names best) best_stp (verify best);
      Printf.printf "  worst {%s}: predicted STP %.3f, measured %.3f\n%!"
        (names worst) worst_stp (verify worst)
  | _ -> ()
