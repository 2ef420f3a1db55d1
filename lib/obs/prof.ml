(* Injected-clock profiler: scoped wall-time spans plus the pool's
   per-task metrics, all behind an option so the null profiler costs one
   branch and profiled runs stay bit-for-bit identical to unprofiled
   ones.

   The clock is caller-supplied (bench/tools/bin inject a monotonic
   wall-clock; tests inject counters), so lib/ never reads wall-clock
   and lint rule D1 holds by construction.  A profiler is NOT
   thread-safe on its own: recording must be serialized by the caller —
   the pool records under its own mutex, and span scopes run on the
   orchestrating domain only. *)

type clock = unit -> float

(* Duration histograms: geometric buckets from 1 microsecond up, wide
   enough for any span a bench run can produce. *)
let duration_bounds () =
  Histogram.create_exponential ~first:1e-6 ~ratio:2.0 ~buckets:48

type span = { sp_name : string; sp_start : float; sp_dur : float }

type task = {
  tk_domain : int;
  tk_start : float;
  tk_wait : float;
  tk_dur : float;
}

type domain_stat = { d_domain : int; d_tasks : float; d_busy : float }

type pool_stats = {
  p_jobs : int;
  p_tasks : float;
  p_domains : domain_stat list;
  p_elapsed : float;
  p_utilization : float;
  p_wait_p50 : float;
  p_wait_p99 : float;
  p_dur_p50 : float;
  p_dur_p90 : float;
  p_dur_p99 : float;
}

type domain_agg = { mutable da_tasks : float; mutable da_busy : float }

type active = {
  a_clock : clock;
  mutable a_span_log : span list;  (* reverse emission order *)
  mutable a_jobs : int;
  a_domains : (int, domain_agg) Hashtbl.t;
  mutable a_task_log : task list;  (* reverse emission order *)
  mutable a_task_count : float;
  mutable a_first_start : float;
  mutable a_last_end : float;
  a_wait_hist : Histogram.t;
  a_dur_hist : Histogram.t;
}

type t = active option

let null = None

let make ~clock =
  Some
    {
      a_clock = clock;
      a_span_log = [];
      a_jobs = 0;
      a_domains = Hashtbl.create ~random:false 16;
      a_task_log = [];
      a_task_count = 0.0;
      a_first_start = infinity;
      a_last_end = neg_infinity;
      a_wait_hist = duration_bounds ();
      a_dur_hist = duration_bounds ();
    }

let enabled t = Option.is_some t

let clock t = Option.map (fun a -> a.a_clock) t

(* ---- scoped spans ---------------------------------------------------- *)

let time t name f =
  match t with
  | None -> f ()
  | Some a ->
      let t0 = a.a_clock () in
      Fun.protect
        ~finally:(fun () ->
          let dur = Float.max 0.0 (a.a_clock () -. t0) in
          a.a_span_log <-
            { sp_name = name; sp_start = t0; sp_dur = dur } :: a.a_span_log)
        f

let spans t =
  match t with None -> [] | Some a -> List.rev a.a_span_log

(* ---- pool task metrics ------------------------------------------------ *)

let note_jobs t jobs =
  match t with
  | None -> ()
  | Some a -> if jobs > a.a_jobs then a.a_jobs <- jobs

let task t ~domain ~start ~wait ~dur =
  match t with
  | None -> ()
  | Some a ->
      let wait = Float.max 0.0 wait and dur = Float.max 0.0 dur in
      let agg =
        match Hashtbl.find_opt a.a_domains domain with
        | Some agg -> agg
        | None ->
            let agg = { da_tasks = 0.0; da_busy = 0.0 } in
            Hashtbl.add a.a_domains domain agg;
            agg
      in
      agg.da_tasks <- agg.da_tasks +. 1.0;
      agg.da_busy <- agg.da_busy +. dur;
      a.a_task_count <- a.a_task_count +. 1.0;
      if start < a.a_first_start then a.a_first_start <- start;
      if start +. dur > a.a_last_end then a.a_last_end <- start +. dur;
      Histogram.observe a.a_wait_hist wait;
      Histogram.observe a.a_dur_hist dur;
      a.a_task_log <-
        { tk_domain = domain; tk_start = start; tk_wait = wait; tk_dur = dur }
        :: a.a_task_log

let tasks t =
  match t with None -> [] | Some a -> List.rev a.a_task_log

let pool_stats t =
  match t with
  | None -> None
  | Some a when a.a_task_count <= 0.0 -> None
  | Some a ->
      let domains =
        Hashtbl.fold
          (fun d agg acc ->
            { d_domain = d; d_tasks = agg.da_tasks; d_busy = agg.da_busy }
            :: acc)
          a.a_domains []
        |> List.sort (fun x y -> compare x.d_domain y.d_domain)
      in
      let busy = List.fold_left (fun acc d -> acc +. d.d_busy) 0.0 domains in
      let elapsed = Float.max 0.0 (a.a_last_end -. a.a_first_start) in
      let jobs = max a.a_jobs (List.length domains) in
      let utilization =
        if elapsed > 0.0 && jobs > 0 then
          busy /. (elapsed *. float_of_int jobs)
        else 0.0
      in
      Some
        {
          p_jobs = jobs;
          p_tasks = a.a_task_count;
          p_domains = domains;
          p_elapsed = elapsed;
          p_utilization = utilization;
          p_wait_p50 = Histogram.quantile a.a_wait_hist 0.50;
          p_wait_p99 = Histogram.quantile a.a_wait_hist 0.99;
          p_dur_p50 = Histogram.quantile a.a_dur_hist 0.50;
          p_dur_p90 = Histogram.quantile a.a_dur_hist 0.90;
          p_dur_p99 = Histogram.quantile a.a_dur_hist 0.99;
        }

let pp_pool ppf t =
  match pool_stats t with
  | None -> Format.fprintf ppf "pool: no tasks recorded"
  | Some s ->
      Format.fprintf ppf
        "@[<v>pool: %.0f tasks over %d domains in %.2fs  (utilization \
         %.0f%%)@,\
         task wall-time p50 %.4fs  p90 %.4fs  p99 %.4fs   queue-wait p50 \
         %.4fs  p99 %.4fs"
        s.p_tasks s.p_jobs s.p_elapsed
        (100.0 *. s.p_utilization)
        s.p_dur_p50 s.p_dur_p90 s.p_dur_p99 s.p_wait_p50 s.p_wait_p99;
      List.iter
        (fun d ->
          Format.fprintf ppf "@,  domain %d: %4.0f tasks, %.2fs busy"
            d.d_domain d.d_tasks d.d_busy)
        s.p_domains;
      Format.fprintf ppf "@]"
