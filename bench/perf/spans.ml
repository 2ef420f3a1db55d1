(* Wall-clock spans the benchmark records around its own calls into each
   layer (traced runs only).  Spans stay in memory and are written once,
   at exit, as a Chrome trace through Mppm_obs.Render.

   Pool tasks cannot write here (they must stay pure, lint rule S6): each
   task returns its own start/stop times and the submitting domain adds
   them with [add] after the map completes. *)

type span = {
  id : int;
  parent : int;  (* 0 = a root span *)
  name : string;
  key : int;  (* the mix, request or profile the span belongs to; -1 = none *)
  lane : int;  (* timeline row: 0 = the main domain, d = pool domain d *)
  start : float;
  stop : float;
}

type t = { on : bool; mutable next_id : int; mutable spans : span list }

let create ~on = { on; next_id = 1; spans = [] }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let push t s = if t.on then t.spans <- s :: t.spans

let add t ?(parent = 0) ?(key = -1) ?(lane = 0) name ~start ~stop =
  if not t.on then 0
  else begin
    let id = fresh_id t in
    push t { id; parent; name; key; lane; start; stop };
    id
  end

(* [within t name f] times [f id] as a span; spans [f] records with
   [~parent:id] become its children.  With tracing off, [id] is 0 and
   nothing is kept. *)
let within t ?(parent = 0) ?(key = -1) name f =
  if not t.on then f 0
  else begin
    let id = fresh_id t in
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        push t
          { id; parent; name; key; lane = 0; start; stop = Unix.gettimeofday () })
      (fun () -> f id)
  end

let all t = List.rev t.spans

(* Self time: a span's duration minus the part of it its children cover
   (children on other lanes may overlap each other; their union counts
   once). *)
let self_time t (s : span) =
  let children =
    List.filter_map
      (fun c ->
        if c.parent = s.id then
          Some (Float.max c.start s.start, Float.min c.stop s.stop)
        else None)
      t.spans
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0.0, neg_infinity) children
  in
  Float.max 0.0 (s.stop -. s.start -. covered)

let write_chrome t path =
  let spans = all t in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let us x = (x -. t0) *. 1e6 in
  let module Event = Mppm_obs.Event in
  let events =
    List.map
      (fun s ->
        Event.make ~name:s.name ~time:(us s.start)
          ~dur:(Float.max 0.0 ((s.stop -. s.start) *. 1e6))
          [
            ("id", Event.Int s.id);
            ("parent", Event.Int s.parent);
            ("key", Event.Int s.key);
            ("lane", Event.Int s.lane);
            ("self_us", Event.Float (self_time t s *. 1e6));
          ])
      spans
  in
  let lane ev = Option.value (Event.int_field ev "lane") ~default:0 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (Mppm_obs.Render.to_string (Mppm_obs.Render.chrome ~lane ()) events))
