(* Wall-clock spans around the benchmark's own calls into the library,
   kept in memory in an [Obs.Trace] whose clock reads wall time in
   milliseconds since the recorder was created (the Chrome exporter
   renders one clock unit as 1 ms).  Each span carries its parent's
   span id in its ["parent"] argument, so self time (a span minus the
   time its child spans cover) is computed from the events alone. *)

type t = { tr : Obs.Trace.t; mutable stack : int list }

let now = Unix.gettimeofday

let create () =
  let tr = Obs.Trace.create ~capacity:(1 lsl 18) () in
  let t0 = now () in
  Obs.Trace.set_clock tr (fun () -> (now () -. t0) *. 1e3);
  { tr; stack = [] }

let trace t = t.tr

let with_ t name f =
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  let sp =
    Obs.Trace.begin_span t.tr ~cat:"bench" ~name
      ~args:[ ("parent", Obs.Trace.Int parent) ]
      ()
  in
  t.stack <- Obs.Trace.span_id sp :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      t.stack <- List.tl t.stack;
      Obs.Trace.end_span t.tr sp ())
    f

type total = { calls : int; total_ms : float; self_ms : float }

(* Per span name: number of spans, summed duration and summed self
   time.  Fails loudly if the ring wrapped, because a lost begin event
   would silently undercount. *)
let totals t : (string * total) list =
  if Obs.Trace.overwritten t.tr > 0 then
    failwith "span ring overflowed: raise its capacity";
  let spans = Hashtbl.create 1024 in
  let child_ms = Hashtbl.create 1024 in
  let order = ref [] in
  Obs.Trace.iter t.tr (fun e ->
      match e.Obs.Trace.ph with
      | Obs.Trace.B ->
          let parent =
            match List.assoc_opt "parent" e.Obs.Trace.args with
            | Some (Obs.Trace.Int p) -> p
            | _ -> 0
          in
          Hashtbl.replace spans e.Obs.Trace.id
            (e.Obs.Trace.name, e.Obs.Trace.ts, parent)
      | Obs.Trace.E ->
          let name, start, parent = Hashtbl.find spans e.Obs.Trace.id in
          let dur = e.Obs.Trace.ts -. start in
          let prev =
            Option.value ~default:0.0 (Hashtbl.find_opt child_ms parent)
          in
          Hashtbl.replace child_ms parent (prev +. dur);
          order := (e.Obs.Trace.id, name, dur) :: !order
      | Obs.Trace.I | Obs.Trace.C -> ());
  let by_name = Hashtbl.create 16 in
  let names = ref [] in
  List.iter
    (fun (id, name, dur) ->
      let self =
        dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_ms id)
      in
      match Hashtbl.find_opt by_name name with
      | None ->
          names := name :: !names;
          Hashtbl.replace by_name name
            { calls = 1; total_ms = dur; self_ms = self }
      | Some a ->
          Hashtbl.replace by_name name
            {
              calls = a.calls + 1;
              total_ms = a.total_ms +. dur;
              self_ms = a.self_ms +. self;
            })
    (List.rev !order);
  List.rev_map (fun n -> (n, Hashtbl.find by_name n)) !names

let find totals name =
  Option.value ~default:{ calls = 0; total_ms = 0.0; self_ms = 0.0 }
    (List.assoc_opt name totals)
