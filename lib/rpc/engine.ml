(** The shared replication RPC engine — see the interface for the
    contract.  The hot path (default policy) is deliberately identical
    to the historical hand-rolled clients: one pending-table insert,
    one deadline timer armed at [start_op], one send wave in target
    order, one "reply" instant per dispatched reply.  Retry, backoff
    and hedge timers only ever get scheduled when the policy asks for
    them, so enabling the engine does not move a single PRNG draw or
    heap entry in existing seeded runs. *)

module Core = Sim.Core
module Net = Sim.Net
module Prng = Qc_util.Prng

type verdict = Continue | Done

(** Multi-key batching: how to wrap several outgoing requests for one
    destination into a single wire message, and how to recognise and
    split an incoming batch reply.  The window is the coalescing
    delay: the first enqueued send arms a flush timer, and everything
    queued for the same destination before it fires travels in one
    frame. *)
type 'msg batching = {
  window : float;
  wrap : rid:int -> 'msg list -> 'msg;
  unwrap : 'msg -> 'msg list option;
}

type op = {
  mutable o_live : bool;
  o_started : float;
  mutable o_calls : packed_call list;
  o_ctx : Obs.Ctx.t option;
      (** causal trace context: when present, the engine stamps the
          op's attempt spans, reply/hedge instants and batch-queue
          spans with the originating operation — and carries nothing
          (and emits nothing extra) when absent, keeping default
          traces byte-identical *)
}

and packed_call = Call : 'msg call -> packed_call

and 'msg call = {
  rid : int;
  stamp : int;  (** unique per call — distinguishes a closing call
                    from a successor that reused its rid *)
  c_op : op;
  targets : string array;
  heard : bool array;  (** per-target: a reply arrived (skip on resend) *)
  mutable sent_upto : int;  (** targets.[0 .. sent_upto-1] have been sent *)
  mutable attempt : int;  (** 1-based *)
  mutable closed : bool;
  make : int -> 'msg;
  on_reply : src:string -> 'msg -> verdict;
  on_exhausted : unit -> unit;
  mutable span : Obs.Trace.span option;  (** current attempt span *)
  pol : Policy.t;  (** policy captured at call start *)
}

type 'msg t = {
  name : string;
  sim : Core.t;
  net : 'msg Net.t;
  rid_of : 'msg -> int;
  mutable policy : Policy.t;
  cat : string;
  rng : Prng.t;
      (** jitter only — never the simulator's PRNG, so retry schedules
          cannot perturb loss/latency draws elsewhere *)
  mutable next_rid : int;
  mutable next_stamp : int;
  pending : (int, 'msg call) Hashtbl.t;
  metrics : Obs.Metrics.t;
  labels : (string * string) list;
  m_retries : Obs.Metrics.counter;
  m_hedges : Obs.Metrics.counter;
  m_exhausted : Obs.Metrics.counter;
  m_op_timeouts : Obs.Metrics.counter;
  mutable batching : 'msg batching option;
  mutable unbatch : ('msg -> 'msg list option) option;
      (** retained after batching is switched off, so batch replies
          still in flight keep unwrapping *)
  mutable outq : (string * 'msg * Obs.Trace.span option) list;
      (** reversed send queue; the span — present only for sends under
          a trace context — measures the batch-window wait *)
  mutable flush_armed : bool;
  mutable m_batch_size : Obs.Metrics.histogram option;
      (** created lazily on first enable — a never-batching engine
          registers no extra instruments *)
  mutable wctl : Window.t option;
      (** adaptive window controller: when present, its current window
          replaces the static [batching.window] as the flush delay, and
          every flush feeds it the peak per-destination batch size *)
  mutable m_window : Obs.Metrics.gauge option;
      (** [rpc.window] — created lazily with the controller *)
}

let check_policy p =
  match Policy.validate p with
  | Ok () -> ()
  | Error e -> invalid_arg (Fmt.str "Rpc.Engine: invalid policy: %s" e)

let create ~name ~sim ~net ~rid_of ?(policy = Policy.default) ?(cat = "rpc")
    ?(seed = 1) ?metrics ?(extra_labels = []) () =
  check_policy policy;
  let metrics =
    match metrics with Some m -> m | None -> Obs.Metrics.create ()
  in
  let labels = ("client", name) :: extra_labels in
  {
    name;
    sim;
    net;
    rid_of;
    policy;
    cat;
    rng = Prng.create seed;
    next_rid = 0;
    next_stamp = 0;
    pending = Hashtbl.create 16;
    metrics;
    labels;
    m_retries = Obs.Metrics.counter metrics ~labels "rpc.retries";
    m_hedges = Obs.Metrics.counter metrics ~labels "rpc.hedges";
    m_exhausted = Obs.Metrics.counter metrics ~labels "rpc.exhausted";
    m_op_timeouts = Obs.Metrics.counter metrics ~labels "rpc.op_timeouts";
    batching = None;
    unbatch = None;
    outq = [];
    flush_armed = false;
    m_batch_size = None;
    wctl = None;
    m_window = None;
  }

let name t = t.name
let policy t = t.policy

let set_policy t p =
  check_policy p;
  t.policy <- p

let fresh_rid t =
  let rid = t.next_rid in
  t.next_rid <- rid + 1;
  rid

let pending_count t = Hashtbl.length t.pending
let tracer t = Core.tracer t.sim

(* ---------- batching ---------- *)

let flush t =
  t.flush_armed <- false;
  let queued = List.rev t.outq in
  t.outq <- [];
  (* close every batch-queue-wait span at the flush instant, before
     any send — all queued messages leave now *)
  List.iter
    (fun (_, _, sp) ->
      match sp with
      | Some sp -> Obs.Trace.end_span (tracer t) sp ()
      | None -> ())
    queued;
  match t.batching with
  | None ->
      (* batching switched off with sends still queued: let them go
         out unwrapped rather than stranding them, each accounted as a
         single-message frame *)
      List.iter
        (fun (dst, m, _) ->
          (match t.m_batch_size with
          | Some h -> Obs.Metrics.observe h 1.0
          | None -> ());
          Net.send t.net ~src:t.name ~dst m)
        queued
  | Some b ->
      (* group per destination, preserving first-appearance order so
         the flush is deterministic; a flush reaches a handful of
         destinations, so a scan beats a table *)
      let groups =
        List.fold_left
          (fun groups (dst, m, _) ->
            match List.assoc_opt dst groups with
            | Some l ->
                l := m :: !l;
                groups
            | None -> (dst, ref [ m ]) :: groups)
          [] queued
      in
      let peak = ref 0 in
      List.iter
        (fun (dst, l) ->
          let msgs = List.rev !l in
          peak := max !peak (List.length msgs);
          (match t.m_batch_size with
          | Some h -> Obs.Metrics.observe h (float_of_int (List.length msgs))
          | None -> ());
          match msgs with
          | [ m ] -> Net.send t.net ~src:t.name ~dst m
          | ms ->
              let rid = fresh_rid t in
              let tr = tracer t in
              if Obs.Trace.enabled tr then
                Obs.Trace.instant tr ~cat:t.cat ~name:"batch" ~track:t.name
                  ~args:
                    [
                      ("dst", Obs.Trace.Str dst);
                      ("size", Obs.Trace.Int (List.length ms));
                      ("rid", Obs.Trace.Int rid);
                    ]
                  ();
              Net.send t.net ~src:t.name ~dst ~payloads:(List.length ms)
                (b.wrap ~rid ms))
        (List.rev groups);
      (* close the loop: the peak per-destination batch size tells the
         controller whether the window is earning its queue delay *)
      (match t.wctl with
      | Some c when queued <> [] ->
          Window.observe c ~peak:!peak;
          (match t.m_window with
          | Some g -> Obs.Metrics.set g (Window.window c)
          | None -> ())
      | _ -> ())

(* Every outgoing request funnels through here: with batching off it
   is exactly the historical [Net.send]; with batching on the send is
   queued and the first enqueue arms one flush timer per window.  A
   trace context opens a [batchq] span per queued send — the
   batch-window wait the attribution layer charges to the op. *)
let dispatch t ?ctx ~dst msg =
  match t.batching with
  | None -> Net.send t.net ~src:t.name ~dst msg
  | Some b ->
      let sp =
        match ctx with
        | Some cx when Obs.Trace.enabled (tracer t) ->
            Some
              (Obs.Trace.begin_span (tracer t) ~cat:t.cat ~name:"batchq"
                 ~track:t.name
                 ~args:(("dst", Obs.Trace.Str dst) :: Obs.Ctx.args cx)
                 ())
        | _ -> None
      in
      t.outq <- (dst, msg, sp) :: t.outq;
      if not t.flush_armed then begin
        t.flush_armed <- true;
        let window =
          match t.wctl with Some c -> Window.window c | None -> b.window
        in
        Core.schedule t.sim ~delay:window (fun () -> flush t)
      end

let batching t = t.batching

let set_batching t b =
  match b with
  | Some bb ->
      if (not (Float.is_finite bb.window)) || bb.window < 0.0 then
        invalid_arg "Rpc.Engine.set_batching: window must be finite and >= 0";
      t.unbatch <- Some bb.unwrap;
      (match t.m_batch_size with
      | Some _ -> ()
      | None ->
          t.m_batch_size <-
            Some
              (Obs.Metrics.histogram t.metrics ~labels:t.labels
                 ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0 |]
                 "rpc.batch_size"));
      t.batching <- b
  | None ->
      t.batching <- None;
      (* a mid-flight disable must not strand queued sends until the
         already-armed timer fires: flush them now, unwrapped (the
         orphaned timer later finds an empty queue and sends nothing) *)
      if t.outq <> [] then flush t

let set_adaptive_window t w =
  (match w with
  | Some c ->
      (match t.m_window with
      | Some g -> Obs.Metrics.set g (Window.window c)
      | None ->
          let g = Obs.Metrics.gauge t.metrics ~labels:t.labels "rpc.window" in
          Obs.Metrics.set g (Window.window c);
          t.m_window <- Some g)
  | None -> ());
  t.wctl <- w

let adaptive_window t = t.wctl

(* Attempt spans exist to see retries and hedges; a fire-once call
   emits nothing, keeping default-policy traces byte-identical. *)
let instrumented (c : 'msg call) =
  c.pol.Policy.max_attempts > 1 || c.pol.Policy.hedge_delay <> None

(* the op's causal stamp, appended to the engine's own event args —
   empty (and allocation-free) without a context *)
let ctx_args (c : 'msg call) =
  match c.c_op.o_ctx with None -> [] | Some cx -> Obs.Ctx.args cx

let begin_attempt_span t (c : 'msg call) =
  let tr = tracer t in
  if instrumented c && Obs.Trace.enabled tr then
    c.span <-
      Some
        (Obs.Trace.begin_span tr ~cat:t.cat ~name:"attempt" ~track:t.name
           ~args:
             ([ ("rid", Obs.Trace.Int c.rid);
                ("attempt", Obs.Trace.Int c.attempt) ]
             @ ctx_args c)
           ())

let end_attempt_span t (c : 'msg call) ~outcome =
  match c.span with
  | None -> ()
  | Some span ->
      c.span <- None;
      Obs.Trace.end_span (tracer t) span
        ~args:[ ("outcome", Obs.Trace.Str outcome) ]
        ()

let close_call t (c : 'msg call) ~outcome =
  if not c.closed then begin
    c.closed <- true;
    (* remove only our own binding: a caller may reuse the rid for a
       successor call registered before this one closes *)
    (match Hashtbl.find_opt t.pending c.rid with
    | Some c' when c'.stamp = c.stamp -> Hashtbl.remove t.pending c.rid
    | _ -> ());
    end_attempt_span t c ~outcome
  end

(* ---------- operations ---------- *)

let start_op ?ctx t ~timeout ~on_timeout =
  let op =
    { o_live = true; o_started = Core.now t.sim; o_calls = []; o_ctx = ctx }
  in
  Core.schedule t.sim ~delay:timeout (fun () ->
      if op.o_live then begin
        Obs.Metrics.inc t.m_op_timeouts;
        on_timeout ()
      end);
  op

let op_live op = op.o_live
let op_started op = op.o_started
let op_ctx op = op.o_ctx

let finish_op t op =
  if op.o_live then begin
    op.o_live <- false;
    List.iter
      (fun (Call c) -> close_call t c ~outcome:"abandoned")
      op.o_calls;
    op.o_calls <- []
  end

(* ---------- calls ---------- *)

let call_live (c : 'msg call) = (not c.closed) && c.c_op.o_live

let send_range t (c : 'msg call) lo hi =
  for i = lo to hi - 1 do
    if not c.heard.(i) then
      dispatch t ?ctx:c.c_op.o_ctx ~dst:c.targets.(i) (c.make c.rid)
  done

let rec arm_attempt_timer t (c : 'msg call) =
  if c.pol.Policy.max_attempts > 1 then
    Core.schedule t.sim ~delay:c.pol.Policy.attempt_timeout (fun () ->
        if call_live c then
          if c.attempt >= c.pol.Policy.max_attempts then begin
            end_attempt_span t c ~outcome:"exhausted";
            Obs.Metrics.inc t.m_exhausted;
            c.on_exhausted ()
          end
          else begin
            end_attempt_span t c ~outcome:"timeout";
            let next = c.attempt + 1 in
            let delay =
              Policy.retry_delay c.pol ~attempt:next ~u:(Prng.float t.rng)
            in
            Core.schedule t.sim ~delay (fun () ->
                if call_live c then begin
                  c.attempt <- next;
                  Obs.Metrics.inc t.m_retries;
                  begin_attempt_span t c;
                  send_range t c 0 c.sent_upto;
                  arm_attempt_timer t c
                end)
          end)

let arm_hedge_timer t (c : 'msg call) =
  match c.pol.Policy.hedge_delay with
  | Some d when c.sent_upto < Array.length c.targets ->
      Core.schedule t.sim ~delay:d (fun () ->
          if call_live c && c.sent_upto < Array.length c.targets then begin
            Obs.Metrics.inc t.m_hedges;
            let tr = tracer t in
            if Obs.Trace.enabled tr then
              Obs.Trace.instant tr ~cat:t.cat ~name:"hedge" ~track:t.name
                ~args:
                  ([
                     ("rid", Obs.Trace.Int c.rid);
                     ( "extra",
                       Obs.Trace.Int (Array.length c.targets - c.sent_upto) );
                   ]
                  @ ctx_args c)
                ();
            let lo = c.sent_upto in
            c.sent_upto <- Array.length c.targets;
            send_range t c lo c.sent_upto
          end)
  | _ -> ()

let call t ~op ?rid ~targets ?fanout ~make ~on_reply
    ?(on_exhausted = fun () -> ()) () =
  let rid = match rid with Some r -> r | None -> fresh_rid t in
  let targets = Array.of_list targets in
  let n = Array.length targets in
  let fanout = match fanout with Some f -> max 1 (min f n) | None -> n in
  let stamp = t.next_stamp in
  t.next_stamp <- stamp + 1;
  let c =
    {
      rid;
      stamp;
      c_op = op;
      targets;
      heard = Array.make n false;
      sent_upto = fanout;
      attempt = 1;
      closed = false;
      make;
      on_reply;
      on_exhausted;
      span = None;
      pol = t.policy;
    }
  in
  Hashtbl.replace t.pending rid c;
  op.o_calls <- Call c :: op.o_calls;
  begin_attempt_span t c;
  send_range t c 0 fanout;
  arm_attempt_timer t c;
  arm_hedge_timer t c;
  rid

(* ---------- reply dispatch ---------- *)

let target_index (c : 'msg call) src =
  let rec go i =
    if i >= Array.length c.targets then None
    else if String.equal c.targets.(i) src then Some i
    else go (i + 1)
  in
  go 0

let handle_one t ~src msg =
  match Hashtbl.find_opt t.pending (t.rid_of msg) with
  | None -> () (* stale reply for a finished or superseded call *)
  | Some c when not (call_live c) -> ()
  | Some c -> (
      let tr = tracer t in
      if Obs.Trace.enabled tr then
        Obs.Trace.instant tr ~cat:t.cat ~name:"reply" ~track:t.name
          ~args:
            ([ ("rid", Obs.Trace.Int c.rid); ("from", Obs.Trace.Str src) ]
            @ ctx_args c)
          ();
      (match target_index c src with
      | Some i -> c.heard.(i) <- true
      | None -> ());
      match c.on_reply ~src msg with
      | Continue -> ()
      | Done -> close_call t c ~outcome:"done")

(* Batch replies split into their per-key parts; each part dispatches
   against the pending table under its own original rid. *)
let rec handle t ~src msg =
  match t.unbatch with
  | Some unwrap -> (
      match unwrap msg with
      | Some inner -> List.iter (fun m -> handle t ~src m) inner
      | None -> handle_one t ~src msg)
  | None -> handle_one t ~src msg

let attach t =
  Net.register t.net ~node:t.name (fun ~src msg -> handle t ~src msg)
