(** E13 (extension): General Quorum Consensus for ADTs vs. read-write
    quorum replication.

    The headline: a counter increment under the event-log scheme is a
    {e blind} mutator — one quorum round — while the same increment on
    a read-write-replicated counter costs a version-discovery round
    plus an install round (and the read round makes concurrent
    increments lose updates unless a concurrency-control layer
    serializes them; the event log is union-merged, so increments
    commute).  We measure both latency and the lost-update effect. *)

module Prng = Qc_util.Prng
module Core = Sim.Core
module Net = Sim.Net

type row = {
  scheme : string;
  mutation_mean : float;
  mutation_p90 : float;
  observe_mean : float;
  final_total : int;  (** counter value read at the end *)
  expected_total : int;  (** completed increments *)
  rounds_per_mutation : float;
}

let n_replicas = 5
let n_increments = 300

(* -------- ADT scheme: blind increments on the event log -------- *)

let run_adt ~seed : row =
  let sim = Core.create ~seed in
  let replica_names = List.init n_replicas (fun i -> Fmt.str "r%d" i) in
  let net =
    Net.create ~sim
      ~nodes:(replica_names @ [ "c0" ])
      ~latency:(Net.lognormal_latency ~mu:1.0 ~sigma:0.5)
      ()
  in
  let replicas = List.map (fun name -> Replica.create ~name) replica_names in
  List.iter (fun r -> Replica.attach r ~net) replicas;
  let client =
    Client.create ~name:"c0" ~sim ~net
      ~replicas:(Array.of_list replica_names)
      ~strategy:(Store.Strategy.majority n_replicas)
      ()
  in
  Client.attach client;
  let mut = Sim.Stats.create () and obs = Sim.Stats.create () in
  let completed = ref 0 and final_total = ref 0 in
  let rng = Prng.create (seed lxor 0xadc) in
  let rec inc n =
    if n > 0 then
      Core.schedule sim ~delay:(Prng.exponential rng ~mean:3.0) (fun () ->
          Client.execute client ~key:"counter" ~op:(Spec.Inc 1)
            ~on_done:(fun ~ok ~result:_ ~latency ->
              if ok then begin
                incr completed;
                Sim.Stats.add mut latency
              end;
              inc (n - 1)))
    else
      Client.execute client ~key:"counter" ~op:Spec.Total
        ~on_done:(fun ~ok ~result ~latency ->
          if ok then begin
            Sim.Stats.add obs latency;
            match result with Spec.Value v -> final_total := v | _ -> ()
          end)
  in
  inc n_increments;
  Core.run sim;
  let m = Sim.Stats.summarize mut and o = Sim.Stats.summarize obs in
  {
    scheme = "ADT event log (blind inc)";
    mutation_mean = m.Sim.Stats.mean;
    mutation_p90 = m.Sim.Stats.p90;
    observe_mean = o.Sim.Stats.mean;
    final_total = !final_total;
    expected_total = !completed;
    rounds_per_mutation = 1.0;
  }

(* -------- read-write scheme: inc = read version+value, install -------- *)

let run_rw ~seed : row =
  let sim = Core.create ~seed in
  let replica_names = List.init n_replicas (fun i -> Fmt.str "r%d" i) in
  let net =
    Net.create ~sim
      ~nodes:(replica_names @ [ "c0" ])
      ~latency:(Net.lognormal_latency ~mu:1.0 ~sigma:0.5)
      ()
  in
  let replicas = List.map (fun name -> Store.Replica.create ~name ()) replica_names in
  List.iter (fun r -> Store.Replica.attach r ~net) replicas;
  let client =
    Store.Client.create ~name:"c0" ~sim ~net
      ~replicas:(Array.of_list replica_names)
      ~strategy:(Store.Strategy.majority n_replicas)
      ()
  in
  Store.Client.attach client;
  let mut = Sim.Stats.create () and obs = Sim.Stats.create () in
  let completed = ref 0 and final_total = ref 0 in
  let rng = Prng.create (seed lxor 0xadc) in
  (* an increment = read the counter, write value+1: two quorum rounds
     on the read-write store (and inherently racy without locks — here
     the single sequential client keeps it safe, matching the ADT run) *)
  let rec inc n =
    if n > 0 then
      Core.schedule sim ~delay:(Prng.exponential rng ~mean:3.0) (fun () ->
          Store.Client.read client ~key:"counter"
            ~on_done:(fun ~ok ~vn:_ ~value ~latency:_ ->
              if not ok then inc (n - 1)
              else
                Store.Client.write client ~key:"counter" ~value:(value + 1)
                  ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency ->
                    if ok then begin
                      incr completed;
                      Sim.Stats.add mut latency
                    end;
                    inc (n - 1))))
    else
      Store.Client.read client ~key:"counter"
        ~on_done:(fun ~ok ~vn:_ ~value ~latency ->
          if ok then begin
            Sim.Stats.add obs latency;
            final_total := value
          end)
  in
  inc n_increments;
  Core.run sim;
  let m = Sim.Stats.summarize mut and o = Sim.Stats.summarize obs in
  {
    scheme = "read-write quorums (read+write)";
    mutation_mean = m.Sim.Stats.mean;
    mutation_p90 = m.Sim.Stats.p90;
    observe_mean = o.Sim.Stats.mean;
    final_total = !final_total;
    expected_total = !completed;
    rounds_per_mutation = 3.0;
    (* explicit read + the write's query and install rounds *)
  }

let counter_comparison () : row list =
  [ run_adt ~seed:77; run_rw ~seed:77 ]

(* -------- lost updates: two concurrent blind incrementers -------- *)

type race_row = { scheme : string; issued : int; final : int; lost : int }

let race_adt ~seed : race_row =
  let sim = Core.create ~seed in
  let replica_names = List.init n_replicas (fun i -> Fmt.str "r%d" i) in
  let clients = [ "c0"; "c1" ] in
  let net =
    Net.create ~sim
      ~nodes:(replica_names @ clients)
      ~latency:(Net.lognormal_latency ~mu:1.0 ~sigma:0.5)
      ()
  in
  let replicas = List.map (fun name -> Replica.create ~name) replica_names in
  List.iter (fun r -> Replica.attach r ~net) replicas;
  let completed = ref 0 in
  let final = ref 0 in
  let per_client = 100 in
  let mk name =
    let c =
      Client.create ~name ~sim ~net
        ~replicas:(Array.of_list replica_names)
        ~strategy:(Store.Strategy.majority n_replicas)
        ()
    in
    Client.attach c;
    c
  in
  let cs = List.map mk clients in
  let rng = Prng.create (seed lxor 0x7ace) in
  List.iter
    (fun c ->
      let rec inc n =
        if n > 0 then
          Core.schedule sim ~delay:(Prng.exponential rng ~mean:2.0) (fun () ->
              Client.execute c ~key:"counter" ~op:(Spec.Inc 1)
                ~on_done:(fun ~ok ~result:_ ~latency:_ ->
                  if ok then incr completed;
                  inc (n - 1)))
      in
      inc per_client)
    cs;
  Core.run sim;
  (* final observation from a fresh client *)
  let sim2_done = ref false in
  Client.execute (List.hd cs) ~key:"counter" ~op:Spec.Total
    ~on_done:(fun ~ok ~result ~latency:_ ->
      if ok then
        match result with
        | Spec.Value v ->
            final := v;
            sim2_done := true
        | _ -> ());
  Core.run sim;
  ignore !sim2_done;
  { scheme = "ADT event log"; issued = !completed; final = !final;
    lost = !completed - !final }

let race_rw ~seed : race_row =
  let sim = Core.create ~seed in
  let replica_names = List.init n_replicas (fun i -> Fmt.str "r%d" i) in
  let clients = [ "c0"; "c1" ] in
  let net =
    Net.create ~sim
      ~nodes:(replica_names @ clients)
      ~latency:(Net.lognormal_latency ~mu:1.0 ~sigma:0.5)
      ()
  in
  let replicas = List.map (fun name -> Store.Replica.create ~name ()) replica_names in
  List.iter (fun r -> Store.Replica.attach r ~net) replicas;
  let completed = ref 0 and final = ref 0 in
  let per_client = 100 in
  let mk name =
    let c =
      Store.Client.create ~name ~sim ~net
        ~replicas:(Array.of_list replica_names)
        ~strategy:(Store.Strategy.majority n_replicas)
        ()
    in
    Store.Client.attach c;
    c
  in
  let cs = List.map mk clients in
  let rng = Prng.create (seed lxor 0x7ace) in
  List.iter
    (fun c ->
      let rec inc n =
        if n > 0 then
          Core.schedule sim ~delay:(Prng.exponential rng ~mean:2.0) (fun () ->
              Store.Client.read c ~key:"counter"
                ~on_done:(fun ~ok ~vn:_ ~value ~latency:_ ->
                  if not ok then inc (n - 1)
                  else
                    Store.Client.write c ~key:"counter" ~value:(value + 1)
                      ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
                        if ok then incr completed;
                        inc (n - 1))))
      in
      inc per_client)
    cs;
  Core.run sim;
  Store.Client.read (List.hd cs) ~key:"counter"
    ~on_done:(fun ~ok ~vn:_ ~value ~latency:_ -> if ok then final := value);
  Core.run sim;
  {
    scheme = "read-write quorums";
    issued = !completed;
    final = !final;
    lost = !completed - !final;
  }

(** Two clients racing 100 increments each: the event log loses
    nothing (increments commute under union); read-modify-write on the
    read-write store loses the interleaved updates. *)
let race_comparison () : race_row list =
  [ race_adt ~seed:99; race_rw ~seed:99 ]
