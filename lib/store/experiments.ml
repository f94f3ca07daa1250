(** The quantitative experiments (DESIGN.md ids Q1-Q4, G1-G3): the
    evaluation the paper's introduction motivates but, being a theory
    paper, never runs.  Each function returns printable rows;
    [bin/tables.exe] renders them. *)

module Prng = Qc_util.Prng
module Core = Sim.Core
module Net = Sim.Net

(** The strategy menu used across experiments. *)
let menu : (string * Strategy.t) list =
  [
    ("read-one/write-all", Strategy.rowa 5);
    ("majority", Strategy.majority 5);
    ( "weighted(2,1,1,1,1) r=2 w=5",
      Strategy.weighted ~name:"weighted" ~votes:[| 2; 1; 1; 1; 1 |] ~r:2 ~w:5 );
    ("primary-copy", Strategy.primary 5);
  ]

(** {1 Q1 — availability vs. per-site availability p} *)

type availability_row = {
  strategy : string;
  p : float;
  read_analytic : float;
  write_analytic : float;
  simulated : float;  (** measured op success rate under crash/recover *)
}

let availability_sweep () : availability_row list =
  List.concat_map
    (fun (name, strat) ->
      List.map
        (fun p ->
          let read_analytic, write_analytic = Strategy.availability strat ~p in
          (* simulate: mtbf/mttr chosen so long-run availability = p *)
          let mttr = 50.0 in
          let mtbf = mttr *. p /. (1.0 -. p) in
          let r =
            Cluster.run
              {
                Cluster.default_params with
                n_replicas = 5;
                strategy = (fun _ -> strat);
                script =
                  [ Harness.Script.Crash_storm { Sim.Failure.mtbf; mttr } ];
                timeout = 60.0;
                workload =
                  { Workload.default_spec with ops_per_client = 400; read_fraction = 0.5 };
                seed = 11;
              }
          in
          {
            strategy = name;
            p;
            read_analytic;
            write_analytic;
            simulated = Cluster.availability r;
          })
        [ 0.5; 0.7; 0.8; 0.9; 0.95; 0.99 ])
    menu

(** {1 Q2 — latency by strategy} *)

type latency_row = {
  strategy : string;
  min_read_quorum : int;
  min_write_quorum : int;
  read : Sim.Stats.summary;
  write : Sim.Stats.summary;
}

let latency_table () : latency_row list =
  List.map
    (fun (name, strat) ->
      let r =
        Cluster.run
          {
            Cluster.default_params with
            n_replicas = 5;
            strategy = (fun _ -> strat);
            workload =
              { Workload.default_spec with ops_per_client = 500; read_fraction = 0.5 };
            seed = 23;
          }
      in
      {
        strategy = name;
        min_read_quorum = strat.Strategy.min_read;
        min_write_quorum = strat.Strategy.min_write;
        read = r.Cluster.reads;
        write = r.Cluster.writes;
      })
    menu

(** {1 Q3 — crossover: who wins at which read fraction} *)

type crossover_row = {
  read_fraction : float;
  rowa_mean : float;
  majority_mean : float;
  winner : string;
}

let mean_op_latency (r : Cluster.results) =
  let weighted (s : Sim.Stats.summary) =
    if s.Sim.Stats.count = 0 then 0.0
    else s.Sim.Stats.mean *. float_of_int s.Sim.Stats.count
  in
  let tr = r.Cluster.reads and tw = r.Cluster.writes in
  let n = tr.Sim.Stats.count + tw.Sim.Stats.count in
  if n = 0 then nan else (weighted tr +. weighted tw) /. float_of_int n

let crossover () : crossover_row list =
  List.map
    (fun f ->
      let run strat =
        mean_op_latency
          (Cluster.run
             {
               Cluster.default_params with
               n_replicas = 5;
               strategy = strat;
               workload =
                 {
                   Workload.default_spec with
                   ops_per_client = 400;
                   read_fraction = f;
                 };
               seed = 31;
             })
      in
      let rowa = run Strategy.rowa and majority = run Strategy.majority in
      {
        read_fraction = f;
        rowa_mean = rowa;
        majority_mean = majority;
        winner = (if rowa < majority then "read-one/write-all" else "majority");
      })
    [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.99 ]

(** {1 G1-G3 — weighted-voting configurations in the style of
    Gifford's examples} *)

type gifford_row = {
  label : string;
  votes : int list;
  r : int;
  w : int;
  min_read_quorum : int;
  min_write_quorum : int;
  read_avail_90 : float;
  write_avail_90 : float;
  read_latency : float;
  write_latency : float;
}

let gifford_examples () : gifford_row list =
  let cases =
    [
      (* read-optimized: reads anywhere, writes everywhere *)
      ("G1 read-optimized", [ 2; 1; 1; 1 ], 1, 5);
      (* balanced majority voting *)
      ("G2 balanced", [ 1; 1; 1; 1; 1 ], 3, 3);
      (* primary-weighted: a strong site in every quorum *)
      ("G3 primary-weighted", [ 3; 1; 1 ], 3, 3);
    ]
  in
  List.map
    (fun (label, votes, r, w) ->
      let strat =
        Strategy.weighted ~name:label ~votes:(Array.of_list votes) ~r ~w
      in
      let read_avail_90, write_avail_90 = Strategy.availability strat ~p:0.9 in
      let res =
        Cluster.run
          {
            Cluster.default_params with
            n_replicas = List.length votes;
            strategy = (fun _ -> strat);
            workload =
              { Workload.default_spec with ops_per_client = 400; read_fraction = 0.5 };
            seed = 47;
          }
      in
      {
        label;
        votes;
        r;
        w;
        min_read_quorum = strat.Strategy.min_read;
        min_write_quorum = strat.Strategy.min_write;
        read_avail_90;
        write_avail_90;
        read_latency = res.Cluster.reads.Sim.Stats.mean;
        write_latency = res.Cluster.writes.Sim.Stats.mean;
      })
    cases

(** {1 Q4 — reconfiguration restores availability after failures}

    Timeline: phase A (healthy, read-one/write-all over 5 replicas);
    phase B (replicas r3 and r4 crash permanently: reads still
    succeed, but writes need all five replicas and now fail); phase C
    (reconfigure to majority over the three survivors, migrating every
    key — safe because read-one/write-all wrote to {e every} replica,
    so the survivors hold the latest data); phase D (reconfigured:
    both reads and writes succeed again).  Success rates per phase are
    the deliverable — the Section 4 motivation, quantified. *)

type reconfig_row = { phase : string; ok : int; failed : int; rate : float }

(* five replicas r0-r4 and one client c0 (timeout 50) on a lognormal
   network, hand-driven by the Q4 and read-repair timelines *)
let one_client_cluster ~seed ~strategy ~read_repair =
  let sim = Core.create ~seed in
  let replica_names = List.init 5 (fun i -> Fmt.str "r%d" i) in
  let net =
    Net.create ~sim
      ~nodes:(replica_names @ [ "c0" ])
      ~latency:(Net.lognormal_latency ~mu:1.0 ~sigma:0.5)
      ()
  in
  let replicas = List.map (fun name -> Replica.create ~name ()) replica_names in
  List.iter (fun r -> Replica.attach r ~net) replicas;
  let client =
    Client.create ~name:"c0" ~sim ~net
      ~replicas:(Array.of_list replica_names)
      ~strategy ~timeout:50.0 ~read_repair ()
  in
  Client.attach client;
  (sim, net, replica_names, replicas, client)

let reconfig_experiment () : reconfig_row list =
  let seed = 53 in
  (* old configuration: read-one/write-all — writes reach every
     replica, so any survivor set holds the latest data *)
  let sim, net, _, _, client =
    one_client_cluster ~seed ~strategy:(Strategy.rowa 5) ~read_repair:false
  in
  (* new configuration: majority over the three survivors r0-r2 *)
  let new_strategy =
    Strategy.weighted ~name:"survivors-majority" ~votes:[| 1; 1; 1; 0; 0 |]
      ~r:2 ~w:2
  in
  let phases = Hashtbl.create 4 in
  let phase = ref "A-healthy" in
  let record ok =
    let o, f =
      Option.value ~default:(0, 0) (Hashtbl.find_opt phases !phase)
    in
    Hashtbl.replace phases !phase (if ok then (o + 1, f) else (o, f + 1))
  in
  let rng = Prng.create (seed lxor 0xff) in
  let keys = List.init 8 (fun i -> Fmt.str "k%d" i) in
  (* steady stream of operations throughout *)
  let rec traffic n =
    if n > 0 then
      Core.schedule sim ~delay:(Prng.exponential rng ~mean:4.0) (fun () ->
          let key = Prng.choose rng keys in
          if Prng.float rng < 0.5 then
            Client.read client ~key ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
                record ok)
          else
            Client.write client ~key ~value:(Prng.int rng 10_000)
              ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ -> record ok);
          traffic (n - 1))
  in
  traffic 600;
  (* t=600: crash r3 and r4 for good *)
  Core.schedule sim ~delay:600.0 (fun () ->
      phase := "B-failed";
      Net.crash net "r3";
      Net.crash net "r4");
  (* t=1200: reconfigure — migrate every key under the new quorum
     rule (Gifford's data-copy phase: push the current value and
     version to a write quorum of the new configuration), then let the
     client run with the new configuration *)
  Core.schedule sim ~delay:1200.0 (fun () ->
      phase := "C-migrating";
      client.Client.strategy <- new_strategy;
      let rec migrate = function
        | [] -> phase := "D-reconfigured"
        | key :: rest ->
            Client.read client ~key ~on_done:(fun ~ok ~vn ~value ~latency:_ ->
                if ok then
                  Client.install client ~key ~vn:(vn + 1) ~value
                    ~on_done:(fun ~ok:_ ~vn:_ ~value:_ ~latency:_ ->
                      migrate rest)
                else migrate rest)
      in
      migrate keys);
  Core.run sim;
  let order = [ "A-healthy"; "B-failed"; "C-migrating"; "D-reconfigured" ] in
  List.filter_map
    (fun phase ->
      match Hashtbl.find_opt phases phase with
      | Some (ok, failed) ->
          Some
            {
              phase;
              ok;
              failed;
              rate = float_of_int ok /. float_of_int (max 1 (ok + failed));
            }
      | None -> None)
    order

(** {1 Read repair: anti-entropy on the read path}

    Replicas that were down during writes come back stale and — under
    quorum reads — stay stale forever unless something fixes them
    (correctness does not require it: quorum intersection masks the
    staleness, at the cost of larger effective quorums and lost
    failure margin).  With read repair, reads push the newest version
    to the stale replicas they observed.  The experiment measures
    replica staleness after a failure-heavy write phase followed by a
    read-only phase, with repair off and on. *)

type repair_row = {
  mode : string;
  staleness_mid : float;
      (** mean fraction of stale replicas per key when failures stop *)
  staleness_end : float;  (** idem after the read-only phase *)
  repairs_sent : int;
}

let read_repair_experiment () : repair_row list =
  let seed = 61 in
  let run_one ~read_repair =
    let sim, net, replica_names, replicas, client =
      one_client_cluster ~seed ~strategy:(Strategy.majority 5) ~read_repair
    in
    let keys = List.init 8 (fun i -> Fmt.str "k%d" i) in
    let rng = Prng.create (seed lxor 0x5e) in
    (* failure-heavy write phase until t=800 *)
    List.iter
      (fun node ->
        ignore
          (Sim.Failure.attach ~sim ~net ~node
             ~spec:{ Sim.Failure.mtbf = 200.0; mttr = 100.0 }
             ~until:800.0 ()
            : Sim.Failure.t))
      replica_names;
    (* write phase strictly bounded to t < 700 so that no late write
       (broadcast to all replicas) masks the staleness left behind *)
    let rec writes n =
      if n > 0 && Core.now sim < 700.0 then
        Core.schedule sim ~delay:(Prng.exponential rng ~mean:5.0) (fun () ->
            if Core.now sim < 700.0 then
              Client.write client ~key:(Prng.choose rng keys)
                ~value:(Prng.int rng 100_000)
                ~on_done:(fun ~ok:_ ~vn:_ ~value:_ ~latency:_ -> writes (n - 1)))
    in
    writes 120;
    (* read-only phase from t=900 to t=1700 *)
    let rec reads n =
      if n > 0 then
        Core.schedule sim ~delay:(Prng.exponential rng ~mean:4.0) (fun () ->
            Client.read client ~key:(Prng.choose rng keys)
              ~on_done:(fun ~ok:_ ~vn:_ ~value:_ ~latency:_ -> reads (n - 1)))
    in
    Core.schedule sim ~delay:900.0 (fun () ->
        List.iter (fun r -> Net.recover net r) replica_names;
        reads 200);
    let staleness () =
      let per_key =
        List.map
          (fun key ->
            let vns =
              List.map (fun r -> fst (Replica.lookup r key)) replicas
            in
            let hi = List.fold_left max 0 vns in
            if hi = 0 then 0.0
            else
              float_of_int (List.length (List.filter (fun v -> v < hi) vns))
              /. float_of_int (List.length vns))
          keys
      in
      List.fold_left ( +. ) 0.0 per_key /. float_of_int (List.length per_key)
    in
    let mid = ref 0.0 in
    Core.schedule sim ~delay:890.0 (fun () -> mid := staleness ());
    Core.run sim;
    {
      mode = (if read_repair then "read repair on" else "read repair off");
      staleness_mid = !mid;
      staleness_end = staleness ();
      repairs_sent = Obs.Metrics.value client.Client.repairs_sent;
    }
  in
  [ run_one ~read_repair:false; run_one ~read_repair:true ]

(** {1 Optimal vote assignments}

    Gifford's paper chooses vote assignments by intuition and example;
    with exact analytic availability the choice can be {e optimized}:
    for a per-site availability [p] and a read fraction [f], score
    every (votes, r, w) configuration by
    [f * read_availability + (1 - f) * write_availability] and pick
    the best.  Searching all vote multisets (votes 0-3 per site, at
    least one positive) with minimal legal thresholds
    ([r + w = total + 1]; larger thresholds only lose availability)
    shows the availability optimum always weakly dominates both
    classical extremes, and that skewed workloads are won by
    {e asymmetric} thresholds (small quorums on the hot side, large on
    the cold side) rather than by read-one/write-all, whose write side
    collapses — rowa's real advantage is latency, not availability. *)

type optimum_row = {
  p : float;
  read_fraction : float;
  votes : int list;
  r : int;
  w : int;
  score : float;
  rowa_score : float;
  majority_score : float;
}

let optimal_configurations () : optimum_row list =
  (* non-increasing vote vectors, entries 0..3, at least one positive *)
  let rec vote_vectors k maxv =
    if k = 0 then [ [] ]
    else
      List.concat_map
        (fun v -> List.map (fun rest -> v :: rest) (vote_vectors (k - 1) v))
        (List.init (maxv + 1) (fun i -> maxv - i))
  in
  let candidates =
    List.filter_map
      (fun votes ->
        let total = List.fold_left ( + ) 0 votes in
        if total = 0 then None else Some (votes, total))
      (vote_vectors 5 3)
  in
  let score strat ~p ~f =
    let ar, aw = Strategy.availability strat ~p in
    (f *. ar) +. ((1.0 -. f) *. aw)
  in
  List.concat_map
    (fun p ->
      List.map
        (fun f ->
          let best = ref None in
          List.iter
            (fun (votes, total) ->
              for r = 1 to total do
                let w = total + 1 - r in
                if w >= 1 && w <= total then begin
                  let strat =
                    Strategy.weighted ~name:"cand" ~votes:(Array.of_list votes)
                      ~r ~w
                  in
                  let s = score strat ~p ~f in
                  match !best with
                  | Some (s', _, _, _) when s' >= s -> ()
                  | _ -> best := Some (s, votes, r, w)
                end
              done)
            candidates;
          let s, votes, r, w = Option.get !best in
          {
            p;
            read_fraction = f;
            votes;
            r;
            w;
            score = s;
            rowa_score = score (Strategy.rowa 5) ~p ~f;
            majority_score = score (Strategy.majority 5) ~p ~f;
          })
        [ 0.1; 0.5; 0.9 ])
    [ 0.8; 0.9; 0.99 ]

(** {1 Broadcast vs targeted quorums: messages, load, latency}

    Quorum-system theory's third axis (after availability and quorum
    size) is {e load} — how evenly work spreads over replicas (cf.
    grid quorums, designed exactly for this).  Under broadcast routing
    every replica sees every operation, so load is flat and the axis
    is invisible; targeted routing (message one random minimal quorum)
    reveals it, trading tail latency and messages for load. *)

type load_row = {
  strategy_name : string;
  mode : string;
  messages : int;
  read_mean : float;
  availability : float;
  load_imbalance : float;
      (** max replica load / mean replica load (1.0 = perfectly flat) *)
}

(* max load / mean load (1.0 = perfectly flat) *)
let imbalance loads =
  let mean =
    float_of_int (List.fold_left ( + ) 0 loads)
    /. float_of_int (List.length loads)
  in
  if mean > 0.0 then float_of_int (List.fold_left max 0 loads) /. mean else nan

let load_table () : load_row list =
  let n = 6 in
  let strategies =
    [
      ("majority-6", fun _ -> Strategy.majority n);
      ("grid-2x3", fun _ -> Strategy.grid ~rows:2 ~cols:3);
      ( "primary-weighted",
        fun _ ->
          Strategy.weighted ~name:"pw" ~votes:[| 3; 1; 1; 1; 1; 1 |] ~r:4 ~w:5
      );
    ]
  in
  List.concat_map
    (fun (name, strat) ->
      List.map
        (fun (mode, targeting) ->
          let r =
            Cluster.run
              {
                Cluster.default_params with
                n_replicas = n;
                strategy = strat;
                targeting;
                workload =
                  { Workload.default_spec with ops_per_client = 400; read_fraction = 0.8 };
                seed = 83;
              }
          in
          {
            strategy_name = name;
            mode;
            messages = r.Cluster.net.Sim.Net.sent;
            read_mean = r.Cluster.reads.Sim.Stats.mean;
            availability = Cluster.availability r;
            load_imbalance = imbalance (List.map snd r.Cluster.replica_loads);
          })
        [ ("broadcast", `Broadcast); ("targeted", `Quorum) ])
    strategies

(** {1 Run outcomes}

    What every ablation row reports about its runs besides its own
    measure: operations that succeeded and failed, whether the
    consistency audit stayed clean, and the wire traffic. *)

type outcome = {
  ok_ops : int;
  failed_ops : int;
  audit_clean : bool;  (** every run's consistency audit passed *)
  messages : int;  (** wire messages *)
  payloads : int;  (** logical requests carried *)
}

let outcome_of (rs : Cluster.results list) =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  {
    ok_ops = sum (fun r -> r.Cluster.ok_reads + r.Cluster.ok_writes);
    failed_ops =
      sum (fun r -> r.Cluster.failed_reads + r.Cluster.failed_writes);
    audit_clean = List.for_all (fun r -> r.Cluster.audit_violations = []) rs;
    messages = sum (fun r -> r.Cluster.net.Sim.Net.sent);
    payloads = sum (fun r -> r.Cluster.net.Sim.Net.payload_sent);
  }

(** {1 Ablation — retry/backoff/hedging policy under adverse networks}

    The engine's robustness knobs against the two failure modes the
    other experiments inject: random message loss and nemesis
    partitions.  Targeted-quorum routing is the stress case — a single
    lost message stalls the chosen quorum, so fire-once clients pay
    the full operation timeout while retries resend and hedges fall
    back to the unchosen replicas. *)

type retry_row = {
  policy_name : string;
  condition : string;
  success_rate : float;
  read_mean : float;
  retries : int;
  hedges : int;
  outcome : outcome;
}

let retry_policy_table () : retry_row list =
  let policies =
    [
      ("fire-once", Rpc.Policy.default);
      ("retry x2", Rpc.Policy.with_retries 2);
      ( "retry x2 + hedge 12",
        Rpc.Policy.with_hedge ~base:(Rpc.Policy.with_retries 2) 12.0 );
    ]
  in
  let conditions =
    [
      ("loss 30%", 0.3, []);
      ("partitions", 0.0, Harness.Script.of_partitions 150.0);
    ]
  in
  let n_clients = 4 in
  List.concat_map
    (fun (policy_name, policy) ->
      List.map
        (fun (condition, loss, script) ->
          let r =
            Cluster.run
              {
                Cluster.default_params with
                targeting = `Quorum;
                policy;
                loss;
                script;
                n_clients;
                workload =
                  {
                    Workload.default_spec with
                    ops_per_client = 150;
                    read_fraction = 0.5;
                  };
                seed = 77;
              }
          in
          (* the engine's counters are per client; re-fetching the same
             (name, labels) pair from the shared registry yields the
             same instrument, so summing over client names aggregates *)
          let sum name =
            List.fold_left
              (fun acc ci ->
                acc
                + Obs.Metrics.value
                    (Obs.Metrics.counter r.Cluster.metrics
                       ~labels:[ ("client", Fmt.str "c%d" ci) ]
                       name))
              0
              (List.init n_clients Fun.id)
          in
          {
            policy_name;
            condition;
            success_rate = Cluster.availability r;
            read_mean = r.Cluster.reads.Sim.Stats.mean;
            retries = sum "rpc.retries";
            hedges = sum "rpc.hedges";
            outcome = outcome_of [ r ];
          })
        conditions)
    policies

(** {1 Ablation — sharding the keyspace across replica groups}

    Per-item quorum consensus makes the keyspace trivially
    partitionable: each key's quorums intersect inside its own replica
    group, so shards add capacity without touching correctness.  The
    table drives a Zipf-skewed workload over 1/2/4 range shards of 3
    replicas each and reports how the skew lands on replicas and
    shards — range sharding deliberately concentrates the hot low
    ranks in shard 0 — plus the blast radius of losing a whole shard:
    the same run with the hot shard killed mid-way.  One shard means
    the kill is a total outage; more shards keep every other shard's
    keys serving. *)

type shard_row = {
  n_shards : int;
  total_replicas : int;
  messages : int;
  replica_imbalance : float;
      (** max replica load / mean replica load (1.0 = flat) *)
  shard_spread : float;
      (** max shard load / mean shard load — how unevenly the key skew
          lands on shards (1 shard: 1.0 by definition) *)
  availability : float;  (** mean over the seeds *)
  min_availability : float;
      (** worst seed — equals [availability] with one seed *)
  kill_availability : float;
      (** availability of the same run with the hottest shard crashed
          at t=500 — the targeted-failure blast radius (mean over the
          seeds) *)
  min_kill_availability : float;  (** worst seed *)
}

(** The sharding ablation.  [seeds] (default 1) averages the
    availability cells over seeds 91 .. 91 + seeds - 1, reporting
    min/mean per cell; the load/message columns come from the base
    seed's run, so a single-seed table is unchanged. *)
let shard_table ?(seeds = 1) () : shard_row list =
  if seeds < 1 then invalid_arg "Experiments.shard_table: seeds must be >= 1";
  let mk n_shards seed script =
    Cluster.run
      {
        Cluster.default_params with
        n_shards;
        n_replicas = 3;
        strategy = Strategy.majority;
        shard_scheme = `Range;
        workload =
          {
            Workload.default_spec with
            zipf_s = 1.1;
            ops_per_client = 300;
            read_fraction = 0.8;
          };
        seed;
        script;
      }
  in
  let seed_list = List.init seeds (fun i -> 91 + i) in
  let min_mean xs =
    ( List.fold_left Float.min infinity xs,
      List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) )
  in
  List.map
    (fun n_shards ->
      let runs = List.map (fun s -> mk n_shards s []) seed_list in
      (* range sharding puts the hot low ranks in shard 0 *)
      let kill_runs =
        List.map
          (fun s -> mk n_shards s [ Harness.Script.At (500.0, Kill_shard 0) ])
          seed_list
      in
      let r = List.hd runs in
      let min_avail, mean_avail =
        min_mean (List.map Cluster.availability runs)
      in
      let min_kill, mean_kill =
        min_mean (List.map Cluster.availability kill_runs)
      in
      let loads = List.map snd r.Cluster.replica_loads in
      {
        n_shards;
        total_replicas = List.length loads;
        messages = r.Cluster.net.Sim.Net.sent;
        replica_imbalance = imbalance loads;
        shard_spread =
          imbalance
            (List.map
               (fun (s : Cluster.shard_stat) -> s.Cluster.load)
               r.Cluster.shards);
        availability = mean_avail;
        min_availability = min_avail;
        kill_availability = mean_kill;
        min_kill_availability = min_kill;
      })
    [ 1; 2; 4 ]

(** {1 Ablation — multi-key batching}

    Burst-issuing clients give the engine several distinct keys in
    flight; with a batching window those keys' waves coalesce into one
    frame per replica per window.  Wire messages collapse (the [>= 30%]
    reduction the engine promises — in practice far more under skew)
    while logical payloads stay equal, at the price of up to one
    window of added queue delay per request — visible in the p95
    columns. *)

type batch_row = {
  zipf_label : string;
  mode : string;  (** "unbatched" or "batched w=&lt;window&gt;" *)
  read_p95 : float;
  write_p95 : float;
  outcome : outcome;
}

let batching_table () : batch_row list =
  let window = 1.0 in
  List.concat_map
    (fun (zipf_label, zipf_s) ->
      List.map
        (fun (mode, batch_window) ->
          let r =
            Cluster.run
              {
                Cluster.default_params with
                batch_window;
                workload =
                  {
                    Workload.default_spec with
                    zipf_s;
                    burst = 8;
                    ops_per_client = 200;
                  };
                seed = 97;
              }
          in
          {
            zipf_label;
            mode;
            read_p95 = r.Cluster.reads.Sim.Stats.p95;
            write_p95 = r.Cluster.writes.Sim.Stats.p95;
            outcome = outcome_of [ r ];
          })
        [ ("unbatched", None); (Fmt.str "batched w=%g" window, Some window) ])
    [ ("uniform (s=0)", 0.0); ("zipf s=1.1", 1.1) ]

(** {1 Ablation — replica-side io pipeline}

    With a storage device attached ([storage_cost]/[fsync_cost] > 0)
    every install must reach disk before it acks.  The naive
    discipline fsyncs per install — one serialized
    [write_cost + fsync_cost] each, exactly 1.0 fsyncs per install by
    construction — while group commit drains whatever accumulated
    behind the in-flight fsync as one group per fsync, amortizing the
    dominant cost across the burst.  The audit runs unchanged: acks
    still certify durable versions, so quorum intersection (and
    therefore the audit) is untouched by the pipeline. *)

type io_row = {
  io_mode : string;  (** "no-storage", "naive-fsync", "group-commit" *)
  io_installs : int;
  io_fsyncs : int;
  io_fsyncs_per_install : float;
  io_write_mean : float;
  io_write_p95 : float;
  outcome : outcome;
}

let io_table () : io_row list =
  let params ~storage ~group_commit =
    {
      Cluster.default_params with
      n_replicas = 3;
      n_clients = 4;
      workload =
        {
          Workload.default_spec with
          ops_per_client = 60;
          read_fraction = 0.3;
          zipf_s = 1.1;
          burst = 8;
        };
      storage_cost = (if storage then 0.05 else 0.0);
      fsync_cost = (if storage then 5.0 else 0.0);
      group_commit;
      seed = 42;
    }
  in
  List.map
    (fun (io_mode, storage, group_commit) ->
      let r = Cluster.run (params ~storage ~group_commit) in
      {
        io_mode;
        io_installs = r.Cluster.installs;
        io_fsyncs = r.Cluster.fsyncs;
        io_fsyncs_per_install =
          (if r.Cluster.installs = 0 then nan
           else
             float_of_int r.Cluster.fsyncs /. float_of_int r.Cluster.installs);
        io_write_mean = r.Cluster.writes.Sim.Stats.mean;
        io_write_p95 = r.Cluster.writes.Sim.Stats.p95;
        outcome = outcome_of [ r ];
      })
    [
      ("no-storage", false, true);
      ("naive-fsync", true, false);
      ("group-commit", true, true);
    ]

(** {1 Ablation — adaptive batching windows}

    The static window is a bet placed once: too small and bursts leave
    coalescing on the table, too large and a quiet client pays queue
    delay for frames that never form.  The AIMD controller moves the
    bet every flush — peak per-destination batch size >= 2 widens the
    window additively, an idle flush halves it toward zero.  The table
    runs both regimes: a burst-8 Zipf workload (where wide windows
    win the message economy) and a uniform low-rate workload (where
    any fixed window only adds latency; the controller should sit at
    zero and match the unbatched mean). *)

type window_row = {
  w_workload : string;  (** "burst-8 zipf" or "uniform low-rate" *)
  w_mode : string;  (** "unbatched", "static w=...", "adaptive" *)
  w_op_mean : float;  (** mean latency over all successful ops *)
  outcome : outcome;
}

let window_table () : window_row list =
  let bursty =
    {
      Workload.default_spec with
      ops_per_client = 60;
      read_fraction = 0.7;
      zipf_s = 1.1;
      burst = 8;
    }
  and low_rate =
    {
      Workload.default_spec with
      ops_per_client = 60;
      read_fraction = 0.9;
      zipf_s = 0.0;
      think_time = 10.0;
      burst = 1;
    }
  in
  let modes =
    ("unbatched", None, None)
    :: List.map
         (fun w -> (Fmt.str "static w=%g" w, Some w, None))
         [ 0.5; 1.0; 2.0; 4.0 ]
    @ [ ("adaptive", None, Some Rpc.Window.default_config) ]
  in
  List.concat_map
    (fun (w_workload, workload) ->
      List.map
        (fun (w_mode, batch_window, adaptive_window) ->
          let r =
            Cluster.run
              {
                Cluster.default_params with
                n_replicas = 3;
                n_clients = 4;
                workload;
                batch_window;
                adaptive_window;
                seed = 42;
              }
          in
          {
            w_workload;
            w_mode;
            w_op_mean = mean_op_latency r;
            outcome = outcome_of [ r ];
          })
        modes)
    [ ("burst-8 zipf", bursty); ("uniform low-rate", low_rate) ]

(** {1 Ablation — latency attribution}

    Where does a quorum operation's wall latency actually go?  The
    causal traces answer: each stamped operation's wall interval is
    decomposed by {!Obs.Attribution} into net / backoff / hedge /
    batch-wait / replica-queue / apply / fsync / reply phases that sum
    exactly to the measured latency.  The table crosses loss (clean
    vs 30% drop — retries and their backoff gaps appear) with burst
    size (closed-loop vs burst-8 — batch-window waits and group-commit
    amortization appear), holding retries, batching, and storage costs
    fixed, so each knob's latency cost shows up in its own phase
    instead of as an undifferentiated mean. *)

type attr_row = {
  a_label : string;  (** e.g. ["loss=30% burst=8"] *)
  a_ops : int;  (** stamped operations attributed *)
  a_wall_mean : float;  (** mean wall latency over attributed ops *)
  a_phase_means : (Obs.Attribution.phase * float) list;
      (** mean time units per op per phase, in {!Obs.Attribution.phases}
          order; sums to [a_wall_mean] up to float error *)
  outcome : outcome;
}

let attribution_table () : attr_row list =
  List.concat_map
    (fun (loss_label, loss) ->
      List.map
        (fun (burst_label, burst) ->
          let r =
            Cluster.run
              {
                Cluster.default_params with
                n_replicas = 3;
                n_clients = 4;
                n_shards = 2;
                loss;
                trace_capacity = 262144;
                trace_ctx = true;
                batch_window = Some 1.0;
                storage_cost = 0.05;
                fsync_cost = 2.0;
                policy =
                  {
                    Rpc.Policy.default with
                    max_attempts = 3;
                    attempt_timeout = 25.0;
                    backoff = 2.0;
                  };
                workload =
                  {
                    Workload.default_spec with
                    ops_per_client = 60;
                    read_fraction = 0.5;
                    zipf_s = 1.1;
                    burst;
                  };
                seed = 42;
              }
          in
          let bs =
            Obs.Attribution.of_events (Obs.Trace.events r.Cluster.trace)
          in
          let n = List.length bs in
          let wall_mean =
            if n = 0 then nan
            else
              List.fold_left (fun acc b -> acc +. Obs.Attribution.wall b) 0.0 bs
              /. float_of_int n
          in
          {
            a_label = Fmt.str "%s %s" loss_label burst_label;
            a_ops = n;
            a_wall_mean = wall_mean;
            a_phase_means = Obs.Attribution.mean_by_phase bs;
            outcome = outcome_of [ r ];
          })
        [ ("burst=1", 1); ("burst=8", 8) ])
    [ ("loss=0%", 0.0); ("loss=30%", 0.3) ]

(** {1 Ablation — cross-shard commit under coordinator kills}

    Blocking 2PC vs Paxos Commit on 3 shards of majority-3 with 3
    client-coordinators, two of which die inside the commit window.
    2PC participants stay prepared-but-undecided until the
    coordinator returns; Paxos Commit lets them elect a recovery
    leader over the same decision register, so nothing stays blocked
    and liveness returns once the network heals. *)

let txn_kill_script =
  Harness.Script.
    [
      At (30.0, Crash "c0");
      At (55.0, Crash "c1");
      At (700.0, Recover "c0");
      At (700.0, Recover "c1");
      At (701.0, Heal);
    ]

type txn_row = {
  commit_mode : Txn.mode;
  txn_seed : int;
  acked : int;  (** client-acked commits *)
  txn_failed : int;  (** attempts exhausted of retries *)
  decided : int;  (** distinct committed decisions *)
  blocked : int;  (** prepared-but-undecided transactions at the end *)
  txn_latency_mean : float;  (** over acked commits *)
  violations : int;  (** consistency-audit violations *)
  live : bool;  (** some operation succeeds after the heal *)
}

let txn_table ~seeds : txn_row list =
  if seeds < 1 then invalid_arg "Experiments.txn_table: seeds must be >= 1";
  List.concat_map
    (fun commit_mode ->
      List.init seeds (fun i ->
          let txn_seed = i + 1 in
          let r =
            Cluster.run
              {
                Cluster.default_params with
                n_replicas = 3;
                n_clients = 3;
                n_shards = 3;
                seed = txn_seed;
                script = txn_kill_script;
                workload =
                  {
                    Workload.default_spec with
                    n_keys = 24;
                    think_time = 4.0;
                  };
                txns =
                  Some
                    {
                      Cluster.default_txn_spec with
                      commit_mode;
                      txns_per_client = 12;
                    };
              }
          in
          {
            commit_mode;
            txn_seed;
            acked = r.Cluster.ok_txns;
            txn_failed = r.Cluster.failed_txns;
            decided = r.Cluster.decided_txns;
            blocked = List.length r.Cluster.blocked_txns;
            txn_latency_mean = r.Cluster.txn_latency.Sim.Stats.mean;
            violations = List.length r.Cluster.audit_violations;
            live =
              Harness.Check.liveness_after_heal ~script:txn_kill_script
                ~completions:r.Cluster.completions
              = Ok ();
          }))
    [ `Two_phase; `Paxos ]

(** {1 Ablation — workload-aware quorum tuning}

    The optimizer + steering ablation behind [tables.exe tune]: a
    skewed (90/10) and a balanced (50/50) read mix, in a uniform
    cluster and in one where replica r4 is slow on every link, across
    four modes — static majority (the baseline), the optimizer alone,
    optimizer + queue-aware steering, and steering alone under static
    majority (the slow-replica isolation).  Quorum targeting with the
    default fire-once policy, so the chosen quorum's members are the
    ops' whole fate — exactly the regime the model scores. *)

type tune_row = {
  t_mix : string;  (** "90/10" or "50/50" *)
  t_env : string;  (** "uniform" or "slow-r4" *)
  t_mode : string;
      (** "majority", "optimized", "optimized+steer", "majority+steer" *)
  t_strategy : string;  (** the shard's final strategy (base seed) *)
  t_switches : int;  (** committed re-strategizes (base seed) *)
  t_throughput : float;  (** ok ops per time unit, mean over seeds *)
  t_read_mean : float;  (** mean over seeds of the read-latency mean *)
  t_read_p99 : float;  (** mean over seeds of the read-latency p99 *)
  outcome : outcome;  (** summed over the seeds *)
}

let tune_table ?(seeds = 3) () : tune_row list =
  if seeds < 1 then invalid_arg "Experiments.tune_table: seeds must be >= 1";
  let base_latency = Net.lognormal_latency ~mu:1.0 ~sigma:0.5 in
  (* one slow replica: every link touching r4 pays a constant on top
     of the base draw (same rng consumption, so runs stay comparable) *)
  let slow_latency : Net.latency =
   fun rng ~src ~dst ->
    let l = base_latency rng ~src ~dst in
    if String.equal src "r4" || String.equal dst "r4" then l +. 4.0 else l
  in
  (* each mode's cluster tuning spec; [None] is the static baseline *)
  let modes =
    [
      ("majority", None);
      ("optimized", Some { Cluster.default_tune_spec with steer = false });
      ("optimized+steer", Some Cluster.default_tune_spec);
      ( "majority+steer",
        Some { Cluster.default_tune_spec with optimize = false } );
    ]
  in
  let run_one ~f ~slow ~tune s =
    Cluster.run
      {
        Cluster.default_params with
        n_replicas = 5;
        n_clients = 4;
        targeting = `Quorum;
        latency = (if slow then slow_latency else base_latency);
        workload =
          {
            Workload.default_spec with
            ops_per_client = 150;
            read_fraction = f;
            think_time = 2.0;
          };
        tune;
        seed = s;
      }
  in
  List.concat_map
    (fun (t_env, slow) ->
      List.concat_map
        (fun (t_mix, f) ->
          List.map
            (fun (t_mode, tune) ->
              let rs =
                List.init seeds (fun i ->
                    run_one ~f ~slow ~tune (42 + (31 * i)))
              in
              let base = List.hd rs in
              let mean g =
                List.fold_left (fun acc r -> acc +. g r) 0.0 rs
                /. float_of_int (List.length rs)
              in
              {
                t_mix;
                t_env;
                t_mode;
                t_strategy =
                  (match base.Cluster.shard_strategies with
                  | s :: _ -> s
                  | [] -> "?");
                t_switches = List.length base.Cluster.strategy_switches;
                t_throughput =
                  mean (fun r ->
                      float_of_int (r.Cluster.ok_reads + r.Cluster.ok_writes)
                      /. r.Cluster.duration);
                t_read_mean = mean (fun r -> r.Cluster.reads.Sim.Stats.mean);
                t_read_p99 = mean (fun r -> r.Cluster.reads.Sim.Stats.p99);
                outcome = outcome_of rs;
              })
            modes)
        [ ("90/10", 0.9); ("50/50", 0.5) ])
    [ ("uniform", false); ("slow-r4", true) ]
