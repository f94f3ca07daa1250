(* Tests for the replicated store: strategies (legality, analytic
   availability), the quorum client protocol, cluster consistency
   audits, and the experiment shapes the paper's claims predict. *)

module Prng = Qc_util.Prng
module Strategy = Store.Strategy

(* ---------- strategies ---------- *)

let test_strategy_legal () =
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) (name ^ " legal") true (Strategy.legal s))
    [
      ("rowa", Strategy.rowa 5);
      ("majority-5", Strategy.majority 5);
      ("majority-4", Strategy.majority 4);
      ("grid", Strategy.grid ~rows:2 ~cols:3);
      ("primary", Strategy.primary 3);
      ( "weighted",
        Strategy.weighted ~name:"w" ~votes:[| 2; 1; 1 |] ~r:2 ~w:3 );
    ]

let test_strategy_min_quorums () =
  let s = Strategy.rowa 5 in
  Alcotest.(check int) "rowa min read" 1 s.Strategy.min_read;
  Alcotest.(check int) "rowa min write" 5 s.Strategy.min_write;
  let m = Strategy.majority 5 in
  Alcotest.(check int) "majority min read" 3 m.Strategy.min_read;
  Alcotest.(check int) "majority min write" 3 m.Strategy.min_write;
  let g = Strategy.grid ~rows:2 ~cols:3 in
  Alcotest.(check int) "grid min read = cols" 3 g.Strategy.min_read;
  (* one full row (3) + one per other row (1) *)
  Alcotest.(check int) "grid min write" 4 g.Strategy.min_write

(* An empty read quorum (every mask, 0 included, reads) is disjoint
   from the write quorum {all}: the strategy is illegal.  Scanning
   read masks from 1 missed it, so [Strategy.legal] said yes while
   [Tune.Model.legal] said no. *)
let test_legal_empty_read_quorum () =
  let s =
    Strategy.make ~name:"empty-read" ~n:3
      ~read_ok:(fun _ -> true)
      ~write_ok:(fun m -> m = 7)
  in
  Alcotest.(check bool) "Tune.Model says illegal" false
    (Tune.Model.legal (Strategy.system s));
  Alcotest.(check bool) "Strategy.legal agrees" false (Strategy.legal s)

(* The quorum tables are computed once per strategy; the oracle is the
   per-operation derivation they replace — every mask from the full set
   down, the minimal ones kept, then those of least cardinality.  Order
   matters as much as content: a targeted client picks by position. *)
let spec_minimal ok n =
  let all = ref [] in
  for m = 1 to Strategy.full n do
    if ok m then all := m :: !all
  done;
  let masks = !all in
  List.filter
    (fun q ->
      not (List.exists (fun q' -> q' <> q && q' land lnot q = 0) masks))
    masks

let spec_smallest masks =
  let card =
    List.fold_left (fun m q -> min m (Strategy.popcount q)) max_int masks
  in
  List.filter (fun q -> Strategy.popcount q = card) masks

let test_quorum_tables () =
  let families n =
    let maj = Strategy.majority n in
    let total = n + 1 in
    let r = (total / 2) + 1 in
    [ Strategy.rowa n; maj; Strategy.primary n;
      Strategy.weighted ~name:"w"
        ~votes:(Array.init n (fun i -> if i = 0 then 2 else 1))
        ~r ~w:(total - r + 1) ]
    @ List.filter_map
        (fun rows ->
          if n mod rows = 0 then Some (Strategy.grid ~rows ~cols:(n / rows))
          else None)
        (List.init n succ)
    @ List.init (min 3 n) (fun g -> Strategy.tree ~groups:(g + 1) n)
    @ Store.Autotune.candidates n
  in
  let pairs n =
    let cands = Store.Autotune.candidates n in
    List.concat_map
      (fun a -> List.map (fun b -> Store.Autotune.joint a b) cands)
      cands
  in
  let checked = ref 0 in
  for n = 1 to 9 do
    List.iter
      (fun (s : Strategy.t) ->
        incr checked;
        let label side = Fmt.str "n=%d %s %s" n s.Strategy.name side in
        let reads = spec_minimal s.Strategy.read_ok n
        and writes = spec_minimal s.Strategy.write_ok n in
        Alcotest.(check (list int)) (label "minimal reads") reads
          (Strategy.minimal_read_quorums s);
        Alcotest.(check (list int)) (label "minimal writes") writes
          (Strategy.minimal_write_quorums s);
        Alcotest.(check (list int)) (label "smallest reads")
          (spec_smallest reads)
          (Strategy.smallest_read_quorums s);
        Alcotest.(check (list int)) (label "smallest writes")
          (spec_smallest writes)
          (Strategy.smallest_write_quorums s))
      (families n @ pairs n)
  done;
  Alcotest.(check bool) "strategies checked" true (!checked > 500)

let test_strategy_weighted_rejects () =
  Alcotest.check_raises "r+w<=v"
    (Invalid_argument "Strategy.weighted: r + w must exceed v") (fun () ->
      ignore (Strategy.weighted ~name:"bad" ~votes:[| 1; 1; 1 |] ~r:1 ~w:2))

let prop_weighted_strategies_legal =
  QCheck.Test.make ~count:200 ~name:"random weighted strategies legal"
    QCheck.(pair (int_range 0 100_000) (int_range 1 6))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let votes = Array.init n (fun _ -> 1 + Prng.int rng 3) in
      let total = Array.fold_left ( + ) 0 votes in
      let r = 1 + Prng.int rng total in
      let w = total - r + 1 in
      Strategy.legal (Strategy.weighted ~name:"w" ~votes ~r ~w))

(* analytic availability: closed forms for the classical schemes *)
let test_availability_closed_forms () =
  let p = 0.9 and n = 5 in
  let read_rowa, write_rowa = Strategy.availability (Strategy.rowa n) ~p in
  (* read-one: 1 - (1-p)^n; write-all: p^n *)
  Alcotest.(check (float 1e-9)) "rowa read" (1.0 -. ((1.0 -. p) ** 5.0)) read_rowa;
  Alcotest.(check (float 1e-9)) "rowa write" (p ** 5.0) write_rowa;
  let read_m, write_m = Strategy.availability (Strategy.majority n) ~p in
  Alcotest.(check (float 1e-9)) "majority symmetric" read_m write_m;
  let read_p, write_p = Strategy.availability (Strategy.primary n) ~p in
  Alcotest.(check (float 1e-9)) "primary read = p" p read_p;
  Alcotest.(check (float 1e-9)) "primary write = p" p write_p

let test_availability_ordering () =
  (* the paper-predicted shape at any p in (0,1): read availability
     rowa >= majority; write availability majority >= rowa *)
  List.iter
    (fun p ->
      let r_rowa, w_rowa = Strategy.availability (Strategy.rowa 5) ~p in
      let r_maj, w_maj = Strategy.availability (Strategy.majority 5) ~p in
      Alcotest.(check bool) "rowa reads win" true (r_rowa >= r_maj);
      Alcotest.(check bool) "majority writes win" true (w_maj >= w_rowa))
    [ 0.5; 0.7; 0.9; 0.99 ]

let test_mask_of_live () =
  Alcotest.(check int) "mask" 0b101
    (Strategy.mask_of_live ~n:3 (fun i -> i <> 1))

(* ---------- zipf ---------- *)

let test_zipf_monotone_cdf () =
  let z = Store.Workload.zipf ~n:50 ~s:1.0 in
  let rng = Prng.create 3 in
  for _ = 1 to 1000 do
    let k = Store.Workload.sample z rng in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 50)
  done

let test_zipf_skew () =
  let z = Store.Workload.zipf ~n:50 ~s:1.2 in
  let rng = Prng.create 4 in
  let hits = Array.make 50 0 in
  for _ = 1 to 10_000 do
    let k = Store.Workload.sample z rng in
    hits.(k) <- hits.(k) + 1
  done;
  Alcotest.(check bool) "rank 0 hottest" true (hits.(0) > hits.(10));
  Alcotest.(check bool) "rank 0 much hotter than tail" true
    (hits.(0) > 5 * max 1 hits.(40))

(* ---------- cluster consistency audit ---------- *)

let test_cluster_audit_clean () =
  (* across strategies, seeds, and failure regimes: zero violations *)
  List.iter
    (fun (name, strat, script) ->
      List.iter
        (fun seed ->
          let r =
            Store.Cluster.run
              {
                Store.Cluster.default_params with
                strategy = strat;
                script;
                seed;
                workload =
                  { Store.Workload.default_spec with ops_per_client = 150 };
              }
          in
          Alcotest.(check (list string))
            (Fmt.str "%s seed %d clean" name seed)
            [] r.Store.Cluster.audit_violations)
        [ 1; 2; 3 ])
    [
      ("majority", Store.Strategy.majority, []);
      ("rowa", Store.Strategy.rowa, []);
      ("grid", (fun _ -> Store.Strategy.grid ~rows:2 ~cols:3), []);
      ( "majority+failures",
        Store.Strategy.majority,
        [
          Harness.Script.Crash_storm { Sim.Failure.mtbf = 300.0; mttr = 60.0 };
        ] );
      ( "rowa+failures",
        Store.Strategy.rowa,
        [
          Harness.Script.Crash_storm { Sim.Failure.mtbf = 300.0; mttr = 60.0 };
        ] );
    ]

let test_cluster_grid_needs_matching_n () =
  (* grid 2x3 needs 6 replicas *)
  let r =
    Store.Cluster.run
      {
        Store.Cluster.default_params with
        n_replicas = 6;
        strategy = (fun _ -> Store.Strategy.grid ~rows:2 ~cols:3);
        workload = { Store.Workload.default_spec with ops_per_client = 50 };
      }
  in
  Alcotest.(check (list string)) "clean" [] r.Store.Cluster.audit_violations;
  Alcotest.(check bool) "ops ran" true (r.Store.Cluster.ok_reads > 0)

(* message loss stresses retransmission-free quorum assembly: ops may
   fail but never return wrong data *)
let test_cluster_lossy_network () =
  let r =
    Store.Cluster.run
      {
        Store.Cluster.default_params with
        loss = 0.2;
        timeout = 40.0;
        strategy = Store.Strategy.majority;
        workload = { Store.Workload.default_spec with ops_per_client = 150 };
      }
  in
  Alcotest.(check (list string)) "clean under loss" [] r.Store.Cluster.audit_violations

(* a cluster with no replicas is a bad param, not a run where every
   operation times out *)
let test_cluster_needs_replicas () =
  Alcotest.check_raises "n_replicas = 0"
    (Invalid_argument "Cluster.run: n_replicas must be >= 1") (fun () ->
      ignore
        (Store.Cluster.run
           { Store.Cluster.default_params with n_replicas = 0 }))

(* ---------- experiment shapes ---------- *)

let test_latency_shape () =
  let rows = Store.Experiments.latency_table () in
  let find name =
    List.find (fun r -> r.Store.Experiments.strategy = name) rows
  in
  let rowa = find "read-one/write-all" and maj = find "majority" in
  Alcotest.(check bool) "rowa reads faster" true
    (rowa.Store.Experiments.read.Sim.Stats.mean
    < maj.Store.Experiments.read.Sim.Stats.mean);
  Alcotest.(check bool) "majority writes faster" true
    (maj.Store.Experiments.write.Sim.Stats.mean
    < rowa.Store.Experiments.write.Sim.Stats.mean)

let test_crossover_shape () =
  let rows = Store.Experiments.crossover () in
  let at f =
    List.find
      (fun (r : Store.Experiments.crossover_row) ->
        r.Store.Experiments.read_fraction = f)
      rows
  in
  Alcotest.(check string) "write-heavy favours majority" "majority"
    (at 0.0).Store.Experiments.winner;
  Alcotest.(check string) "read-heavy favours rowa" "read-one/write-all"
    (at 0.99).Store.Experiments.winner

let test_reconfig_shape () =
  let rows = Store.Experiments.reconfig_experiment () in
  let rate phase =
    match List.find_opt (fun r -> r.Store.Experiments.phase = phase) rows with
    | Some r -> r.Store.Experiments.rate
    | None -> Alcotest.failf "phase %s missing" phase
  in
  Alcotest.(check bool) "healthy near-perfect" true (rate "A-healthy" > 0.98);
  Alcotest.(check bool) "failures hurt" true (rate "B-failed" < 0.8);
  Alcotest.(check bool) "reconfiguration restores" true
    (rate "D-reconfigured" > 0.95)

let test_gifford_rows () =
  let rows = Store.Experiments.gifford_examples () in
  Alcotest.(check int) "three examples" 3 (List.length rows);
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (g.Store.Experiments.label ^ " availabilities in [0,1]")
        true
        (g.read_avail_90 >= 0.0 && g.read_avail_90 <= 1.0
        && g.write_avail_90 >= 0.0
        && g.write_avail_90 <= 1.0))
    rows;
  (* the read-optimized example reads faster than it writes *)
  let g1 = List.hd rows in
  Alcotest.(check bool) "G1 reads cheaper" true
    (g1.Store.Experiments.read_latency < g1.write_latency)

let test_seeds_must_be_positive () =
  Alcotest.check_raises "shard_table ~seeds:0"
    (Invalid_argument "Experiments.shard_table: seeds must be >= 1")
    (fun () -> ignore (Store.Experiments.shard_table ~seeds:0 ()));
  Alcotest.check_raises "tune_table ~seeds:0"
    (Invalid_argument "Experiments.tune_table: seeds must be >= 1")
    (fun () -> ignore (Store.Experiments.tune_table ~seeds:0 ()));
  Alcotest.check_raises "txn_table ~seeds:0"
    (Invalid_argument "Experiments.txn_table: seeds must be >= 1")
    (fun () -> ignore (Store.Experiments.txn_table ~seeds:0))

(* ---------- failure edge cases ---------- *)

(* every replica dead: operations must fail cleanly, audit stays clean *)
let test_total_outage () =
  let sim = Sim.Core.create ~seed:3 in
  let replica_names = List.init 3 (fun i -> Fmt.str "r%d" i) in
  let net =
    Sim.Net.create ~sim ~nodes:(replica_names @ [ "c0" ]) ()
  in
  let replicas = List.map (fun name -> Store.Replica.create ~name ()) replica_names in
  List.iter (fun r -> Store.Replica.attach r ~net) replicas;
  List.iter (fun r -> Sim.Net.crash net r) replica_names;
  let client =
    Store.Client.create ~name:"c0" ~sim ~net
      ~replicas:(Array.of_list replica_names)
      ~strategy:(Store.Strategy.majority 3) ~timeout:20.0 ()
  in
  Store.Client.attach client;
  let failures = ref 0 in
  Store.Client.read client ~key:"k" ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
      if not ok then incr failures);
  Store.Client.write client ~key:"k" ~value:1
    ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ -> if not ok then incr failures);
  Sim.Core.run sim;
  Alcotest.(check int) "both ops fail" 2 !failures

(* the install primitive used by reconfiguration migration *)
let test_install_primitive () =
  let sim = Sim.Core.create ~seed:4 in
  let replica_names = List.init 3 (fun i -> Fmt.str "r%d" i) in
  let net = Sim.Net.create ~sim ~nodes:(replica_names @ [ "c0" ]) () in
  let replicas = List.map (fun name -> Store.Replica.create ~name ()) replica_names in
  List.iter (fun r -> Store.Replica.attach r ~net) replicas;
  let client =
    Store.Client.create ~name:"c0" ~sim ~net
      ~replicas:(Array.of_list replica_names)
      ~strategy:(Store.Strategy.majority 3) ()
  in
  Store.Client.attach client;
  let read_back = ref (-1) in
  Store.Client.install client ~key:"k" ~vn:7 ~value:99
    ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
      Alcotest.(check bool) "install ok" true ok;
      Store.Client.read client ~key:"k"
        ~on_done:(fun ~ok ~vn ~value ~latency:_ ->
          Alcotest.(check bool) "read ok" true ok;
          Alcotest.(check int) "version preserved" 7 vn;
          read_back := value));
  Sim.Core.run sim;
  Alcotest.(check int) "installed value read back" 99 !read_back

(* stale installs (lower version) must not clobber newer data *)
let test_stale_install_ignored () =
  let r = Store.Replica.create ~name:"r" () in
  Hashtbl.replace r.Store.Replica.data "k" (5, 50);
  (* simulate a direct stale install via the protocol handler: use a
     small net *)
  let sim = Sim.Core.create ~seed:5 in
  let net = Sim.Net.create ~sim ~nodes:[ "r"; "c" ] () in
  Store.Replica.attach r ~net;
  Sim.Net.register net ~node:"c" (fun ~src:_ _ -> ());
  Sim.Net.send net ~src:"c" ~dst:"r"
    (Store.Protocol.Install_req { rid = 0; key = "k"; vn = 3; value = 30; ctx = None });
  Sim.Core.run sim;
  Alcotest.(check (pair int int)) "newer survives" (5, 50)
    (Store.Replica.lookup r "k")

(* read repair pushes the newest version to stale replicas *)
let test_read_repair_fixes_stale () =
  let sim = Sim.Core.create ~seed:8 in
  let replica_names = List.init 3 (fun i -> Fmt.str "r%d" i) in
  let net = Sim.Net.create ~sim ~nodes:(replica_names @ [ "c0" ]) () in
  let replicas = List.map (fun name -> Store.Replica.create ~name ()) replica_names in
  List.iter (fun r -> Store.Replica.attach r ~net) replicas;
  (* r2 is stale by hand *)
  let r0 = List.nth replicas 0 and r2 = List.nth replicas 2 in
  Hashtbl.replace r0.Store.Replica.data "k" (5, 50);
  Hashtbl.replace (List.nth replicas 1).Store.Replica.data "k" (5, 50);
  Hashtbl.replace r2.Store.Replica.data "k" (2, 20);
  let client =
    Store.Client.create ~name:"c0" ~sim ~net
      ~replicas:(Array.of_list replica_names)
      ~strategy:
        ((* read-all so the stale replica is among the replies *)
         Store.Strategy.make ~name:"read-all" ~n:3
           ~read_ok:(fun m -> m = 0b111)
           ~write_ok:(fun m -> m <> 0))
      ~read_repair:true ()
  in
  Store.Client.attach client;
  Store.Client.read client ~key:"k" ~on_done:(fun ~ok ~vn ~value ~latency:_ ->
      Alcotest.(check bool) "read ok" true ok;
      Alcotest.(check int) "newest version" 5 vn;
      Alcotest.(check int) "newest value" 50 value);
  Sim.Core.run sim;
  Alcotest.(check int) "repair sent" 1
    (Obs.Metrics.value client.Store.Client.repairs_sent);
  Alcotest.(check (pair int int)) "stale replica repaired" (5, 50)
    (Store.Replica.lookup r2 "k")

let test_read_repair_experiment_shape () =
  match Store.Experiments.read_repair_experiment () with
  | [ off; on ] ->
      Alcotest.(check bool) "failures produce staleness" true
        (off.Store.Experiments.staleness_mid > 0.1);
      Alcotest.(check bool) "without repair, staleness persists" true
        (off.staleness_end >= off.staleness_mid -. 0.01);
      Alcotest.(check bool) "with repair, staleness vanishes" true
        (on.Store.Experiments.staleness_end < 0.05);
      Alcotest.(check bool) "repairs were sent" true (on.repairs_sent > 0)
  | _ -> Alcotest.fail "expected two rows"

(* analytic availability is monotone in p for every strategy *)
let prop_availability_monotone =
  QCheck.Test.make ~count:50 ~name:"availability monotone in p"
    QCheck.(pair (float_bound_exclusive 0.49) (int_range 2 7))
    (fun (dp, n) ->
      let p1 = 0.5 -. dp and p2 = 0.5 +. dp in
      List.for_all
        (fun s ->
          let r1, w1 = Strategy.availability s ~p:p1 in
          let r2, w2 = Strategy.availability s ~p:p2 in
          r2 +. 1e-12 >= r1 && w2 +. 1e-12 >= w1)
        [ Strategy.rowa n; Strategy.majority n; Strategy.primary n ])

(* a pinned PRNG state makes the drawn cases — and therefore the whole
   suite — deterministic run to run *)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "store.strategy",
      [
        Alcotest.test_case "families legal" `Quick test_strategy_legal;
        Alcotest.test_case "minimum quorum sizes" `Quick test_strategy_min_quorums;
        Alcotest.test_case "weighted validation" `Quick test_strategy_weighted_rejects;
        Alcotest.test_case "empty read quorum is illegal" `Quick
          test_legal_empty_read_quorum;
        Alcotest.test_case "quorum tables match the derivation" `Quick
          test_quorum_tables;
        qcheck prop_weighted_strategies_legal;
        Alcotest.test_case "closed-form availability" `Quick
          test_availability_closed_forms;
        Alcotest.test_case "availability ordering" `Quick test_availability_ordering;
        Alcotest.test_case "mask_of_live" `Quick test_mask_of_live;
      ] );
    ( "store.workload",
      [
        Alcotest.test_case "zipf sampling range" `Quick test_zipf_monotone_cdf;
        Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
      ] );
    ( "store.cluster",
      [
        Alcotest.test_case "audit clean across regimes" `Slow
          test_cluster_audit_clean;
        Alcotest.test_case "grid cluster" `Quick test_cluster_grid_needs_matching_n;
        Alcotest.test_case "lossy network" `Quick test_cluster_lossy_network;
        Alcotest.test_case "no replicas rejected" `Quick
          test_cluster_needs_replicas;
      ] );
    ( "store.failures",
      [
        Alcotest.test_case "total outage fails cleanly" `Quick test_total_outage;
        Alcotest.test_case "install primitive" `Quick test_install_primitive;
        Alcotest.test_case "stale install ignored" `Quick
          test_stale_install_ignored;
        Alcotest.test_case "read repair fixes stale replica" `Quick
          test_read_repair_fixes_stale;
        Alcotest.test_case "read repair experiment shape" `Quick
          test_read_repair_experiment_shape;
        qcheck prop_availability_monotone;
      ] );
    ( "store.experiments",
      [
        Alcotest.test_case "latency shape (Q2)" `Slow test_latency_shape;
        Alcotest.test_case "crossover shape (Q3)" `Slow test_crossover_shape;
        Alcotest.test_case "reconfiguration shape (Q4)" `Quick test_reconfig_shape;
        Alcotest.test_case "gifford examples (G1-G3)" `Quick test_gifford_rows;
        Alcotest.test_case "seeds < 1 rejected" `Quick
          test_seeds_must_be_positive;
      ] );
  ]

(* ---------- partition nemesis ---------- *)

let test_partition_nemesis_consistency () =
  (* random bipartitions every ~150 time units: availability drops but
     the audit must remain clean for quorum strategies *)
  List.iter
    (fun (name, strat) ->
      List.iter
        (fun seed ->
          let r =
            Store.Cluster.run
              {
                Store.Cluster.default_params with
                strategy = strat;
                script = Harness.Script.of_partitions 150.0;
                timeout = 40.0;
                workload =
                  { Store.Workload.default_spec with ops_per_client = 200 };
                seed;
              }
          in
          Alcotest.(check (list string))
            (Fmt.str "%s seed %d: clean under partitions" name seed)
            [] r.Store.Cluster.audit_violations;
          Alcotest.(check bool)
            (Fmt.str "%s seed %d: some ops survive" name seed)
            true
            (r.ok_reads + r.ok_writes > 0))
        [ 1; 2; 3; 4 ])
    [ ("majority", Store.Strategy.majority); ("rowa", Store.Strategy.rowa) ]

let test_partition_nemesis_hurts_availability () =
  let run script =
    Store.Cluster.availability
      (Store.Cluster.run
         {
           Store.Cluster.default_params with
           script;
           timeout = 40.0;
           workload = { Store.Workload.default_spec with ops_per_client = 200 };
           seed = 7;
         })
  in
  let healthy = run []
  and partitioned = run (Harness.Script.of_partitions 150.0) in
  Alcotest.(check bool)
    (Fmt.str "partitions reduce availability (%.3f < %.3f)" partitioned healthy)
    true
    (partitioned < healthy)

let nemesis_suite =
  ( "store.nemesis",
    [
      Alcotest.test_case "consistency under random partitions" `Slow
        test_partition_nemesis_consistency;
      Alcotest.test_case "partitions hurt availability" `Quick
        test_partition_nemesis_hurts_availability;
    ] )

let suites = suites @ [ nemesis_suite ]

(* ---------- optimal configurations ---------- *)

let test_optimal_dominates_classics () =
  List.iter
    (fun (r : Store.Experiments.optimum_row) ->
      Alcotest.(check bool)
        (Fmt.str "p=%.2f f=%.2f: optimum >= rowa" r.Store.Experiments.p
           r.read_fraction)
        true
        (r.score +. 1e-9 >= r.rowa_score);
      Alcotest.(check bool)
        (Fmt.str "p=%.2f f=%.2f: optimum >= majority" r.Store.Experiments.p
           r.read_fraction)
        true
        (r.score +. 1e-9 >= r.majority_score))
    (Store.Experiments.optimal_configurations ())

let test_optimal_thresholds_legal () =
  List.iter
    (fun (r : Store.Experiments.optimum_row) ->
      let total = List.fold_left ( + ) 0 r.Store.Experiments.votes in
      Alcotest.(check int) "minimal legality" (total + 1) (r.r + r.w))
    (Store.Experiments.optimal_configurations ())

let optimal_suite =
  ( "store.optimal",
    [
      Alcotest.test_case "optimum dominates classical extremes" `Slow
        test_optimal_dominates_classics;
      Alcotest.test_case "optimal thresholds minimally legal" `Slow
        test_optimal_thresholds_legal;
    ] )

let suites = suites @ [ optimal_suite ]

(* ---------- targeted quorums and load ---------- *)

let test_targeted_mode_consistent () =
  (* the audit must stay clean in targeted mode too *)
  List.iter
    (fun seed ->
      let r =
        Store.Cluster.run
          {
            Store.Cluster.default_params with
            targeting = `Quorum;
            workload = { Store.Workload.default_spec with ops_per_client = 150 };
            seed;
          }
      in
      Alcotest.(check (list string))
        (Fmt.str "seed %d clean (targeted)" seed)
        [] r.Store.Cluster.audit_violations;
      Alcotest.(check bool) "ops ran" true (r.ok_reads + r.ok_writes > 0))
    [ 1; 2; 3 ]

let test_minimal_quorums () =
  let s = Store.Strategy.majority 4 in
  let qs = Store.Strategy.minimal_read_quorums s in
  (* all 3-of-4 subsets *)
  Alcotest.(check int) "C(4,3) minimal quorums" 4 (List.length qs);
  List.iter
    (fun q -> Alcotest.(check int) "size 3" 3 (Store.Strategy.popcount q))
    qs;
  let rowa = Store.Strategy.rowa 4 in
  Alcotest.(check int) "rowa minimal reads are singletons" 4
    (List.length (Store.Strategy.minimal_read_quorums rowa));
  Alcotest.(check int) "rowa minimal write is the full set" 1
    (List.length (Store.Strategy.minimal_write_quorums rowa))

let test_load_shape () =
  let rows = Store.Experiments.load_table () in
  let find name mode =
    List.find
      (fun (r : Store.Experiments.load_row) ->
        r.strategy_name = name && r.mode = mode)
      rows
  in
  (* targeting cuts messages *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ ": targeted uses fewer messages")
        true
        ((find name "targeted").messages < (find name "broadcast").messages))
    [ "majority-6"; "grid-2x3"; "primary-weighted" ];
  (* the weighted scheme hot-spots its big site under targeting;
     majority and grid stay (near) flat *)
  Alcotest.(check bool) "primary-weighted hot-spots" true
    ((find "primary-weighted" "targeted").load_imbalance > 1.8);
  Alcotest.(check bool) "majority stays flat" true
    ((find "majority-6" "targeted").load_imbalance < 1.3);
  Alcotest.(check bool) "grid stays flat" true
    ((find "grid-2x3" "targeted").load_imbalance < 1.3);
  (* broadcast wins mean read latency (quorum-wide hedging) *)
  Alcotest.(check bool) "broadcast reads faster" true
    ((find "majority-6" "broadcast").read_mean
    < (find "majority-6" "targeted").read_mean)

let load_suite =
  ( "store.load",
    [
      Alcotest.test_case "targeted mode consistent" `Quick
        test_targeted_mode_consistent;
      Alcotest.test_case "minimal quorum enumeration" `Quick test_minimal_quorums;
      Alcotest.test_case "load/messages shape" `Slow test_load_shape;
    ] )

let suites = suites @ [ load_suite ]
