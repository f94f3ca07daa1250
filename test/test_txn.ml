(* Tests for cross-shard transactions (lib/store/txn.ml and the
   replica's prepared-state machinery): replica-level prepare / vote /
   decide mechanics, end-to-end commit and conflict behaviour over the
   cluster, the 2PC-vs-Paxos-Commit coordinator-kill ablation, a
   qcheck serializability property under partitions, and golden
   digests for a pinned 3-seed transaction workload. *)

module Core = Sim.Core
module P = Store.Protocol
module Replica = Store.Replica
module Cluster = Store.Cluster

let tr_off = Obs.Trace.create ~capacity:0 ~enabled:false ()

let handle r msg =
  match Replica.handle_one r ~tr:tr_off msg with
  | Some rep -> rep
  | None -> Alcotest.fail "expected a synchronous reply"

(* ---------- replica prepare / vote / decide mechanics ---------- *)

let test_replica_prepare_vote_decide () =
  let r = Replica.create ~name:"r0" () in
  (* seed a current version *)
  (match handle r (P.Install_req { rid = 1; key = "k0"; vn = 3; value = 30; ctx = None }) with
  | P.Install_ack _ -> ()
  | _ -> Alcotest.fail "install ack");
  let prep rid txid =
    P.Txn_prepare
      {
        rid;
        txid;
        writes = [ ("k0", 99) ];
        reads = [ "k1" ];
        acceptors = [ "r0" ];
        paxos = false;
        ctx = None;
      }
  in
  (* a yes-vote locks the footprint and snapshots versions *)
  (match handle r (prep 2 "c0#t0") with
  | P.Txn_vote { yes = true; kvs; _ } ->
      Alcotest.(check (list (triple string int int)))
        "snapshot carries footprint versions"
        [ ("k0", 3, 30); ("k1", 0, 0) ]
        kvs
  | _ -> Alcotest.fail "expected yes vote");
  Alcotest.(check (list string)) "in doubt" [ "c0#t0" ] (Replica.in_doubt r);
  Alcotest.(check (list (pair string string)))
    "locks held"
    [ ("k0", "c0#t0"); ("k1", "c0#t0") ]
    (Replica.locked_keys r);
  (* a duplicate prepare re-sends the identical vote *)
  (match handle r (prep 3 "c0#t0") with
  | P.Txn_vote { yes = true; kvs; _ } ->
      Alcotest.(check int) "same snapshot" 2 (List.length kvs)
  | _ -> Alcotest.fail "expected duplicate yes vote");
  (* a conflicting transaction is refused *)
  (match handle r (prep 4 "c1#t0") with
  | P.Txn_vote { yes = false; kvs = []; _ } -> ()
  | _ -> Alcotest.fail "expected no vote on conflict");
  (* commit installs at the decided version and releases the locks *)
  let decided = ref [] in
  Replica.set_on_decided r (fun ~txid ~commit ~writes:_ ->
      decided := (txid, commit) :: !decided);
  (match
     handle r
       (P.Txn_decide
          {
            rid = 5;
            txid = "c0#t0";
            commit = true;
            writes = [ ("k0", 4, 99) ];
            ctx = None;
          })
   with
  | P.Txn_decide_ack { applied = true; _ } -> ()
  | _ -> Alcotest.fail "expected applied ack");
  Alcotest.(check (pair int int)) "installed" (4, 99) (Replica.lookup r "k0");
  Alcotest.(check (list string)) "resolved" [] (Replica.in_doubt r);
  Alcotest.(check (list (pair string string)))
    "unlocked" [] (Replica.locked_keys r);
  Alcotest.(check (list (pair string bool)))
    "decision hook fired once" [ ("c0#t0", true) ] !decided;
  (* a retransmitted decide is idempotent and a late prepare is
     answered with the decision *)
  (match
     handle r
       (P.Txn_decide
          {
            rid = 6;
            txid = "c0#t0";
            commit = true;
            writes = [ ("k0", 4, 99) ];
            ctx = None;
          })
   with
  | P.Txn_decide_ack { applied = false; _ } -> ()
  | _ -> Alcotest.fail "expected unapplied ack on retransmission");
  (match handle r (prep 7 "c0#t0") with
  | P.Txn_decide { commit = true; _ } -> ()
  | _ -> Alcotest.fail "late prepare answered with decision");
  Alcotest.(check int) "hook fired exactly once" 1 (List.length !decided)

let test_replica_abort_releases () =
  let r = Replica.create ~name:"r0" () in
  (match
     handle r
       (P.Txn_prepare
          {
            rid = 1;
            txid = "c0#t1";
            writes = [ ("k2", 7) ];
            reads = [];
            acceptors = [ "r0" ];
            paxos = false;
            ctx = None;
          })
   with
  | P.Txn_vote { yes = true; _ } -> ()
  | _ -> Alcotest.fail "yes vote");
  (match
     handle r
       (P.Txn_decide
          { rid = 2; txid = "c0#t1"; commit = false; writes = []; ctx = None })
   with
  | P.Txn_decide_ack { applied = true; _ } -> ()
  | _ -> Alcotest.fail "abort ack");
  Alcotest.(check (pair int int)) "nothing installed" (0, 0)
    (Replica.lookup r "k2");
  Alcotest.(check (list (pair string string)))
    "unlocked" [] (Replica.locked_keys r)

(* Paxos acceptor logic on the decision register: promises are
   monotone, accepted values surface in phase 1, decided registers
   short-circuit. *)
let test_replica_acceptor_ballots () =
  let r = Replica.create ~name:"r0" () in
  (match handle r (P.Txn_p1a { rid = 1; txid = "t"; bal = 2 }) with
  | P.Txn_p1b { ok = true; accepted = None; _ } -> ()
  | _ -> Alcotest.fail "free register promises");
  (* a lower ballot is refused after the promise *)
  (match
     handle r
       (P.Txn_p2a
          { rid = 2; txid = "t"; bal = 1; commit = true; writes = []; ctx = None })
   with
  | P.Txn_p2b { ok = false; _ } -> ()
  | _ -> Alcotest.fail "lower ballot refused");
  (* the promised ballot's 2a is accepted *)
  (match
     handle r
       (P.Txn_p2a
          { rid = 3; txid = "t"; bal = 2; commit = true; writes = [ ("k", 1, 5) ]; ctx = None })
   with
  | P.Txn_p2b { ok = true; _ } -> ()
  | _ -> Alcotest.fail "promised ballot accepted");
  (* a later phase 1 reports the accepted value *)
  (match handle r (P.Txn_p1a { rid = 4; txid = "t"; bal = 7 }) with
  | P.Txn_p1b { ok = true; accepted = Some (2, true, [ ("k", 1, 5) ]); _ } -> ()
  | _ -> Alcotest.fail "accepted value reported")

(* ---------- end-to-end over the cluster ---------- *)

let txn_params ~mode ~seed ?(script = []) ?(n_clients = 3) ?(retries = 2) () =
  {
    Cluster.default_params with
    n_replicas = 3;
    n_clients;
    n_shards = 3;
    seed;
    script;
    workload =
      { Store.Workload.default_spec with n_keys = 24; think_time = 4.0 };
    txns =
      Some
        {
          Cluster.default_txn_spec with
          commit_mode = mode;
          txns_per_client = 12;
          txn_retries = retries;
        };
  }

let test_txn_cluster_smoke () =
  List.iter
    (fun mode ->
      let r = Cluster.run (txn_params ~mode ~seed:7 ()) in
      Alcotest.(check bool)
        (Fmt.str "%s: commits happened" (Store.Txn.mode_label mode))
        true (r.Cluster.ok_txns > 0);
      Alcotest.(check (list string))
        (Fmt.str "%s: audit clean" (Store.Txn.mode_label mode))
        [] r.Cluster.audit_violations;
      Alcotest.(check (list string))
        (Fmt.str "%s: nothing blocked" (Store.Txn.mode_label mode))
        [] r.Cluster.blocked_txns;
      Alcotest.(check bool)
        (Fmt.str "%s: decided covers acked" (Store.Txn.mode_label mode))
        true
        (r.Cluster.decided_txns >= r.Cluster.ok_txns))
    [ `Two_phase; `Paxos ]

(* the pinned ablation: a coordinator killed inside the commit window
   leaves 2PC with in-doubt participants forever, while Paxos Commit
   resolves them and the audit stays clean *)
let count_blocked mode seeds =
  List.fold_left
    (fun (blocked, dirty) seed ->
      let r =
        Cluster.run
          (txn_params ~mode ~seed ~script:Store.Experiments.txn_kill_script
             ~n_clients:3 ())
      in
      ( blocked + List.length r.Cluster.blocked_txns,
        dirty + List.length r.Cluster.audit_violations ))
    (0, 0) seeds

let test_coordinator_kill_ablation () =
  let seeds = [ 11; 12; 13; 14; 15; 16 ] in
  let blocked_2pc, dirty_2pc = count_blocked `Two_phase seeds in
  let blocked_paxos, dirty_paxos = count_blocked `Paxos seeds in
  Alcotest.(check bool)
    "2PC blocks under coordinator kills" true (blocked_2pc > 0);
  Alcotest.(check int) "Paxos Commit leaves nothing in doubt" 0 blocked_paxos;
  Alcotest.(check int) "2PC audit stays clean (ambiguity-aware)" 0 dirty_2pc;
  Alcotest.(check int) "Paxos audit stays clean" 0 dirty_paxos

(* ---------- serializability under partitions (qcheck) ---------- *)

let prop_txn_serializable_under_partitions =
  QCheck.Test.make ~count:12
    ~name:"concurrent cross-shard txns under partitions serialize"
    QCheck.(pair (int_bound 9999) (bool))
    (fun (seed, paxos) ->
      let mode = if paxos then `Paxos else `Two_phase in
      let p =
        {
          (txn_params ~mode ~seed ()) with
          script = Harness.Script.of_partitions 60.0;
          loss = 0.02;
        }
      in
      let r = Cluster.run p in
      if r.Cluster.audit_violations <> [] then
        QCheck.Test.fail_reportf "seed %d (%s): %a" seed
          (Store.Txn.mode_label mode)
          Fmt.(list ~sep:(any "; ") string)
          r.Cluster.audit_violations;
      true)

(* under a healing script, Paxos-Commit runs must also regain
   liveness: some transaction completes successfully after the heal *)
let test_txn_liveness_after_heal () =
  let p =
    txn_params ~mode:`Paxos ~seed:21 ~script:Store.Experiments.txn_kill_script
      ()
  in
  let r = Cluster.run p in
  match
    Harness.Check.liveness_after_heal ~script:Store.Experiments.txn_kill_script
      ~completions:r.Cluster.completions
  with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---------- golden digests (pinned 3-seed txn workload) ---------- *)

(* The digest pins the entire simulation outcome of the transaction
   workload — commit counts, latencies, net counters, the blocked set.
   Regenerate by printing [Cluster.digest] for these seeds if a
   deliberate behaviour change lands. *)
let golden_digests =
  [
    (101, "92243b5b820d0eca83ed90b69ab9cc49");
    (102, "d8086a9d4f0227d5802d65e2d8cbd01d");
    (103, "e9bdefb3a972afbabc2bc1030d860546");
  ]

let test_txn_digest_golden () =
  List.iter
    (fun (seed, expect) ->
      let digest = Cluster.digest (Cluster.run (txn_params ~mode:`Paxos ~seed ())) in
      let again = Cluster.digest (Cluster.run (txn_params ~mode:`Paxos ~seed ())) in
      Alcotest.(check string)
        (Fmt.str "seed %d reproducible" seed)
        digest again;
      if expect <> "" then
        Alcotest.(check string) (Fmt.str "seed %d pinned" seed) expect digest)
    golden_digests

let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "store.txn",
      [
        Alcotest.test_case "replica prepare/vote/decide" `Quick
          test_replica_prepare_vote_decide;
        Alcotest.test_case "abort releases locks" `Quick
          test_replica_abort_releases;
        Alcotest.test_case "acceptor ballot discipline" `Quick
          test_replica_acceptor_ballots;
        Alcotest.test_case "cluster txn smoke (both modes)" `Slow
          test_txn_cluster_smoke;
        Alcotest.test_case "coordinator-kill ablation: 2PC blocks, Paxos not"
          `Slow test_coordinator_kill_ablation;
        qcheck prop_txn_serializable_under_partitions;
        Alcotest.test_case "liveness after heal (paxos)" `Slow
          test_txn_liveness_after_heal;
        Alcotest.test_case "golden txn digests" `Slow test_txn_digest_golden;
      ] );
  ]
