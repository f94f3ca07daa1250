(* Tests for the replica-side apply pipeline (Sim.Storage + the
   Replica apply queue) and the adaptive batching window:

   - the storage device model: serialized, deterministic, validated
   - ack-after-fsync: an install's reply never precedes durability
   - group commit amortizes fsyncs vs the naive per-install discipline
   - with storage_cost = fsync_cost = 0, default runs stay
     byte-identical to the pre-pipeline golden trace digests
   - nemesis (partitions + shard kill) with the pipeline enabled keeps
     the serializability audit clean
   - the AIMD window controller: unit behaviour, validation, and the
     cluster-level acceptance (matches static coalescing on bursts,
     adds no window latency on uniform low-rate workloads) *)

module Core = Sim.Core
module Net = Sim.Net
module Storage = Sim.Storage
module Window = Rpc.Window

(* ---------- Sim.Storage: the device model ---------- *)

let test_storage_serializes () =
  let sim = Core.create ~seed:1 in
  let st = Storage.create ~sim ~name:"d" ~write_cost:0.5 ~fsync_cost:2.0 () in
  let log = ref [] in
  (* three submissions at t=0 must execute back to back, not overlap *)
  Storage.submit st ~writes:2 (fun () -> log := ("w2", Core.now sim) :: !log);
  Storage.fsync st (fun () -> log := ("f", Core.now sim) :: !log);
  Storage.submit st ~writes:1 (fun () -> log := ("w1", Core.now sim) :: !log);
  Core.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "serialized completions"
    [ ("w2", 1.0); ("f", 3.0); ("w1", 3.5) ]
    (List.rev !log);
  Alcotest.(check int) "writes counted" 3 (Storage.writes st);
  Alcotest.(check int) "fsyncs counted" 1 (Storage.fsyncs st);
  Alcotest.(check (float 1e-9)) "device idle" 3.5 (Storage.busy_until st)

let test_storage_zero_cost_is_immediate () =
  let sim = Core.create ~seed:1 in
  let st = Storage.create ~sim ~name:"d" () in
  let at = ref nan in
  Core.schedule sim ~delay:7.0 (fun () ->
      Storage.submit st ~writes:5 (fun () ->
          Storage.fsync st (fun () -> at := Core.now sim)));
  Core.run sim;
  Alcotest.(check (float 0.0)) "free device completes at submit time" 7.0 !at

let test_storage_validation () =
  let sim = Core.create ~seed:1 in
  Alcotest.check_raises "negative write_cost"
    (Invalid_argument "Sim.Storage.create: write_cost must be finite and >= 0")
    (fun () ->
      ignore (Storage.create ~sim ~name:"d" ~write_cost:(-1.0) ()));
  Alcotest.check_raises "nan fsync_cost"
    (Invalid_argument "Sim.Storage.create: fsync_cost must be finite and >= 0")
    (fun () -> ignore (Storage.create ~sim ~name:"d" ~fsync_cost:nan ()));
  Alcotest.check_raises "negative writes"
    (Invalid_argument "Sim.Storage.submit: writes must be >= 0")
    (fun () ->
      Storage.submit (Storage.create ~sim ~name:"d" ()) ~writes:(-1) ignore)

(* ---------- the replica apply queue ---------- *)

(* drive one replica directly through [serve], capturing replies *)
let replica_world ~group_commit ~fsync_cost =
  let sim = Core.create ~seed:2 in
  let st = Storage.create ~sim ~name:"r0:disk" ~fsync_cost () in
  let r =
    Store.Replica.create ~name:"r0" ~storage:st ~group_commit ()
  in
  let tr = Obs.Trace.create ~capacity:1024 () in
  let replies = ref [] in
  let install ~rid ~vn =
    Store.Replica.serve r ~tr
      ~reply:(fun m -> replies := (m, Core.now sim) :: !replies)
      (Store.Protocol.Install_req { rid; key = "k"; vn; value = vn * 10; ctx = None })
  in
  (sim, st, r, replies, install)

let test_ack_after_fsync () =
  let sim, st, r, replies, install = replica_world ~group_commit:true ~fsync_cost:3.0 in
  install ~rid:1 ~vn:1;
  (* the write (cost 0) applies at t=0; the fsync completes at t=3 —
     in between, queries already see the value but the ack is held *)
  Core.schedule sim ~delay:1.0 (fun () ->
      Alcotest.(check (pair int int)) "applied before the ack" (1, 10)
        (Store.Replica.lookup r "k");
      Alcotest.(check int) "no ack before the fsync" 0 (List.length !replies));
  Core.run sim;
  (* ...but the ack waits for the fsync *)
  (match !replies with
  | [ (Store.Protocol.Install_ack { rid = 1; key = "k" }, t) ] ->
      Alcotest.(check (float 1e-9)) "ack at fsync completion" 3.0 t
  | _ -> Alcotest.fail "expected exactly one install ack");
  Alcotest.(check int) "one fsync" 1 (Storage.fsyncs st)

let test_group_commit_amortizes_replica_level () =
  (* a same-instant burst of 8 installs: naive = 8 fsyncs, group
     commit = far fewer (first drains alone, the rest group) *)
  let burst group_commit =
    let sim, st, _r, replies, install =
      replica_world ~group_commit ~fsync_cost:3.0
    in
    for i = 1 to 8 do
      install ~rid:i ~vn:i
    done;
    Core.run sim;
    Alcotest.(check int) "all 8 acked" 8 (List.length !replies);
    (Storage.fsyncs st, Core.now sim)
  in
  let naive_fsyncs, naive_t = burst false in
  let group_fsyncs, group_t = burst true in
  Alcotest.(check int) "naive: one fsync per install" 8 naive_fsyncs;
  Alcotest.(check int) "group: first alone, the rest as one group" 2
    group_fsyncs;
  Alcotest.(check bool)
    (Fmt.str "group commit finishes earlier (%.1f < %.1f)" group_t naive_t)
    true (group_t < naive_t)

let test_apply_in_version_order () =
  (* installs enqueued out of version order within one group must
     apply in version order: the highest vn wins, not the last
     arrival *)
  let sim, _st, r, replies, install =
    replica_world ~group_commit:true ~fsync_cost:1.0
  in
  (* rid 1 drains alone; 3, 2 (out of order) form the next group *)
  install ~rid:1 ~vn:1;
  install ~rid:3 ~vn:3;
  install ~rid:2 ~vn:2;
  Core.run sim;
  Alcotest.(check int) "all acked" 3 (List.length !replies);
  Alcotest.(check (pair int int)) "highest version wins" (3, 30)
    (Store.Replica.lookup r "k")

(* ---------- byte-identity with a zero-cost pipeline ---------- *)

let test_zero_cost_pipeline_golden () =
  (* the pinned pre-router digests of Test_shard must also hold with
     the pipeline knobs at their defaults spelled out explicitly:
     storage_cost = fsync_cost = 0 attaches no device, so the serve
     path is the historical synchronous one, byte for byte *)
  List.iter
    (fun (seed, md5, len) ->
      let r =
        Store.Cluster.run
          {
            Store.Cluster.default_params with
            n_replicas = 5;
            n_clients = 3;
            workload = { Store.Workload.default_spec with ops_per_client = 15 };
            storage_cost = 0.0;
            fsync_cost = 0.0;
            group_commit = true;
            adaptive_window = None;
            seed;
            trace_capacity = 262144;
          }
      in
      let s = Obs.Export.jsonl r.Store.Cluster.trace in
      Alcotest.(check int) (Fmt.str "seed %d trace length" seed) len
        (String.length s);
      Alcotest.(check string)
        (Fmt.str "seed %d trace digest" seed)
        md5
        (Digest.to_hex (Digest.string s)))
    Test_shard.golden

(* ---------- cluster-level amortization ---------- *)

let io_params ~group_commit ~seed =
  {
    Store.Cluster.default_params with
    n_replicas = 3;
    n_clients = 4;
    workload =
      {
        Store.Workload.default_spec with
        ops_per_client = 60;
        read_fraction = 0.3;
        zipf_s = 1.1;
        burst = 8;
      };
    storage_cost = 0.05;
    fsync_cost = 5.0;
    group_commit;
    seed;
  }

let test_group_commit_amortizes_cluster_level () =
  let naive = Store.Cluster.run (io_params ~group_commit:false ~seed:42) in
  let group = Store.Cluster.run (io_params ~group_commit:true ~seed:42) in
  Alcotest.(check bool) "audit clean (naive)" true
    (naive.Store.Cluster.audit_violations = []);
  Alcotest.(check bool) "audit clean (group)" true
    (group.Store.Cluster.audit_violations = []);
  let fpi (r : Store.Cluster.results) =
    float_of_int r.Store.Cluster.fsyncs /. float_of_int r.Store.Cluster.installs
  in
  Alcotest.(check (float 1e-9)) "naive: one fsync per install" 1.0 (fpi naive);
  Alcotest.(check bool)
    (Fmt.str "group commit amortizes >= 2x (%.3f vs %.3f fsyncs/install)"
       (fpi naive) (fpi group))
    true
    (fpi naive /. fpi group >= 2.0)

(* ---------- nemesis: pipeline + partitions + shard kill ---------- *)

let prop_pipeline_nemesis_audit_clean =
  QCheck.Test.make ~count:6
    ~name:"group commit + partitions + shard kill keep the audit clean"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let r =
        Store.Cluster.run
          {
            Store.Cluster.default_params with
            n_replicas = 3;
            n_clients = 3;
            n_shards = 3;
            targeting = `Quorum;
            policy =
              Rpc.Policy.with_hedge ~base:(Rpc.Policy.with_retries 2) 12.0;
            script =
              Harness.Script.(
                of_partitions 150.0 @ [ At (500.0, Kill_shard 0) ]);
            storage_cost = 0.05;
            fsync_cost = 2.0;
            group_commit = true;
            workload =
              {
                Store.Workload.default_spec with
                ops_per_client = 40;
                read_fraction = 0.5;
                zipf_s = 1.1;
                burst = 4;
              };
            seed;
          }
      in
      match r.Store.Cluster.audit_violations with
      | [] -> true
      | v :: _ -> QCheck.Test.fail_report v)

(* ---------- the AIMD window controller ---------- *)

let test_window_aimd_unit () =
  let c =
    Window.create
      {
        Window.min_window = 0.0;
        max_window = 4.0;
        initial = 0.0;
        add = 1.0;
        mult = 0.5;
        busy = 2;
      }
  in
  Alcotest.(check (float 0.0)) "starts at initial" 0.0 (Window.window c);
  Window.observe c ~peak:3;
  Window.observe c ~peak:2;
  Alcotest.(check (float 1e-9)) "additive increase" 2.0 (Window.window c);
  Window.observe c ~peak:8;
  Window.observe c ~peak:8;
  Window.observe c ~peak:8;
  Alcotest.(check (float 1e-9)) "capped at max" 4.0 (Window.window c);
  Window.observe c ~peak:1;
  Alcotest.(check (float 1e-9)) "multiplicative decrease" 2.0 (Window.window c);
  Window.observe c ~peak:0;
  Window.observe c ~peak:1;
  Window.observe c ~peak:1;
  Window.observe c ~peak:1;
  Window.observe c ~peak:1;
  Alcotest.(check (float 0.0)) "decays all the way to the floor" 0.0
    (Window.window c);
  Alcotest.(check int) "widenings counted" 5 (Window.widenings c);
  Alcotest.(check int) "shrinkings counted" 6 (Window.shrinkings c)

let test_window_validation () =
  let ok c = Alcotest.(check bool) "valid" true (Result.is_ok (Window.validate c)) in
  let bad c = Alcotest.(check bool) "rejected" true (Result.is_error (Window.validate c)) in
  ok Window.default_config;
  bad { Window.default_config with Window.min_window = -1.0 };
  bad { Window.default_config with Window.max_window = nan };
  bad { Window.default_config with Window.initial = 100.0 };
  bad { Window.default_config with Window.add = 0.0 };
  bad { Window.default_config with Window.mult = 1.0 };
  bad { Window.default_config with Window.busy = 0 };
  Alcotest.check_raises "create rejects invalid configs"
    (Invalid_argument "Rpc.Window.create: busy must be >= 1") (fun () ->
      ignore (Window.create { Window.default_config with Window.busy = 0 }))

(* ---------- adaptive window: cluster-level acceptance ---------- *)

let window_params ~bursty ~seed =
  if bursty then
    {
      Store.Cluster.default_params with
      n_replicas = 3;
      n_clients = 4;
      workload =
        {
          Store.Workload.default_spec with
          ops_per_client = 60;
          read_fraction = 0.7;
          zipf_s = 1.1;
          burst = 8;
        };
      seed;
    }
  else
    {
      Store.Cluster.default_params with
      n_replicas = 3;
      n_clients = 4;
      workload =
        {
          Store.Workload.default_spec with
          ops_per_client = 60;
          read_fraction = 0.9;
          zipf_s = 0.0;
          think_time = 10.0;
          burst = 1;
        };
      seed;
    }

let test_adaptive_window_coalesces_bursts () =
  let p = window_params ~bursty:true ~seed:42 in
  let unbatched = Store.Cluster.run p in
  let adaptive =
    Store.Cluster.run
      { p with Store.Cluster.adaptive_window = Some Window.default_config }
  in
  Alcotest.(check bool) "audit clean" true
    (adaptive.Store.Cluster.audit_violations = []);
  let su = unbatched.Store.Cluster.net.Net.sent
  and sa = adaptive.Store.Cluster.net.Net.sent in
  (* static window 1.0 cuts this workload's messages ~5x; the
     controller must land in the same regime, not halfway *)
  Alcotest.(check bool)
    (Fmt.str "adaptive coalesces bursts (%d -> %d wire messages)" su sa)
    true
    (float_of_int sa <= 0.3 *. float_of_int su)

let test_adaptive_window_free_on_uniform () =
  (* on a uniform low-rate workload the controller sits at window 0,
     and a 0-delay flush runs at the same virtual instant as the send:
     results are identical to unbatched, latency included *)
  let p = window_params ~bursty:false ~seed:42 in
  let unbatched = Store.Cluster.run p in
  let adaptive =
    Store.Cluster.run
      { p with Store.Cluster.adaptive_window = Some Window.default_config }
  in
  let mean (r : Store.Cluster.results) =
    Store.Experiments.mean_op_latency r
  in
  Alcotest.(check int) "same wire messages"
    unbatched.Store.Cluster.net.Net.sent adaptive.Store.Cluster.net.Net.sent;
  Alcotest.(check (float 1e-9)) "same mean op latency" (mean unbatched)
    (mean adaptive);
  Alcotest.(check int) "same ok ops"
    Store.Cluster.(unbatched.ok_reads + unbatched.ok_writes)
    Store.Cluster.(adaptive.ok_reads + adaptive.ok_writes)

(* a pinned PRNG state makes the drawn cases — and therefore the whole
   suite — deterministic run to run *)
let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "sim.storage",
      [
        Alcotest.test_case "device serializes and counts" `Quick
          test_storage_serializes;
        Alcotest.test_case "zero-cost device is immediate" `Quick
          test_storage_zero_cost_is_immediate;
        Alcotest.test_case "creation validation" `Quick test_storage_validation;
      ] );
    ( "store.pipeline",
      [
        Alcotest.test_case "install acks only after fsync" `Quick
          test_ack_after_fsync;
        Alcotest.test_case "group commit amortizes a replica burst" `Quick
          test_group_commit_amortizes_replica_level;
        Alcotest.test_case "groups apply in version order" `Quick
          test_apply_in_version_order;
        Alcotest.test_case "zero-cost pipeline matches golden traces" `Slow
          test_zero_cost_pipeline_golden;
        Alcotest.test_case "group commit amortizes >= 2x cluster-wide" `Slow
          test_group_commit_amortizes_cluster_level;
        qcheck prop_pipeline_nemesis_audit_clean;
      ] );
    ( "rpc.window",
      [
        Alcotest.test_case "aimd unit behaviour" `Quick test_window_aimd_unit;
        Alcotest.test_case "config validation" `Quick test_window_validation;
        Alcotest.test_case "adaptive window coalesces bursts" `Slow
          test_adaptive_window_coalesces_bursts;
        Alcotest.test_case "adaptive window is free on uniform load" `Slow
          test_adaptive_window_free_on_uniform;
      ] );
  ]
