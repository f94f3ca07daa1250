(* The practical replicated store: five replicas under a crash/recover
   failure process, four closed-loop clients running a zipfian
   read-mostly workload, quorum consensus per the paper's algorithm.
   Compares strategies, prints latency and availability, and runs the
   built-in consistency audit (quorum intersection at work).

   Run with:  dune exec examples/replicated_store.exe *)

let run_one name strategy =
  let r =
    Store.Cluster.run
      {
        Store.Cluster.default_params with
        strategy;
        script =
          [
            Harness.Script.Crash_storm
              { Sim.Failure.mtbf = 500.0; mttr = 80.0 };
          ];
        workload =
          {
            Store.Workload.default_spec with
            ops_per_client = 400;
            read_fraction = 0.8;
            zipf_s = 1.1;
          };
        seed = 2024;
      }
  in
  Fmt.pr "@.%s@." name;
  Fmt.pr "  reads : %a@." Sim.Stats.pp_summary r.Store.Cluster.reads;
  Fmt.pr "  writes: %a@." Sim.Stats.pp_summary r.writes;
  Fmt.pr "  ok=%d failed=%d availability=%.4f@."
    (r.ok_reads + r.ok_writes)
    (r.failed_reads + r.failed_writes)
    (Store.Cluster.availability r);
  Fmt.pr "  network: sent=%d delivered=%d dropped=%d@." r.net.Sim.Net.sent
    r.net.delivered r.net.dropped;
  (match r.audit_violations with
  | [] -> Fmt.pr "  consistency audit: clean@."
  | vs ->
      Fmt.pr "  consistency audit: %d VIOLATIONS@." (List.length vs);
      List.iter (fun v -> Fmt.pr "    %s@." v) vs);
  r

let () =
  Fmt.pr
    "replicated key-value store: 5 replicas, crash/recover failures \
     (p~%.2f/site), 4 clients, zipf keys, 80%% reads@."
    (Sim.Failure.availability { Sim.Failure.mtbf = 500.0; mttr = 80.0 });
  let rowa = run_one "read-one/write-all" Store.Strategy.rowa in
  let maj = run_one "majority" Store.Strategy.majority in
  let grid =
    run_one "grid 1x5-ish (weighted)" (fun n ->
        Store.Strategy.weighted ~name:"w21111"
          ~votes:(Array.init n (fun i -> if i = 0 then 2 else 1))
          ~r:2 ~w:(n + 1))
  in
  ignore grid;
  Fmt.pr "@.=== headline comparison ===@.";
  Fmt.pr "read p50:  rowa %.2f vs majority %.2f (rowa should win)@."
    rowa.Store.Cluster.reads.Sim.Stats.p50 maj.Store.Cluster.reads.Sim.Stats.p50;
  Fmt.pr "write availability under failures: rowa %.4f vs majority %.4f \
          (majority should win)@."
    (let ok = rowa.ok_writes and bad = rowa.failed_writes in
     float_of_int ok /. float_of_int (max 1 (ok + bad)))
    (let ok = maj.ok_writes and bad = maj.failed_writes in
     float_of_int ok /. float_of_int (max 1 (ok + bad)))
