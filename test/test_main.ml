(* Wall time per suite: every test case runs under a timer, and at
   exit one [suite-time <suite> <seconds>] line per suite is printed,
   slowest first, so a CI log shows where tier-1 time goes. *)
let suite_seconds : (string, float) Hashtbl.t = Hashtbl.create 64

let timed (suite, cases) =
  let time (name, speed, f) =
    let run x =
      let t0 = Unix.gettimeofday () in
      Fun.protect
        ~finally:(fun () ->
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt suite_seconds suite) in
          Hashtbl.replace suite_seconds suite (prev +. Unix.gettimeofday () -. t0))
        (fun () -> f x)
    in
    (name, speed, run)
  in
  (suite, List.map time cases)

let report_suite_times () =
  (* Alcotest's summary line may still sit unterminated in its buffer *)
  Format.printf "@.";
  Hashtbl.fold (fun suite s acc -> (suite, s) :: acc) suite_seconds []
  |> List.sort (fun (a, s) (b, t) ->
         match Float.compare t s with 0 -> String.compare a b | c -> c)
  |> List.iter (fun (suite, s) -> Printf.printf "suite-time %s %.3f\n" suite s)

let () =
  at_exit report_suite_times;
  Alcotest.run "quorum_nested"
    (List.map timed
       (Test_util.suites @ Test_ioa.suites @ Test_serial.suites
      @ Test_quorum.suites @ Test_recon.suites @ Test_cc.suites
      @ Test_sim.suites @ Test_store.suites @ Test_adt.suites @ Test_vp.suites
      @ Test_obs.suites @ Test_rpc.suites @ Test_shard.suites
      @ Test_pipeline.suites @ Test_attr.suites @ Test_lint.suites
      @ Test_harness.suites @ Test_txn.suites @ Test_tune.suites))
