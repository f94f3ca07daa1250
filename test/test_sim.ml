(* Tests for the discrete-event simulator: heap, clock, network,
   failures, statistics. *)

module Prng = Qc_util.Prng

(* ---------- heap ---------- *)

let drain_heap h =
  let rec go acc =
    if Sim.Heap.is_empty h then List.rev acc
    else
      let t = Sim.Heap.min_time h and s = Sim.Heap.min_seq h in
      let v = Sim.Heap.pop_min h in
      go ((t, s, v) :: acc)
  in
  go []

let test_heap_ordering () =
  let h = Sim.Heap.create () in
  List.iteri (fun i t -> Sim.Heap.push h t i t) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  Alcotest.(check (list (float 0.0)))
    "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ]
    (List.map (fun (t, _, _) -> t) (drain_heap h))

let test_heap_fifo_ties () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h 1.0 1 "first";
  Sim.Heap.push h 1.0 2 "second";
  Alcotest.(check string) "fifo" "first" (Sim.Heap.pop_min h);
  Alcotest.(check string) "fifo 2" "second" (Sim.Heap.pop_min h);
  Alcotest.(check bool) "drained" true (Sim.Heap.is_empty h);
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Sim.Heap.pop_min: empty heap") (fun () ->
      ignore (Sim.Heap.pop_min h))

let prop_heap_sorted =
  QCheck.Test.make ~count:100 ~name:"heap drains in key order"
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun times ->
      let h = Sim.Heap.create () in
      List.iteri (fun i t -> Sim.Heap.push h t i ()) times;
      let rec sorted = function
        | (t1, s1, ()) :: ((t2, s2, ()) :: _ as rest) ->
            (t1 < t2 || (t1 = t2 && s1 < s2)) && sorted rest
        | _ -> true
      in
      sorted (drain_heap h))

(* The spec-literal oracle: a list drained by polymorphic [compare] on
   [(time, seq)], the order the heap has always promised.  Ops are
   [Some time] (push) and [None] (pop); times come from a small set
   with [infinity] so ties are common, and seqs are distinct but not
   in push order, so the seq tie-break is exercised both ways. *)
let prop_heap_matches_model =
  let time =
    QCheck.Gen.(
      frequency
        [
          (4, oneofl [ 0.0; 1.0; 2.5; infinity ]);
          (1, float_bound_exclusive 5.0);
        ])
  in
  let op = QCheck.Gen.(frequency [ (3, map Option.some time); (2, return None) ]) in
  QCheck.Test.make ~count:300 ~name:"heap matches the (time, seq) model"
    QCheck.(make ~print:Print.(list (option float)) Gen.(list_size (0 -- 200) op))
    (fun ops ->
      let h = Sim.Heap.create () in
      let model = ref [] in
      let model_pop () =
        match List.sort (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2)) !model with
        | [] -> None
        | m :: rest ->
            model := rest;
            Some m
      in
      let heap_pop () =
        if Sim.Heap.is_empty h then None
        else
          let t = Sim.Heap.min_time h and s = Sim.Heap.min_seq h in
          Some (t, s, Sim.Heap.pop_min h)
      in
      let pushed = ref 0 in
      let same_pops =
        List.for_all
          (function
            | Some t ->
                let i = !pushed in
                incr pushed;
                let seq = i * 7919 mod 10007 in
                Sim.Heap.push h t seq i;
                model := (t, seq, i) :: !model;
                true
            | None -> heap_pop () = model_pop ())
          ops
      in
      let rec drains () =
        match (heap_pop (), model_pop ()) with
        | None, None -> true
        | a, b -> a = b && drains ()
      in
      same_pops && drains ())

(* ---------- clock ---------- *)

let test_sim_time_advances () =
  let sim = Sim.Core.create ~seed:1 in
  let order = ref [] in
  Sim.Core.schedule sim ~delay:5.0 (fun () -> order := "b" :: !order);
  Sim.Core.schedule sim ~delay:1.0 (fun () ->
      order := "a" :: !order;
      Sim.Core.schedule sim ~delay:1.0 (fun () -> order := "c" :: !order));
  Sim.Core.run sim;
  Alcotest.(check (list string)) "event order" [ "a"; "c"; "b" ] (List.rev !order);
  Alcotest.(check (float 0.001)) "final time" 5.0 (Sim.Core.now sim)

let test_sim_until () =
  let sim = Sim.Core.create ~seed:1 in
  let fired = ref false in
  Sim.Core.schedule sim ~delay:10.0 (fun () -> fired := true);
  Sim.Core.run ~until:5.0 sim;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check (float 0.001)) "clock at bound" 5.0 (Sim.Core.now sim)

(* 40 events at one instant outgrow the queue twice (16 -> 32 -> 64)
   and must still run in scheduling order. *)
let test_sim_same_instant_fifo () =
  let sim = Sim.Core.create ~seed:1 in
  let order = ref [] in
  for i = 0 to 39 do
    Sim.Core.schedule sim ~delay:2.0 (fun () -> order := i :: !order)
  done;
  Sim.Core.run sim;
  Alcotest.(check (list int)) "fifo" (List.init 40 Fun.id) (List.rev !order);
  Alcotest.(check int) "all ran" 40 (Sim.Core.executed_events sim)

(* A NaN delay has no place in the time order: [Float.max 0.0 nan] is
   NaN, and a NaN key would land anywhere in the queue. *)
let test_sim_nan_delay_rejected () =
  let sim = Sim.Core.create ~seed:1 in
  let order = ref [] in
  Sim.Core.schedule sim ~delay:1.0 (fun () -> order := "a" :: !order);
  Alcotest.check_raises "nan delay"
    (Invalid_argument "Sim.Core.schedule: NaN delay") (fun () ->
      Sim.Core.schedule sim ~delay:Float.nan (fun () -> order := "nan" :: !order));
  Sim.Core.schedule sim ~delay:2.0 (fun () -> order := "b" :: !order);
  Sim.Core.run sim;
  Alcotest.(check (list string)) "queue unaffected" [ "a"; "b" ] (List.rev !order)

(* ---------- network ---------- *)

let mk_net ?(loss = 0.0) () =
  let sim = Sim.Core.create ~seed:3 in
  let net =
    Sim.Net.create ~sim ~nodes:[ "a"; "b" ]
      ~latency:(Sim.Net.uniform_latency ~lo:1.0 ~hi:2.0)
      ~loss ()
  in
  (sim, net)

let test_net_delivery () =
  let sim, net = mk_net () in
  let got = ref [] in
  Sim.Net.register net ~node:"b" (fun ~src msg -> got := (src, msg) :: !got);
  Sim.Net.send net ~src:"a" ~dst:"b" 42;
  Sim.Core.run sim;
  Alcotest.(check (list (pair string int))) "delivered" [ ("a", 42) ] !got

let test_net_crash_drops () =
  let sim, net = mk_net () in
  let got = ref 0 in
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> incr got);
  Sim.Net.crash net "b";
  Sim.Net.send net ~src:"a" ~dst:"b" 1;
  Sim.Core.run sim;
  Alcotest.(check int) "dropped at dead dst" 0 !got;
  Sim.Net.recover net "b";
  Sim.Net.send net ~src:"a" ~dst:"b" 2;
  Sim.Core.run sim;
  Alcotest.(check int) "delivered after recovery" 1 !got

let test_net_dead_sender () =
  let sim, net = mk_net () in
  let got = ref 0 in
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> incr got);
  Sim.Net.crash net "a";
  Sim.Net.send net ~src:"a" ~dst:"b" 1;
  Sim.Core.run sim;
  Alcotest.(check int) "dead sender drops" 0 !got

let test_net_link_cut () =
  let sim, net = mk_net () in
  let got = ref 0 in
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> incr got);
  Sim.Net.cut_link net "a" "b";
  Sim.Net.send net ~src:"a" ~dst:"b" 1;
  Sim.Core.run sim;
  Alcotest.(check int) "cut link drops" 0 !got;
  Sim.Net.heal_link net "a" "b";
  Sim.Net.send net ~src:"a" ~dst:"b" 2;
  Sim.Core.run sim;
  Alcotest.(check int) "healed link delivers" 1 !got

let test_net_loss_rate () =
  let sim, net = mk_net ~loss:0.5 () in
  let got = ref 0 in
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> incr got);
  for _ = 1 to 2000 do
    Sim.Net.send net ~src:"a" ~dst:"b" 0
  done;
  Sim.Core.run sim;
  let rate = float_of_int !got /. 2000.0 in
  Alcotest.(check bool)
    (Fmt.str "delivery rate %.3f close to 0.5" rate)
    true
    (abs_float (rate -. 0.5) < 0.05)

let test_sim_determinism () =
  let run () =
    let sim, net = mk_net ~loss:0.3 () in
    let got = ref 0 in
    Sim.Net.register net ~node:"b" (fun ~src:_ _ -> incr got);
    for _ = 1 to 100 do
      Sim.Net.send net ~src:"a" ~dst:"b" 0
    done;
    Sim.Core.run sim;
    (!got, Sim.Core.now sim)
  in
  Alcotest.(check bool) "same seed, same outcome" true (run () = run ())

(* ---------- failures ---------- *)

let test_failure_availability () =
  (* a node under mtbf=90 mttr=10 should be up ~90% of the time *)
  let sim = Sim.Core.create ~seed:5 in
  let net =
    Sim.Net.create ~sim ~nodes:[ "n" ]
      ~latency:(Sim.Net.uniform_latency ~lo:0.1 ~hi:0.2)
      ()
  in
  let spec = { Sim.Failure.mtbf = 90.0; mttr = 10.0 } in
  Alcotest.(check (float 0.001)) "analytic availability" 0.9
    (Sim.Failure.availability spec);
  let inj = Sim.Failure.attach ~sim ~net ~node:"n" ~spec ~until:100_000.0 () in
  let up_samples = ref 0 and samples = 1000 in
  let rec sample i =
    if i < samples then
      Sim.Core.schedule sim ~delay:100.0 (fun () ->
          if Sim.Net.is_up net "n" then incr up_samples;
          sample (i + 1))
  in
  sample 0;
  Sim.Core.run ~until:100_001.0 sim;
  let frac = float_of_int !up_samples /. float_of_int samples in
  Alcotest.(check bool)
    (Fmt.str "measured availability %.3f close to 0.9" frac)
    true
    (abs_float (frac -. 0.9) < 0.05);
  (* the injector handle's own accounting must agree *)
  let inj_frac = Sim.Failure.up_fraction inj ~now:(Sim.Core.now sim) in
  Alcotest.(check bool)
    (Fmt.str "injector up-fraction %.3f close to 0.9" inj_frac)
    true
    (abs_float (inj_frac -. 0.9) < 0.05)

(* ---------- stats ---------- *)

let test_stats_percentiles () =
  let s = Sim.Stats.create () in
  for i = 1 to 100 do
    Sim.Stats.add s (float_of_int i)
  done;
  let sum = Sim.Stats.summarize s in
  Alcotest.(check int) "count" 100 sum.Sim.Stats.count;
  Alcotest.(check (float 0.001)) "mean" 50.5 sum.Sim.Stats.mean;
  Alcotest.(check (float 0.001)) "p50" 50.0 sum.Sim.Stats.p50;
  Alcotest.(check (float 0.001)) "p90" 90.0 sum.Sim.Stats.p90;
  Alcotest.(check (float 0.001)) "p99" 99.0 sum.Sim.Stats.p99;
  Alcotest.(check (float 0.001)) "max" 100.0 sum.Sim.Stats.max

let test_stats_empty () =
  let sum = Sim.Stats.summarize (Sim.Stats.create ()) in
  Alcotest.(check int) "count 0" 0 sum.Sim.Stats.count

(* Pinned nearest-rank values: rank = ceil(p * n), 1-based.  These pin
   the percentile definition so it cannot silently drift. *)
let test_stats_nearest_rank () =
  let pct xs p = Sim.Stats.percentile (Sim.Stats.of_list xs) p in
  let check name expected got =
    Alcotest.(check (float 0.0)) name expected got
  in
  (* n = 1: every percentile is the only sample *)
  check "n=1 p50" 7.0 (pct [ 7.0 ] 0.50);
  check "n=1 p999" 7.0 (pct [ 7.0 ] 0.999);
  (* n = 2: p50 -> rank ceil(1.0) = 1; p90 -> rank ceil(1.8) = 2 *)
  check "n=2 p50" 1.0 (pct [ 2.0; 1.0 ] 0.50);
  check "n=2 p90" 2.0 (pct [ 2.0; 1.0 ] 0.90);
  (* n = 10 over 1..10 *)
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  check "n=10 p50" 5.0 (pct ten 0.50);
  check "n=10 p90" 9.0 (pct ten 0.90);
  check "n=10 p95" 10.0 (pct ten 0.95);
  check "n=10 p999" 10.0 (pct ten 0.999);
  (* n = 100 over 1..100 *)
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  check "n=100 p50" 50.0 (pct hundred 0.50);
  check "n=100 p95" 95.0 (pct hundred 0.95);
  check "n=100 p99" 99.0 (pct hundred 0.99);
  check "n=100 p999" 100.0 (pct hundred 0.999);
  (* out-of-range p clamps to the extremes *)
  check "p=0 is min" 1.0 (pct hundred 0.0);
  check "p=1 is max" 100.0 (pct hundred 1.0)

let test_stats_p95_p999_summary () =
  let s = Sim.Stats.create () in
  for i = 1 to 1000 do
    Sim.Stats.add s (float_of_int i)
  done;
  let sum = Sim.Stats.summarize s in
  Alcotest.(check (float 0.0)) "p95" 950.0 sum.Sim.Stats.p95;
  Alcotest.(check (float 0.0)) "p999" 999.0 sum.Sim.Stats.p999

let test_stats_merge () =
  let a = Sim.Stats.of_list [ 1.0; 3.0; 5.0 ] in
  let b = Sim.Stats.of_list [ 2.0; 4.0 ] in
  let m = Sim.Stats.summarize (Sim.Stats.merge a b) in
  Alcotest.(check int) "merged count" 5 m.Sim.Stats.count;
  Alcotest.(check (float 1e-9)) "merged mean" 3.0 m.Sim.Stats.mean;
  Alcotest.(check (float 0.0)) "merged p50" 3.0 m.Sim.Stats.p50;
  Alcotest.(check (float 0.0)) "merged max" 5.0 m.Sim.Stats.max;
  (* inputs are untouched *)
  Alcotest.(check int) "a unchanged" 3
    (Sim.Stats.summarize a).Sim.Stats.count;
  Alcotest.(check int) "b unchanged" 2
    (Sim.Stats.summarize b).Sim.Stats.count

let test_stats_merge_weighted_mean () =
  (* the merged mean is the count-weighted mean of the parts, not the
     mean of the two means — unequal sample counts expose the
     difference *)
  let a = Sim.Stats.of_list [ 10.0 ] in
  let b = Sim.Stats.of_list [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0 ] in
  let m = Sim.Stats.summarize (Sim.Stats.merge a b) in
  let sa = Sim.Stats.summarize a and sb = Sim.Stats.summarize b in
  let weighted =
    ((sa.Sim.Stats.mean *. float_of_int sa.Sim.Stats.count)
    +. (sb.Sim.Stats.mean *. float_of_int sb.Sim.Stats.count))
    /. float_of_int (sa.Sim.Stats.count + sb.Sim.Stats.count)
  in
  Alcotest.(check (float 1e-9)) "count-weighted mean" weighted m.Sim.Stats.mean;
  Alcotest.(check bool) "differs from mean-of-means" true
    (Float.abs (m.Sim.Stats.mean -. ((sa.Sim.Stats.mean +. sb.Sim.Stats.mean) /. 2.0))
    > 0.1)

let prop_stats_merge_order_independent =
  QCheck.Test.make ~count:100 ~name:"Stats.merge is order-independent"
    QCheck.(
      pair
        (list (float_bound_exclusive 1000.0))
        (list (float_bound_exclusive 1000.0)))
    (fun (xs, ys) ->
      let s1 =
        Sim.Stats.summarize
          (Sim.Stats.merge (Sim.Stats.of_list xs) (Sim.Stats.of_list ys))
      in
      let s2 =
        Sim.Stats.summarize
          (Sim.Stats.merge (Sim.Stats.of_list ys) (Sim.Stats.of_list xs))
      in
      s1.Sim.Stats.count = s2.Sim.Stats.count
      && (s1.Sim.Stats.count = 0
         || Float.abs (s1.Sim.Stats.mean -. s2.Sim.Stats.mean) <= 1e-9
            && s1.Sim.Stats.p50 = s2.Sim.Stats.p50
            && s1.Sim.Stats.p95 = s2.Sim.Stats.p95
            && s1.Sim.Stats.p999 = s2.Sim.Stats.p999
            && s1.Sim.Stats.max = s2.Sim.Stats.max))

(* ---------- drop-reason accounting ---------- *)

let test_drop_reasons () =
  let sim, net = mk_net () in
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> ());
  (* sender down *)
  Sim.Net.crash net "a";
  Sim.Net.send net ~src:"a" ~dst:"b" 0;
  Sim.Net.recover net "a";
  (* link cut *)
  Sim.Net.cut_link net "a" "b";
  Sim.Net.send net ~src:"a" ~dst:"b" 0;
  Sim.Net.heal_link net "a" "b";
  (* dest down at delivery time *)
  Sim.Net.crash net "b";
  Sim.Net.send net ~src:"a" ~dst:"b" 0;
  Sim.Core.run sim;
  let c = Sim.Net.counters net in
  Alcotest.(check int) "sent" 3 c.Sim.Net.sent;
  Alcotest.(check int) "delivered" 0 c.Sim.Net.delivered;
  Alcotest.(check int) "sender_down" 1 c.Sim.Net.drop_sender_down;
  Alcotest.(check int) "link_cut" 1 c.Sim.Net.drop_link_cut;
  Alcotest.(check int) "dest_down" 1 c.Sim.Net.drop_dest_down;
  Alcotest.(check int) "loss" 0 c.Sim.Net.drop_loss;
  Alcotest.(check int) "total is the sum" c.Sim.Net.dropped
    (c.Sim.Net.drop_sender_down + c.Sim.Net.drop_dest_down
   + c.Sim.Net.drop_link_cut + c.Sim.Net.drop_loss)

let test_drop_loss_counted () =
  let sim, net = mk_net ~loss:1.0 () in
  Sim.Net.register net ~node:"b" (fun ~src:_ _ -> ());
  Sim.Net.send net ~src:"a" ~dst:"b" 0;
  Sim.Core.run sim;
  let c = Sim.Net.counters net in
  Alcotest.(check int) "loss drop" 1 c.Sim.Net.drop_loss;
  Alcotest.(check int) "total" 1 c.Sim.Net.dropped

(* A fixed crash/cut/filter/loss/heal/recover sequence with sends
   between the steps, some still in flight when the next step lands.
   The last bursts go out after [heal_link] and [clear_link_filter]
   have emptied the link tables again. *)
let net_fault_sequence () =
  let sim = Sim.Core.create ~seed:11 in
  let nodes = [ "a"; "b"; "c" ] in
  let net =
    Sim.Net.create ~sim ~nodes ~latency:(Sim.Net.uniform_latency ~lo:1.0 ~hi:3.0) ()
  in
  let got = ref 0 in
  List.iter (fun n -> Sim.Net.register net ~node:n (fun ~src:_ _ -> incr got)) nodes;
  let links = [ ("a", "b"); ("b", "c"); ("c", "a"); ("a", "c"); ("b", "a"); ("a", "z") ] in
  let burst () =
    for i = 1 to 8 do
      List.iter (fun (src, dst) -> Sim.Net.send net ~src ~dst i) links
    done;
    Sim.Core.run ~until:(Sim.Core.now sim +. 1.5) sim
  in
  burst ();
  Sim.Net.crash net "b";
  burst ();
  Sim.Net.cut_link net "a" "c";
  burst ();
  Sim.Net.set_link_filter net ~src:"c" ~dst:"a" (Sim.Net.Drop_first 3);
  Sim.Net.set_link_filter net ~src:"a" ~dst:"b" (Sim.Net.Drop_prob 0.5);
  Sim.Net.set_link_filter net ~src:"b" ~dst:"a" Sim.Net.Drop_all;
  Sim.Net.recover net "b";
  burst ();
  Sim.Net.set_loss net 0.3;
  burst ();
  let filter_drops =
    List.map (fun (_, _, n) -> n) (Sim.Net.filtered_links net)
  in
  Sim.Net.heal_link net "a" "c";
  Sim.Net.clear_link_filter net ~src:"c" ~dst:"a";
  Sim.Net.clear_link_filter net ~src:"a" ~dst:"b";
  Sim.Net.clear_link_filter net ~src:"b" ~dst:"a";
  burst ();
  Sim.Net.set_loss net 0.0;
  Sim.Net.crash net "c";
  burst ();
  Sim.Net.recover net "c";
  burst ();
  Sim.Core.run sim;
  (Sim.Net.counters net, !got, filter_drops, Sim.Core.now sim)

(* Values captured before nodes became one record each and the empty
   link tables got a fast path: every counter, every drop reason and
   the final clock must stay exactly as they were. *)
let test_net_fault_sequence_pinned () =
  let c, got, filter_drops, now = net_fault_sequence () in
  let check name expected actual = Alcotest.(check int) name expected actual in
  check "sent" 384 c.Sim.Net.sent;
  check "delivered" 154 c.Sim.Net.delivered;
  check "payload_sent" 384 c.Sim.Net.payload_sent;
  check "payload_delivered" 154 c.Sim.Net.payload_delivered;
  check "dropped" 230 c.Sim.Net.dropped;
  check "sender_down" 40 c.Sim.Net.drop_sender_down;
  check "dest_down" 93 c.Sim.Net.drop_dest_down;
  check "link_cut" 48 c.Sim.Net.drop_link_cut;
  check "loss" 25 c.Sim.Net.drop_loss;
  check "filtered" 24 c.Sim.Net.drop_filtered;
  check "handlers ran" 154 got;
  Alcotest.(check (list int)) "per-filter drops" [ 8; 16; 0 ] filter_drops;
  Alcotest.(check (float 0.0)) "final clock" 0x1.afee04c83cd0ap+3 now

(* a pinned PRNG state makes the drawn cases — and therefore the whole
   suite — deterministic run to run *)
let qcheck t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) t

let suites =
  [
    ( "sim.heap",
      [
        Alcotest.test_case "orders by time" `Quick test_heap_ordering;
        Alcotest.test_case "fifo on ties" `Quick test_heap_fifo_ties;
        qcheck prop_heap_sorted;
        qcheck prop_heap_matches_model;
      ] );
    ( "sim.core",
      [
        Alcotest.test_case "time advances with events" `Quick test_sim_time_advances;
        Alcotest.test_case "run until bound" `Quick test_sim_until;
        Alcotest.test_case "40 same-instant events run fifo" `Quick
          test_sim_same_instant_fifo;
      ] );
    ( "sim.clock",
      [
        Alcotest.test_case "NaN delay rejected" `Quick
          test_sim_nan_delay_rejected;
      ] );
    ( "sim.net",
      [
        Alcotest.test_case "delivery" `Quick test_net_delivery;
        Alcotest.test_case "crash drops, recover delivers" `Quick
          test_net_crash_drops;
        Alcotest.test_case "dead sender drops" `Quick test_net_dead_sender;
        Alcotest.test_case "link cut and heal" `Quick test_net_link_cut;
        Alcotest.test_case "loss rate" `Quick test_net_loss_rate;
        Alcotest.test_case "determinism" `Quick test_sim_determinism;
        Alcotest.test_case "drop reasons attributed" `Quick test_drop_reasons;
        Alcotest.test_case "loss drops counted" `Quick test_drop_loss_counted;
        Alcotest.test_case "fault sequence pinned" `Quick
          test_net_fault_sequence_pinned;
      ] );
    ( "sim.failure",
      [ Alcotest.test_case "availability matches spec" `Quick test_failure_availability ]
    );
    ( "sim.stats",
      [
        Alcotest.test_case "percentiles" `Quick test_stats_percentiles;
        Alcotest.test_case "empty summary" `Quick test_stats_empty;
        Alcotest.test_case "nearest-rank pinned values" `Quick
          test_stats_nearest_rank;
        Alcotest.test_case "p95/p999 in summary" `Quick
          test_stats_p95_p999_summary;
        Alcotest.test_case "merge" `Quick test_stats_merge;
        Alcotest.test_case "merge mean is count-weighted" `Quick
          test_stats_merge_weighted_mean;
        qcheck prop_stats_merge_order_independent;
      ] );
  ]
