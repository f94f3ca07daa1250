(* The repository benchmark: seeded workloads against the public API,
   each checking its own outputs.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it times the workload with tracing off and prints the
   end-to-end metrics.  With --trace 1 it runs the workload untraced
   for a third of the time, re-runs the same units with wall-clock spans
   around the benchmark's calls into each layer, checks that the
   traced run simulated exactly what the untraced one did, and prints
   the per-layer metrics.  The last line of stdout is one JSON object;
   the exit code is non-zero when any check fails.  README.md in this
   directory says why each workload and metric is there. *)

module Prng = Qc_util.Prng
module Cluster = Store.Cluster
module Script = Harness.Script

let now = Unix.gettimeofday

(* ---------- statistics ---------- *)

(* Linear interpolation between the closest ranks. *)
let quantile q = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let h = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float h in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b
let sum = List.fold_left ( +. ) 0.0

(* Every unit seed derives from the workload seed. *)
let unit_seed ~seed i = Hashtbl.hash (seed, i)

(* The timed phase runs past [--seconds] until it holds this many units,
   so that at least ten lie beyond unit_ms_p90. *)
let min_units = 100

(* A set-up repeated this many times per run; its median is setup_s. *)
let setups = 5

(* Set-up warms up on this fixed seed, so set-up work does not depend on
   the workload seed. *)
let warmup_seed = 7

(* ---------- host speed ---------- *)

(* The host's speed drifts.  Where this benchmark was written, the
   time of a fixed piece of work swung by 1.6x and more for tens of
   seconds at a time, and every wall-time metric of unchanged code moved
   with it from one run to the next.  So each unit is preceded by this
   probe, and the end-to-end times are rescaled to the host speed at
   which the probe takes [probe_nominal_ms].  The probe does what the simulator
   does most, allocating and hashing small short-lived structures, so
   it slows down with the host the way the workloads do; probes on a
   cache-sized or an 8 MiB table tracked them less well.  Its live data
   never outlasts an iteration and the minor heap is emptied first, so
   no collection runs inside it: garbage-collection work a change adds
   to the workload cannot land in the probe and cancel out. *)
let probe_nominal_ms = 0.4

let probe_ms () =
  Gc.minor ();
  let t0 = now () in
  let live = ref 0 in
  for k = 1 to 200 do
    let h = Hashtbl.create 16 in
    for i = 0 to 30 do
      Hashtbl.replace h (i * k) (float_of_int i)
    done;
    let l = List.map succ (List.init 50 (fun i -> i * k)) in
    live := !live + List.length l + Hashtbl.length h
  done;
  ignore (Sys.opaque_identity !live);
  (now () -. t0) *. 1e3

(* ---------- one timed unit ---------- *)

type unit_run = {
  useed : int;
  ms : float;  (** wall time of the unit *)
  probe : float;  (** [probe_ms ()] just before the unit *)
  seeds : int;  (** seeds the unit ran: one, or a formal batch's *)
  ops : int;  (** simulated client ops, or I/O-automaton steps *)
  failure : string option;  (** the unit's correctness verdict *)
  counts : int list;
      (** simulated counts the traced re-run must reproduce exactly *)
}

let units_ms units = sum (List.map (fun u -> u.ms) units)

(* Each unit's time at nominal host speed, from the median probe over
   the unit and its two neighbours on each side. *)
let rescaled units =
  let probes = Array.of_list (List.map (fun u -> u.probe) units) in
  let n = Array.length probes in
  List.mapi
    (fun i u ->
      let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
      let local = median (Array.to_list (Array.sub probes lo (hi - lo + 1))) in
      u.ms *. probe_nominal_ms /. local)
    units

let timed f =
  let t0 = now () in
  let r = f () in
  (r, (now () -. t0) *. 1e3)

(* Run [one (unit_seed ~seed i)] for i = 0, 1, ... until [stop i];
   [one] may raise, which fails that unit. *)
let until ~stop ~seed one =
  let rec go i acc =
    if stop i then List.rev acc
    else
      let u = unit_seed ~seed i in
      let probe = probe_ms () in
      let r =
        match timed (fun () -> one u) with
        | (seeds, ops, counts, failure), ms ->
            { useed = u; ms; probe; seeds; ops; failure; counts }
        | exception e ->
            {
              useed = u;
              ms = 0.0;
              probe;
              seeds = 1;
              ops = 0;
              failure = Some (Printexc.to_string e);
              counts = [];
            }
      in
      go (i + 1) (r :: acc)
  in
  go 0 []

(* ---------- per-layer accumulation ---------- *)

(* Named sums and samples gathered over the traced units of a run. *)
module Acc = struct
  type t = { sums : (string, float) Hashtbl.t; samples : (string, float list) Hashtbl.t }

  let create () = { sums = Hashtbl.create 64; samples = Hashtbl.create 16 }
  let get t k = Option.value ~default:0.0 (Hashtbl.find_opt t.sums k)
  let add t k v = Hashtbl.replace t.sums k (get t k +. v)
  let addi t k v = add t k (float_of_int v)

  let sample t k v =
    Hashtbl.replace t.samples k
      (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples k))

  let median t k =
    match Hashtbl.find_opt t.samples k with None -> 0.0 | Some xs -> median xs
end

(* Registry instruments summed over every label set: a counter's
   value, or a histogram's count and sum.  [Obs.Metrics.dump] is the
   registry's only enumeration, one instrument per line:
   [name{labels} 12] or [name{labels} count=3 sum=7 le_1=...]. *)
let registry_totals (m : Obs.Metrics.t) =
  let tbl = Hashtbl.create 32 in
  String.split_on_char '\n' (Obs.Metrics.dump m)
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | key :: v :: rest ->
             let name =
               match String.index_opt key '{' with
               | Some i -> String.sub key 0 i
               | None -> key
             in
             let field f s =
               match String.split_on_char '=' s with
               | [ k; x ] when k = f -> float_of_string_opt x
               | _ -> None
             in
             let count, total =
               match (field "count" v, rest) with
               | Some c, s :: _ -> (c, Option.value ~default:0.0 (field "sum" s))
               | _ -> (Option.value ~default:0.0 (float_of_string_opt v), 0.0)
             in
             let c0, s0 =
               Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl name)
             in
             Hashtbl.replace tbl name (c0 +. count, s0 +. total)
         | _ -> ());
  fun name -> Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt tbl name)

let completed_ops (r : Cluster.results) = List.length r.Cluster.completions

(* Fold one cluster run into the store-layer sums: [Sim.Net],
   [Rpc.Engine], [Store.Replica], [Store.Txn] and the simulated
   outcomes. *)
let add_cluster a (r : Cluster.results) ~alloc_words ~major_gcs =
  let n = r.Cluster.net in
  let reg = registry_totals r.Cluster.metrics in
  let count k = fst (reg k) in
  Acc.addi a "units" 1;
  Acc.addi a "ops" (completed_ops r);
  Acc.add a "alloc_words" alloc_words;
  Acc.add a "major_gcs" major_gcs;
  Acc.addi a "sent" n.Sim.Net.sent;
  Acc.addi a "payload_sent" n.Sim.Net.payload_sent;
  Acc.addi a "dropped" n.Sim.Net.dropped;
  Acc.addi a "drop_dest_down" n.Sim.Net.drop_dest_down;
  Acc.addi a "drop_link_cut" n.Sim.Net.drop_link_cut;
  Acc.addi a "drop_loss" n.Sim.Net.drop_loss;
  Acc.addi a "drop_filtered" n.Sim.Net.drop_filtered;
  Acc.add a "retries" (count "rpc.retries");
  Acc.add a "hedges" (count "rpc.hedges");
  Acc.add a "op_timeouts" (count "rpc.op_timeouts");
  Acc.add a "exhausted" (count "rpc.exhausted");
  let bc, bs = reg "rpc.batch_size" in
  Acc.add a "batch_count" bc;
  Acc.add a "batch_sum" bs;
  Acc.add a "queries" (count "store.replica.queries");
  Acc.addi a "installs" r.Cluster.installs;
  Acc.addi a "fsyncs" r.Cluster.fsyncs;
  let qc, qs = reg "replica.queue_depth" in
  Acc.add a "qd_count" qc;
  Acc.add a "qd_sum" qs;
  let loads = List.map (fun (_, l) -> float_of_int l) r.Cluster.replica_loads in
  Acc.sample a "load_max_share"
    (ratio (List.fold_left Float.max 0.0 loads) (sum loads));
  Acc.addi a "ok_txns" r.Cluster.ok_txns;
  Acc.addi a "failed_txns" r.Cluster.failed_txns;
  Acc.addi a "decided" r.Cluster.decided_txns;
  Acc.addi a "blocked" (List.length r.Cluster.blocked_txns);
  let last =
    List.fold_left (fun m (t, _) -> Float.max m t) 0.0 r.Cluster.completions
  in
  Acc.sample a "tail_ratio" (ratio r.Cluster.duration last);
  let ok = List.length (List.filter snd r.Cluster.completions) in
  Acc.sample a "availability"
    (ratio (float_of_int ok) (float_of_int (completed_ops r)));
  if r.Cluster.reads.Sim.Stats.count > 0 then
    Acc.sample a "read_p99" r.Cluster.reads.Sim.Stats.p99;
  if r.Cluster.writes.Sim.Stats.count > 0 then
    Acc.sample a "write_p99" r.Cluster.writes.Sim.Stats.p99;
  if r.Cluster.txn_latency.Sim.Stats.count > 0 then
    Acc.sample a "txn_p50" r.Cluster.txn_latency.Sim.Stats.p50

(* Words allocated so far and major collections completed.
   [Gc.minor_words] is exact; [Gc.quick_stat]'s copy lags until the
   next minor collection. *)
let gc_totals () =
  let s = Gc.quick_stat () in
  ( Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words,
    s.Gc.major_collections )

(* One [Cluster.run] inside a span, with [Gc] deltas around it. *)
let traced_cluster_run sp acc p =
  let w0, m0 = gc_totals () in
  let r = Span.with_ sp "Cluster.run" (fun () -> Cluster.run p) in
  let w1, m1 = gc_totals () in
  add_cluster acc r ~alloc_words:(w1 -. w0)
    ~major_gcs:(float_of_int (m1 - m0));
  r

let cluster_counts (r : Cluster.results) =
  [ r.Cluster.net.Sim.Net.sent; r.Cluster.installs; completed_ops r ]

(* ---------- the per-layer metric table ---------- *)

(* Every per-layer metric, in output order, with its unit.  A layer
   that does no work on a workload reports 0 there. *)
let per_layer_names =
  [
    ("cluster.run_ms", "ms");
    ("cluster.alloc_words_per_op", "words");
    ("cluster.major_gcs_per_unit", "count");
    ("net.msgs_per_op", "count");
    ("net.payloads_per_msg", "count");
    ("net.drop_share", "ratio");
    ("net.drop_dest_down", "count/unit");
    ("net.drop_link_cut", "count/unit");
    ("net.drop_loss", "count/unit");
    ("net.drop_filtered", "count/unit");
    ("rpc.batch_size_mean", "count");
    ("rpc.retries_per_op", "count");
    ("rpc.hedges_per_op", "count");
    ("rpc.op_timeouts", "count/unit");
    ("rpc.exhausted", "count/unit");
    ("replica.queries_per_op", "count");
    ("replica.queue_depth_mean", "count");
    ("replica.installs_per_op", "count");
    ("replica.fsyncs_per_op", "count");
    ("replica.installs_per_fsync", "count");
    ("replica.load_max_share", "ratio");
    ("txn.ok_share", "ratio");
    ("txn.decided_per_ok", "ratio");
    ("txn.blocked", "count");
    ("harness.gen_ms", "ms");
    ("harness.check_ms", "ms");
    ("harness.tail_ratio", "ratio");
    ("serial.scheduler_us_per_step", "us");
    ("serial.scheduler_share", "ratio");
    ("serial.scheduler_share_quorum", "ratio");
    ("ioa.components_us_per_step", "us");
    ("ioa.system_us_per_step", "us");
    ("quorum_steps_per_s", "1/s");
    ("recon_steps_per_s", "1/s");
    ("quorum.check_ms", "ms");
    ("recon.check_ms", "ms");
    ("obs.on_off_ratio", "ratio");
    ("obs.ns_per_event", "ns");
    ("obs.events_per_op", "count");
    ("sim.availability", "ratio");
    ("sim.read_p99_vt", "vt");
    ("sim.write_p99_vt", "vt");
    ("sim.txn_latency_p50_vt", "vt");
    ("trace.overhead_ratio", "ratio");
    ("trace.units", "count");
    ("host.probe_ms", "ms");
  ]

(* The store-layer rows of the table, from the accumulated sums. *)
let store_layer acc totals =
  let g = Acc.get acc in
  let ops = g "ops" and units = g "units" in
  let run = Span.find totals "Cluster.run" in
  [
    ("cluster.run_ms", ratio run.Span.self_ms (float_of_int run.Span.calls));
    ("cluster.alloc_words_per_op", ratio (g "alloc_words") ops);
    ("cluster.major_gcs_per_unit", ratio (g "major_gcs") units);
    ("net.msgs_per_op", ratio (g "sent") ops);
    ("net.payloads_per_msg", ratio (g "payload_sent") (g "sent"));
    ("net.drop_share", ratio (g "dropped") (g "sent"));
    ("net.drop_dest_down", ratio (g "drop_dest_down") units);
    ("net.drop_link_cut", ratio (g "drop_link_cut") units);
    ("net.drop_loss", ratio (g "drop_loss") units);
    ("net.drop_filtered", ratio (g "drop_filtered") units);
    ("rpc.batch_size_mean", ratio (g "batch_sum") (g "batch_count"));
    ("rpc.retries_per_op", ratio (g "retries") ops);
    ("rpc.hedges_per_op", ratio (g "hedges") ops);
    ("rpc.op_timeouts", ratio (g "op_timeouts") units);
    ("rpc.exhausted", ratio (g "exhausted") units);
    ("replica.queries_per_op", ratio (g "queries") ops);
    ("replica.queue_depth_mean", ratio (g "qd_sum") (g "qd_count"));
    ("replica.installs_per_op", ratio (g "installs") ops);
    ("replica.fsyncs_per_op", ratio (g "fsyncs") ops);
    ("replica.installs_per_fsync", ratio (g "installs") (g "fsyncs"));
    ("replica.load_max_share", Acc.median acc "load_max_share");
    ("txn.ok_share", ratio (g "ok_txns") (g "ok_txns" +. g "failed_txns"));
    ("txn.decided_per_ok", ratio (g "decided") (g "ok_txns"));
    ("txn.blocked", g "blocked");
    ("harness.tail_ratio", Acc.median acc "tail_ratio");
    ("sim.availability", Acc.median acc "availability");
    ("sim.read_p99_vt", Acc.median acc "read_p99");
    ("sim.write_p99_vt", Acc.median acc "write_p99");
    ("sim.txn_latency_p50_vt", Acc.median acc "txn_p50");
  ]

(* ---------- workloads ---------- *)

type trace_report = {
  layers : (string * float) list;
  problems : string list;  (** failed determinism / non-interference checks *)
}

type workload = {
  name : string;
  setup : unit -> unit;  (** input generation and warm-up *)
  run : seed:int -> stop:(int -> bool) -> unit_run list;
      (** the timed phase, tracing off, until [stop units_done] *)
  trace : seed:int -> Span.t -> unit_run list -> trace_report;
      (** re-run the given untraced units with spans *)
}

(* Compare a traced unit's simulated counts with its untraced run. *)
let same_counts problems (u : unit_run) counts =
  if counts <> u.counts then
    problems :=
      Fmt.str "unit seed %d: traced counts [%a] differ from untraced [%a]"
        u.useed
        Fmt.(list ~sep:comma int)
        counts
        Fmt.(list ~sep:comma int)
        u.counts
      :: !problems

(* ----- kv_reads: the fault-free read-heavy hot path ----- *)

let kv_params seed =
  {
    Cluster.default_params with
    n_replicas = 3;
    n_shards = 4;
    n_clients = 8;
    targeting = `Quorum;
    workload =
      {
        Store.Workload.default_spec with
        n_keys = 1024;
        zipf_s = 0.9;
        read_fraction = 0.9;
        ops_per_client = 250;
        burst = 4;
      };
    batch_window = Some 1.0;
    storage_cost = 0.05;
    fsync_cost = 5.0;
    group_commit = true;
    seed;
  }

let kv_ops = 8 * 250

let kv_verdict (r : Cluster.results) =
  let failed = r.Cluster.failed_reads + r.Cluster.failed_writes in
  if r.Cluster.audit_violations <> [] then
    Some ("audit: " ^ String.concat "; " r.Cluster.audit_violations)
  else if failed > 0 then Some (Fmt.str "%d ops failed" failed)
  else if completed_ops r <> kv_ops then
    Some (Fmt.str "%d of %d ops completed" (completed_ops r) kv_ops)
  else None

let kv_unit u =
  let r = Cluster.run (kv_params u) in
  (1, completed_ops r, cluster_counts r, kv_verdict r)

(* Tracing on vs off for one unit: the same simulation (equal digests)
   at a measured cost per emitted event. *)
let obs_cost u problems =
  let off = kv_params u in
  let on = { off with trace_capacity = 1 lsl 18; trace_ctx = true } in
  let rounds = 3 in
  let results =
    List.init rounds (fun _ ->
        let r_off, ms_off = timed (fun () -> Cluster.run off) in
        let r_on, ms_on = timed (fun () -> Cluster.run on) in
        (r_off, ms_off, r_on, ms_on))
  in
  let r_off, _, r_on, _ = List.hd results in
  if Cluster.digest r_off <> Cluster.digest r_on then
    problems := "obs on/off: Cluster.digest differs" :: !problems;
  let ms_off = median (List.map (fun (_, m, _, _) -> m) results) in
  let ms_on = median (List.map (fun (_, _, _, m) -> m) results) in
  let tr = r_on.Cluster.trace in
  let events = float_of_int (Obs.Trace.length tr + Obs.Trace.overwritten tr) in
  [
    ("obs.on_off_ratio", ratio ms_on ms_off);
    ("obs.ns_per_event", ratio ((ms_on -. ms_off) *. 1e6) events);
    ("obs.events_per_op", ratio events (float_of_int (completed_ops r_on)));
  ]

let kv_reads =
  {
    name = "kv_reads";
    setup =
      (fun () ->
        List.iter
          (fun i -> ignore (kv_unit (unit_seed ~seed:warmup_seed i)))
          [ 0; 1; 2; 3 ]);
    run = (fun ~seed ~stop -> until ~stop ~seed kv_unit);
    trace =
      (fun ~seed:_ sp units ->
        let acc = Acc.create () in
        let problems = ref [] in
        let traced_ms =
          List.map
            (fun (u : unit_run) ->
              snd
                (timed (fun () ->
                     Span.with_ sp "kv.unit" (fun () ->
                         let r = traced_cluster_run sp acc (kv_params u.useed) in
                         Option.iter (fun f -> problems := f :: !problems) (kv_verdict r);
                         same_counts problems u (cluster_counts r)))))
            units
        in
        let totals = Span.totals sp in
        let obs =
          match units with u :: _ -> obs_cost u.useed problems | [] -> []
        in
        {
          layers =
            store_layer acc totals @ obs
            @ [
                ( "trace.overhead_ratio",
                  ratio (sum traced_ms) (units_ms units) );
              ];
          problems = !problems;
        });
  }

(* ----- txn_faults: Paxos-Commit transactions under a fault swarm ----- *)

let txn_groups =
  Array.init 4 (fun s -> Array.init 3 (fun i -> Fmt.str "s%d:r%d" s i))

let txn_clients = List.init 3 (Fmt.str "c%d")

(* Availability 0.99, the optimizer's assumed p_alive. *)
let storm = Script.Crash_storm { Sim.Failure.mtbf = 49_500.0; mttr = 500.0 }

let txn_gen ~seed =
  Harness.Gen.script ~txn:true (Prng.create seed) ~groups:txn_groups
    ~clients:txn_clients ~horizon:300.0
  @ [ storm ]

let txn_params ~seed script =
  {
    Cluster.default_params with
    n_replicas = 3;
    n_shards = 4;
    n_clients = 3;
    targeting = `Quorum;
    policy = Rpc.Policy.with_hedge ~base:(Rpc.Policy.with_retries 2) 12.0;
    workload =
      {
        Store.Workload.default_spec with
        ops_per_client = 40;
        read_fraction = 0.5;
      };
    storage_cost = 0.05;
    fsync_cost = 5.0;
    seed;
    script;
    txns =
      Some
        {
          Cluster.default_txn_spec with
          commit_mode = `Paxos;
          txns_per_client = 20;
          txn_timeout = 80.0;
          txn_retries = 3;
          recovery_delay = 40.0;
        };
  }

(* A seed's violations, judged as the swarm judges a Paxos-Commit seed:
   the audit, no transaction left blocked, and liveness after the
   script quiesces (vacuous while the storm keeps it from settling). *)
let txn_violations script (r : Cluster.results) =
  let blocked =
    match r.Cluster.blocked_txns with
    | [] -> []
    | b -> [ Fmt.str "paxos-commit left %d txn(s) blocked" (List.length b) ]
  in
  let liveness =
    match
      Harness.Check.liveness_after_heal ~script ~completions:r.Cluster.completions
    with
    | Ok () -> []
    | Error e -> [ "liveness: " ^ e ]
  in
  r.Cluster.audit_violations @ blocked @ liveness

(* Seeds per [Swarm.sweep] call; the stop condition is checked between
   calls. *)
let sweep_chunk = 4

(* Sweep chunks of [chunk] seeds from [seed0] until [stop units_done],
   recording one unit per seed.  With a span recorder [sp] the sweep
   and its callbacks run inside spans, and [cluster] is expected to
   open its own. *)
let txn_sweep ?sp ?(cluster = Cluster.run) ~chunk ~seed0 ~stop () =
  let span name f =
    match sp with Some sp -> Span.with_ sp name f | None -> f ()
  in
  let gen_ms = Hashtbl.create 64 in
  let units = ref [] in
  let gen ~seed =
    let s, ms = timed (fun () -> span "harness.gen" (fun () -> txn_gen ~seed)) in
    Hashtbl.replace gen_ms seed ms;
    s
  in
  let run ~seed script =
    let probe = probe_ms () in
    let (ops, counts, violations), ms =
      timed (fun () ->
          span "swarm.run" (fun () ->
              match cluster (txn_params ~seed script) with
              | r ->
                  let v =
                    span "harness.check" (fun () -> txn_violations script r)
                  in
                  (completed_ops r, cluster_counts r, v)
              | exception e -> (0, [], [ Printexc.to_string e ])))
    in
    let ms = ms +. Option.value ~default:0.0 (Hashtbl.find_opt gen_ms seed) in
    let failure =
      match violations with [] -> None | v -> Some (String.concat "; " v)
    in
    units := { useed = seed; ms; probe; seeds = 1; ops; failure; counts } :: !units;
    violations
  in
  let rec go next =
    if not (stop (next - seed0)) then begin
      ignore
        (span "Swarm.sweep" (fun () ->
             Harness.Swarm.sweep ~run ~gen ~seeds:chunk ~seed0:next ()));
      go (next + chunk)
    end
  in
  go seed0;
  List.rev !units

let txn_seed0 seed = unit_seed ~seed 0 land 0xFFFFFF

let txn_faults =
  {
    name = "txn_faults";
    setup =
      (fun () ->
        ignore
          (txn_sweep ~chunk:1 ~seed0:(txn_seed0 warmup_seed)
             ~stop:(fun n -> n >= 1)
             ()));
    run =
      (fun ~seed ~stop ->
        txn_sweep ~chunk:sweep_chunk ~seed0:(txn_seed0 seed) ~stop ());
    trace =
      (fun ~seed sp units ->
        let acc = Acc.create () in
        let problems = ref [] in
        let traced =
          txn_sweep ~sp
            ~cluster:(traced_cluster_run sp acc)
            ~chunk:sweep_chunk ~seed0:(txn_seed0 seed)
            ~stop:(fun n -> n >= List.length units)
            ()
        in
        let by_seed = Hashtbl.create 64 in
        List.iter (fun (u : unit_run) -> Hashtbl.replace by_seed u.useed u) traced;
        List.iter
          (fun (u : unit_run) ->
            match Hashtbl.find_opt by_seed u.useed with
            | Some t ->
                same_counts problems u t.counts;
                Option.iter
                  (fun f ->
                    problems := Fmt.str "seed %d: %s" u.useed f :: !problems)
                  t.failure
            | None ->
                problems :=
                  Fmt.str "seed %d: missing from the traced sweep" u.useed
                  :: !problems)
          units;
        let totals = Span.totals sp in
        let per_call name =
          let t = Span.find totals name in
          ratio t.Span.total_ms (float_of_int t.Span.calls)
        in

        {
          layers =
            store_layer acc totals
            @ [
                ("harness.gen_ms", per_call "harness.gen");
                ("harness.check_ms", per_call "harness.check");
                ( "trace.overhead_ratio",
                  ratio (units_ms traced) (units_ms units) );
              ];
          problems = !problems;
        });
  }

(* ----- formal_check: the paper's systems B and their checkers ----- *)

(* One replicated serial system as its harness drives it.  [max_steps],
   [abort_rate] and the drive seed restate the harness defaults; the
   non-interference check fails if they ever drift apart. *)
type 'd system = {
  label : string;
  describe : int -> 'd;
  build : 'd -> Ioa.System.t;
  drive : seed:int -> 'd -> Ioa.System.run_result;  (** the harness's own *)
  check : 'd -> Ioa.Schedule.t -> (unit, string) result;
  run_and_check : seed:int -> (int * bool, string) result;
  max_steps : int;
  abort_rate : float;
}

let drive_seed s = s lxor 0x5eed

let quorum_system =
  {
    label = "quorum";
    describe = (fun s -> Quorum.Gen.description (Prng.create s));
    build = (fun d -> Quorum.System_b.build d);
    drive = (fun ~seed d -> Quorum.Harness.run_b ~seed d);
    check = Quorum.Harness.check_all;
    run_and_check =
      (fun ~seed ->
        Result.map
          (fun (r : Quorum.Harness.report) -> (r.steps, r.quiescent))
          (Quorum.Harness.run_and_check ~seed ()));
    max_steps = 20_000;
    abort_rate = 0.1;
  }

let recon_system =
  {
    label = "recon";
    describe = (fun s -> Recon.Gen.description (Prng.create s));
    build = (fun d -> Recon.System_b.build d);
    drive = (fun ~seed d -> Recon.Harness.run ~seed d);
    check = Recon.Harness.check_all;
    run_and_check =
      (fun ~seed ->
        Result.map
          (fun (r : Recon.Harness.report) -> (r.steps, r.quiescent))
          (Recon.Harness.run_and_check ~seed ()));
    max_steps = 40_000;
    abort_rate = 0.05;
  }

(* A formal unit is a batch of consecutive seeds holding at least this
   many I/O-automaton steps: one seed's cost ranges over three orders
   of magnitude with its description's size, and single seeds would
   make the unit-time percentiles depend on which sizes a run drew. *)
let batch_steps = 1000

(* The [j]-th formal seed of unit [u]. *)
let formal_seed u j = unit_seed ~seed:u j

(* Run seeds of unit [u] until the batch is full; [counts] holds each
   seed's step count, so the traced pass can re-run the same seeds. *)
let formal_unit sys u =
  let rec go j steps counts =
    if steps >= batch_steps then (j, steps, List.rev counts, None)
    else
      let s = formal_seed u j in
      let fail why =
        ( j + 1,
          steps,
          List.rev counts,
          Some (Fmt.str "%s seed %d: %s" sys.label s why) )
      in
      match sys.run_and_check ~seed:s with
      | Ok (n, true) -> go (j + 1) (steps + n) (n :: counts)
      | Ok (_, false) -> fail "run not quiescent"
      | Error e -> fail e
  in
  go 0 0 []

(* The component kind: the name up to its first ':' — serial-scheduler,
   txn, read-tm, write-tm, recon-tm, coords, spy, object. *)
let kind c =
  let n = Ioa.Component.name c in
  match String.index_opt n ':' with Some i -> String.sub n 0 i | None -> n

(* Time a component's [enabled] and [step] closures into [cell],
   re-wrapping every successor state. *)
let rec wrap cell (c : Ioa.Component.t) : Ioa.Component.t =
  let timed_call f x =
    let t0 = now () in
    let r = f x in
    cell := !cell +. (now () -. t0);
    r
  in
  {
    c with
    enabled = (fun () -> timed_call c.enabled ());
    step = (fun a -> Option.map (wrap cell) (timed_call c.step a));
  }

(* The harness's drive, recomposed from component-wrapped automata:
   same strategy, same RNG, so the same schedule.  Returns the run and
   the seconds spent inside scheduler and other component closures. *)
let wrapped_drive sys ~seed d =
  let scheduler = ref 0.0 and others = ref 0.0 in
  let components =
    List.map
      (fun c -> wrap (if kind c = "serial-scheduler" then scheduler else others) c)
      (Ioa.System.components (sys.build d))
  in
  let strategy =
    Quorum.Harness.abort_damped ~abort_rate:sys.abort_rate
      (Ioa.System.completion_biased ())
  in
  let run =
    Ioa.System.run ~max_steps:sys.max_steps ~strategy
      ~rng:(Prng.create (drive_seed seed))
      (Ioa.System.compose components)
  in
  (run, !scheduler, !others)

(* Re-run the seeds of one formal unit with spans: generate, drive the
   harness's own way (the reference), drive component-wrapped, check. *)
let traced_formal sys sp acc problems (u : unit_run) =
  let l = sys.label in
  let span name f = Span.with_ sp (l ^ "." ^ name) f in
  let problem s why = problems := Fmt.str "%s seed %d: %s" l s why :: !problems in
  let seed_steps j =
    let s = formal_seed u.useed j in
    let d = span "gen" (fun () -> sys.describe s) in
    let reference = span "run_b" (fun () -> sys.drive ~seed:(drive_seed s) d) in
    let (run, sched_s, comp_s), drive_ms =
      timed (fun () -> span "drive" (fun () -> wrapped_drive sys ~seed:s d))
    in
    let sched = run.Ioa.System.schedule in
    if not (Ioa.Schedule.equal sched reference.Ioa.System.schedule) then
      problem s "the wrapped drive's schedule differs from the harness's";
    (match span "check" (fun () -> sys.check d sched) with
    | Ok () -> ()
    | Error e -> problem s e);
    let steps = Ioa.Schedule.length sched in
    Acc.addi acc (l ^ ".steps") steps;
    Acc.add acc (l ^ ".drive_ms") drive_ms;
    Acc.add acc (l ^ ".sched_ms") (sched_s *. 1e3);
    Acc.add acc (l ^ ".comp_ms") (comp_s *. 1e3);
    steps
  in
  span "unit" (fun () ->
      same_counts problems u (List.init (List.length u.counts) seed_steps))

let formal_check =
  {
    name = "formal_check";
    setup =
      (fun () ->
        List.iter
          (fun i -> ignore (formal_unit quorum_system (unit_seed ~seed:warmup_seed i)))
          [ 0; 1 ]);
    run = (fun ~seed ~stop -> until ~stop ~seed (formal_unit quorum_system));
    trace =
      (fun ~seed sp units ->
        (* recon seeds run here only; see README.md *)
        let recon_units =
          let deadline = now () +. (units_ms units /. 2e3) in
          until
            ~stop:(fun _ -> now () >= deadline)
            ~seed:(seed lxor 0x2ec0) (formal_unit recon_system)
        in
        let acc = Acc.create () in
        let problems = ref [] in
        List.iter
          (fun u -> Option.iter (fun f -> problems := f :: !problems) u.failure)
          recon_units;
        List.iter (traced_formal quorum_system sp acc problems) units;
        List.iter (traced_formal recon_system sp acc problems) recon_units;
        let totals = Span.totals sp in
        let g = Acc.get acc in
        let steps_per_s us =
          ratio (float_of_int (List.fold_left (fun a u -> a + u.ops) 0 us))
            (units_ms us /. 1e3)
        in
        let check_ms l =
          let t = Span.find totals (l ^ ".check") in
          ratio t.Span.total_ms (float_of_int t.Span.calls)
        in
        let span_ms names =
          sum (List.map (fun n -> (Span.find totals n).Span.total_ms) names)
        in
        let steps = g "recon.steps" in
        let drive = g "recon.drive_ms" and sched = g "recon.sched_ms" and comp = g "recon.comp_ms" in
        {
          layers =
            [
              ("serial.scheduler_us_per_step", ratio (sched *. 1e3) steps);
              ("serial.scheduler_share", ratio sched drive);
              ("serial.scheduler_share_quorum", ratio (g "quorum.sched_ms") (g "quorum.drive_ms"));
              ("ioa.components_us_per_step", ratio (comp *. 1e3) steps);
              ("ioa.system_us_per_step", ratio ((drive -. sched -. comp) *. 1e3) steps);
              ("quorum_steps_per_s", steps_per_s units);
              ("recon_steps_per_s", steps_per_s recon_units);
              ("quorum.check_ms", check_ms "quorum");
              ("recon.check_ms", check_ms "recon");
              ( "trace.overhead_ratio",
                ratio
                  (span_ms [ "quorum.drive"; "recon.drive" ])
                  (span_ms [ "quorum.run_b"; "recon.run_b" ]) );
            ];
          problems = !problems;
        });
  }

let workloads = [ kv_reads; txn_faults; formal_check ]

(* ---------- output ---------- *)

let print_result ~correct ~attempted ~failed metrics =
  let num x = Obs.Json.Num (if Float.is_finite x then x else 0.0) in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", num (float_of_int attempted));
            ("failed", num (float_of_int failed));
            ( "metrics",
              Obs.Json.Obj
                (List.map
                   (fun (name, unit_, v) ->
                     (name, Obs.Json.Obj [ ("value", num v); ("unit", Obs.Json.Str unit_) ]))
                   metrics) );
          ]))

let top_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let failures units = List.filter (fun u -> u.failure <> None) units

let report_failures units =
  List.iter
    (fun u ->
      Fmt.epr "unit seed %d failed: %s@." u.useed (Option.get u.failure))
    (failures units)

(* ---------- main ---------- *)

let main ~workload ~seed ~seconds ~trace =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None ->
        Fmt.epr "unknown workload %S (known: %s)@." workload
          (String.concat ", " (List.map (fun w -> w.name) workloads));
        exit 2
  in
  let setup_s =
    median
      (List.init (if trace then 1 else setups) (fun _ ->
           let probe = probe_ms () in
           snd (timed w.setup) /. 1e3 *. probe_nominal_ms /. probe))
  in
  let t0 = now () in
  let stop n =
    if trace then now () -. t0 >= seconds /. 3.0
    else now () -. t0 >= seconds && n >= min_units
  in
  let units = w.run ~seed ~stop in
  let wall = now () -. t0 in
  report_failures units;
  let failed = List.length (failures units) in
  let attempted = List.length units in
  if not trace then begin
    let ms = rescaled units in
    (* the wall time rescaled by the units' mean correction *)
    let scaled_wall = wall *. ratio (sum ms) (units_ms units) in
    let ops = float_of_int (List.fold_left (fun a u -> a + u.ops) 0 units) in
    let seeds = float_of_int (List.fold_left (fun a u -> a + u.seeds) 0 units) in
    Fmt.epr
      "%s seed %d: %d units in %.2fs; unrescaled: unit p50 %.3f ms, p90 %.3f \
       ms, %.1f seeds/s, %.1f ops/s; probe median %.3f ms@."
      w.name seed attempted wall
      (median (List.map (fun u -> u.ms) units))
      (quantile 0.9 (List.map (fun u -> u.ms) units))
      (seeds /. wall) (ops /. wall)
      (median (List.map (fun u -> u.probe) units));
    print_result ~correct:(failed = 0) ~attempted ~failed
      [
        ("setup_s", "s", setup_s);
        ("unit_ms_p50", "ms", median ms);
        ("unit_ms_p90", "ms", quantile 0.9 ms);
        ("seeds_per_s", "1/s", seeds /. scaled_wall);
        ("sim_ops_per_s", "1/s", ops /. scaled_wall);
        ("top_heap_mb", "MB", top_heap_mb ());
      ];
    exit (if failed = 0 then 0 else 1)
  end
  else begin
    let sp = Span.create () in
    let r = w.trace ~seed sp units in
    List.iter (fun p -> Fmt.epr "check failed: %s@." p) r.problems;
    let dir = Filename.concat "perfbench" "out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let base = Filename.concat dir (w.name ^ ".trace") in
    Obs.Export.write_chrome (base ^ ".json") (Span.trace sp);
    Obs.Export.write_jsonl (base ^ ".jsonl") (Span.trace sp);
    let layers =
      ("trace.units", float_of_int attempted)
      :: ("host.probe_ms", median (List.map (fun u -> u.probe) units))
      :: r.layers
    in
    let correct = failed = 0 && r.problems = [] in
    print_result ~correct ~attempted ~failed
      (List.map
         (fun (name, unit_) ->
           (name, unit_, Option.value ~default:0.0 (List.assoc_opt name layers)))
         per_layer_names);
    exit (if correct then 0 else 1)
  end

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  main ~workload:!workload ~seed:!seed
    ~seconds:(float_of_int !seconds)
    ~trace:(!trace = 1)
