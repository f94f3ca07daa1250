(** Wiring: build a complete simulated cluster — replicas, clients,
    network — hand it to small drivers (the closed-loop op driver or
    the transaction driver, the health sampler, the tuner, the fault
    script), run it, and collect metrics plus a consistency audit.

    The audit exploits the single-writer-per-key discipline of
    {!Workload}: per key, completed writes carry strictly increasing
    version numbers, and every successful read must return a version
    at least as new as the newest write completed before the read
    began, with the value that was actually written at that version.
    Quorum intersection is exactly what makes this hold across
    failures; a configuration without intersection (or a protocol bug)
    fails the audit.  Sharding does not weaken it: quorums intersect
    per key inside the key's own replica group, so the audit runs
    unchanged over any shard count.  The audit state machine itself
    lives in {!Harness.Check} so nemesis tests and the seed swarm
    share it.

    The [script] param is the only fault surface: crash storms,
    bipartition storms, shard kills and every timed fault are
    {!Harness.Script} steps, interpreted by {!Harness.Run}.

    Each client is a {!Router} over [n_shards] replica groups of
    [n_replicas] each.  The defaults — one shard, no batching, burst 1
    — construct and schedule exactly the historical single-group
    cluster, byte for byte. *)

module Prng = Qc_util.Prng
module Core = Sim.Core
module Net = Sim.Net

type params = {
  n_replicas : int;  (** per shard *)
  n_clients : int;
  strategy : int -> Strategy.t;  (** from n_replicas, per shard *)
  workload : Workload.spec;
  latency : Net.latency;
  loss : float;
  timeout : float;
  targeting : Client.targeting;
  policy : Rpc.Policy.t;
      (** per-request retry/backoff/hedging policy of every client *)
  seed : int;
  trace_capacity : int;
      (** ring-buffer size of the run's tracer; 0 disables tracing.
          The tracer comes back as [results.trace], so a caller can
          keep collecting into it (e.g. an IOA run after the cluster
          run) *)
  n_shards : int;
      (** replica groups the keyspace is split across (default 1 — the
          historical single-group cluster) *)
  shard_scheme : Router.scheme;  (** key → shard map (default [`Hash]) *)
  batch_window : float option;
      (** multi-key batching window of every client engine; [None]
          (default) sends every request unbatched, byte-identically to
          historical runs *)
  storage_cost : float;
      (** per-write latency of every replica's storage device; with
          [fsync_cost] both zero (the default) no device is attached
          and installs stay synchronous — byte-identical runs *)
  fsync_cost : float;  (** per-fsync latency of every replica's device *)
  group_commit : bool;
      (** with storage attached: drain the apply queue a whole group
          per fsync (default) vs one install per fsync (the naive
          baseline of the io ablation) *)
  adaptive_window : Rpc.Window.config option;
      (** AIMD-controlled batching window of every client engine
          (takes precedence over [batch_window]); [None] (default)
          keeps the static window, byte-identically *)
  trace_ctx : bool;
      (** stamp every operation with a causal trace context (op id +
          parent span) carried through engine and protocol frames to
          the replicas — the raw material of [Obs.Attribution]; off by
          default because the stamps change the trace byte stream *)
  health_window : float option;
      (** attach an [Obs.Health] monitor with this rolling window and
          sample it every half-window while the workload runs; [None]
          (default) attaches nothing and schedules nothing *)
  script : Harness.Script.t;
      (** the run's fault schedule — the only way to inject faults;
          times are relative to the run start.  [[]] (default) injects
          nothing *)
  txns : txn_spec option;
      (** run a cross-shard transaction workload instead of the
          single-key op loop: each client issues multi-key
          transactions through a {!Txn} coordinator, the audit
          switches to the multi-key serializability checks, and the
          results gain transaction counts plus the blocked
          (in-doubt) set.  [None] (default) changes nothing —
          byte-identical runs *)
  tune : tune_spec option;
      (** workload-aware quorum tuning: per-shard reply-latency EWMAs
          and queue probes feed queue-aware read steering
          ({!Client.probe}) and a periodic optimizer that
          re-strategizes each shard through {!Autotune} (joint-
          strategy transition + key migration — DESIGN.md §16).
          [None] (default) changes nothing — byte-identical runs.
          The optimizer half only runs on single-key workloads
          ([txns = None]); steering applies wherever the shard
          clients issue quorum-targeted reads *)
}

and txn_spec = {
  txns_per_client : int;
  keys_per_txn : int;  (** footprint size (distinct keys) *)
  txn_read_fraction : float;  (** fraction of the footprint read-only *)
  commit_mode : Txn.mode;  (** [`Two_phase] or [`Paxos] *)
  txn_timeout : float;  (** per-transaction coordinator deadline *)
  txn_retries : int;
      (** re-executions of a failed transaction (each a fresh txid) *)
  recovery_delay : float;
      (** replica in-doubt recovery timer base (Paxos-Commit mode) *)
}

and tune_spec = {
  optimize : bool;  (** run the periodic per-shard strategy optimizer *)
  tune_epoch : float;  (** optimizer period (simulated time) *)
  steer : bool;  (** queue-aware read steering on the shard clients *)
  queue_weight : float;  (** steering cost per queued apply entry *)
  ewma_alpha : float;  (** reply-latency tracker blend weight *)
  p_alive : float;
      (** assumed per-replica alive probability for the availability
          floors of the optimizer's model *)
  min_read_avail : float;  (** read-availability admission floor *)
  min_write_avail : float;  (** write-availability admission floor *)
  w_load : float;  (** objective weight on peak load *)
  w_latency : float;  (** objective weight on expected op latency *)
}

let default_params =
  {
    n_replicas = 5;
    n_clients = 4;
    strategy = Strategy.majority;
    workload = Workload.default_spec;
    latency = Net.lognormal_latency ~mu:1.0 ~sigma:0.5;
    loss = 0.0;
    timeout = 100.0;
    targeting = `Broadcast;
    policy = Rpc.Policy.default;
    seed = 42;
    trace_capacity = 0;
    n_shards = 1;
    shard_scheme = `Hash;
    batch_window = None;
    storage_cost = 0.0;
    fsync_cost = 0.0;
    group_commit = true;
    adaptive_window = None;
    trace_ctx = false;
    health_window = None;
    script = [];
    txns = None;
    tune = None;
  }

let default_txn_spec =
  {
    txns_per_client = 20;
    keys_per_txn = 3;
    txn_read_fraction = 0.34;
    commit_mode = `Paxos;
    txn_timeout = 400.0;
    txn_retries = 2;
    recovery_delay = 150.0;
  }

let default_tune_spec =
  {
    optimize = true;
    tune_epoch = 40.0;
    steer = true;
    queue_weight = 2.0;
    ewma_alpha = 0.2;
    p_alive = 0.99;
    min_read_avail = 0.99;
    min_write_avail = 0.98;
    w_load = 1.0;
    w_latency = 0.05;
  }

type shard_stat = {
  shard : int;
  ok_ops : int;
  failed_ops : int;
  load : int;  (** queries + installs over the shard's replicas *)
}

type results = {
  reads : Sim.Stats.summary;
  writes : Sim.Stats.summary;
  ok_reads : int;
  failed_reads : int;
  ok_writes : int;
  failed_writes : int;
  net : Net.counters;
  replica_loads : (string * int) list;
      (** queries + installs processed per replica — the "load"
          dimension quorum targeting tunes *)
  shards : shard_stat list;  (** per-shard operations and load *)
  audit_violations : string list;
  duration : float;
  installs : int;  (** installs processed across every replica *)
  fsyncs : int;
      (** fsyncs across every replica's storage device ([0] without
          storage) — [fsyncs / installs] is the amortization the io
          ablation measures *)
  trace : Obs.Trace.t;
      (** the run's trace — export with [Obs.Export], query with
          [Obs.Query]; empty unless tracing was enabled *)
  metrics : Obs.Metrics.t;
      (** the shared registry of every replica and client counter *)
  health : Obs.Health.snapshot list;
      (** every health sample taken during the run, chronological —
          empty unless [health_window] was set *)
  completions : (float * bool) list;
      (** chronological [(finished_at, ok)] of every completed
          operation — the input of
          {!Harness.Check.liveness_after_heal}; not part of the digest
          (it is derivable from the traced run) *)
  txn_run : bool;  (** the run used a transaction workload *)
  ok_txns : int;  (** client-acked commits *)
  failed_txns : int;  (** aborted / timed-out attempts (after retries) *)
  txn_latency : Sim.Stats.summary;  (** acked-commit latencies *)
  blocked_txns : string list;
      (** txids still prepared-but-undecided at some replica when the
          run drained — in-doubt forever; the blocking-2PC metric *)
  decided_txns : int;  (** distinct committed decisions (≥ ok_txns) *)
  tune_run : bool;  (** the run had quorum tuning enabled *)
  strategy_switches : (float * int * string) list;
      (** chronological [(committed_at, shard, strategy_name)] of
          every re-strategize the optimizer completed (joint
          transition + migration included) *)
  shard_strategies : string list;
      (** each shard's strategy name at the end of the run, in shard
          order — the initial strategy when nothing switched *)
}

let availability r =
  let ok = r.ok_reads + r.ok_writes and bad = r.failed_reads + r.failed_writes in
  if ok + bad = 0 then nan else float_of_int ok /. float_of_int (ok + bad)

(* ---------- the drivers ---------- *)

(* What the drivers share: the simulation, the workload's draw stream
   and the run's tallies, which [run] reads back into {!results}. *)
type ctx = {
  p : params;
  sim : Core.t;
  wrng : Prng.t;  (* every workload draw: think times, ops, footprints *)
  zipf : Workload.zipf;
  names : string array;  (* every key's name, by key index *)
  shard_of : string -> int;
  total : int;  (* workload units (ops or txns) the clients issue *)
  health : Obs.Health.t option;
  audit : Harness.Check.audit;
  txn_audit : Harness.Check.txn_audit;
  read_lat : Sim.Stats.t;
  write_lat : Sim.Stats.t;
  txn_lat : Sim.Stats.t;
  mutable ok_reads : int;
  mutable failed_reads : int;
  mutable ok_writes : int;
  mutable failed_writes : int;
  mutable ok_txns : int;
  mutable failed_txns : int;
  shard_ok : int array;
  shard_failed : int array;
  shard_reads : int array;
      (* per-shard read/write attempts — the live mix the optimizer
         feeds on *)
  shard_writes : int array;
  mutable completed : int;
      (* units finished for good (a retried txn counts once) — when it
         reaches [total] the health sampler and the optimizer stop, so
         the event queue drains *)
  mutable done_at : float array;
      (* completion log, chronological: entries [0 .. n_done-1] of
         [done_at]/[done_ok].  It lives for the whole run, so arrays,
         not a list whose cells the GC would promote one by one *)
  mutable done_ok : bool array;
  mutable n_done : int;
  mutable health_samples : Obs.Health.snapshot list;  (* newest first *)
  mutable switches : (float * int * string) list;  (* newest first *)
}

let create_ctx p sim ~health =
  {
    p;
    sim;
    wrng = Prng.create (p.seed lxor 0xabcdef);
    zipf =
      Workload.zipf ~n:p.workload.Workload.n_keys
        ~s:p.workload.Workload.zipf_s;
    names = Workload.key_names p.workload;
    shard_of =
      Router.shard_fn p.shard_scheme ~n_shards:p.n_shards
        ~n_keys:p.workload.Workload.n_keys;
    total =
      p.n_clients
      * (match p.txns with
        | None -> p.workload.Workload.ops_per_client
        | Some spec -> spec.txns_per_client);
    health;
    audit = Harness.Check.audit ();
    txn_audit = Harness.Check.txn_audit ();
    read_lat = Sim.Stats.create ();
    write_lat = Sim.Stats.create ();
    txn_lat = Sim.Stats.create ();
    ok_reads = 0;
    failed_reads = 0;
    ok_writes = 0;
    failed_writes = 0;
    ok_txns = 0;
    failed_txns = 0;
    shard_ok = Array.make p.n_shards 0;
    shard_failed = Array.make p.n_shards 0;
    shard_reads = Array.make p.n_shards 0;
    shard_writes = Array.make p.n_shards 0;
    completed = 0;
    done_at = [||];
    done_ok = [||];
    n_done = 0;
    health_samples = [];
    switches = [];
  }

let log_completion cx ~ok =
  let n = cx.n_done in
  if n = Array.length cx.done_at then begin
    let cap = max 64 (2 * n) in
    let at = Array.make cap 0.0 and oks = Array.make cap false in
    Array.blit cx.done_at 0 at 0 n;
    Array.blit cx.done_ok 0 oks 0 n;
    cx.done_at <- at;
    cx.done_ok <- oks
  end;
  cx.done_at.(n) <- Core.now cx.sim;
  cx.done_ok.(n) <- ok;
  cx.n_done <- n + 1

(* The one completion handler of a single-key op: tallies, health feed
   and completion log. *)
let op_done cx ~shard ~read ~ok ~latency =
  let bump a = a.(shard) <- a.(shard) + 1 in
  bump (if read then cx.shard_reads else cx.shard_writes);
  (match cx.health with
  | Some h -> Obs.Health.record h ~at:(Core.now cx.sim) ~shard ~read ~ok ~latency
  | None -> ());
  if ok then begin
    bump cx.shard_ok;
    if read then cx.ok_reads <- cx.ok_reads + 1
    else cx.ok_writes <- cx.ok_writes + 1;
    Sim.Stats.add (if read then cx.read_lat else cx.write_lat) latency
  end
  else begin
    bump cx.shard_failed;
    if read then cx.failed_reads <- cx.failed_reads + 1
    else cx.failed_writes <- cx.failed_writes + 1
  end;
  log_completion cx ~ok;
  cx.completed <- cx.completed + 1

(* Issue one single-key op; [k] continues the client's loop.  Reads and
   writes differ only in their audit call. *)
let run_op cx (c : Router.t) (op : Workload.op) ~k =
  match op with
  | Read key ->
      let started = Core.now cx.sim and shard = cx.shard_of key in
      Router.read c ~key ~on_done:(fun ~ok ~vn ~value ~latency ->
          op_done cx ~shard ~read:true ~ok ~latency;
          if ok then Harness.Check.read_ok cx.audit ~key ~started ~vn ~value;
          k ())
  | Write (key, v) ->
      let shard = cx.shard_of key in
      Router.write c ~key ~value:v ~on_done:(fun ~ok ~vn ~value:_ ~latency ->
          op_done cx ~shard ~read:false ~ok ~latency;
          if ok then
            Harness.Check.write_ok cx.audit ~key ~vn ~value:v
              ~now:(Core.now cx.sim);
          k ())

(* Draw and issue ops [j .. b-1] of client [ci]'s burst.  Single-writer-
   per-key holds between bursts but not within one: a repeat write to a
   key already [written] in this burst becomes a read, so concurrent
   same-key writes never race.  Issuing as each op is drawn keeps every
   draw in order: no op completes, and so no next burst draws, before
   the whole burst is out. *)
let rec issue_burst cx (c : Router.t) ~ci ~op_counter ~k j b written =
  if j < b then
    match
      Workload.next_op cx.p.workload cx.zipf cx.wrng ~names:cx.names ~ci
        ~n_clients:cx.p.n_clients ~op_counter:(op_counter + j)
    with
    | Workload.Write (key, _) when List.mem key written ->
        run_op cx c (Workload.Read key) ~k;
        issue_burst cx c ~ci ~op_counter ~k (j + 1) b written
    | Workload.Write (key, _) as op ->
        run_op cx c op ~k;
        issue_burst cx c ~ci ~op_counter ~k (j + 1) b (key :: written)
    | op ->
        run_op cx c op ~k;
        issue_burst cx c ~ci ~op_counter ~k (j + 1) b written

(* The closed-loop op driver, one loop per client: think, then issue
   [burst] ops concurrently and wait for the whole burst. *)
let drive_ops cx clients =
  let w = cx.p.workload in
  let burst = max 1 w.Workload.burst in
  let rec issue ci c remaining op_counter =
    if remaining > 0 then
      let think = Prng.exponential cx.wrng ~mean:w.Workload.think_time in
      Core.schedule cx.sim ~delay:think (fun () ->
          let b = min burst remaining in
          let outstanding = ref b in
          let k () =
            decr outstanding;
            if !outstanding = 0 then issue ci c (remaining - b) (op_counter + b)
          in
          issue_burst cx c ~ci ~op_counter ~k 0 b [])
  in
  List.iteri (fun ci c -> issue ci c w.Workload.ops_per_client ci) clients

(* A footprint of [n] distinct Zipf-drawn keys (bounded redraws). *)
let footprint cx n =
  let keys = ref [] and have = ref 0 and tries = ref 0 in
  while !have < n && !tries < 100 * n do
    incr tries;
    let k = Workload.name_in cx.names (Workload.sample cx.zipf cx.wrng) in
    if not (List.exists (String.equal k) !keys) then begin
      keys := k :: !keys;
      incr have
    end
  done;
  List.rev !keys

(* The transaction driver: a closed loop per client issuing multi-key
   transactions through a coordinator, with bounded retries (each a
   fresh txid) spaced by think-time draws. *)
let drive_txns cx clients spec =
  if spec.keys_per_txn < 1 then
    invalid_arg "Cluster.run: keys_per_txn must be >= 1";
  let sim = cx.sim in
  let think () =
    Prng.exponential cx.wrng ~mean:cx.p.workload.Workload.think_time
  in
  let n_reads =
    int_of_float (spec.txn_read_fraction *. float_of_int spec.keys_per_txn)
  in
  List.iteri
    (fun ci c ->
      let coord =
        Txn.create
          ~name:(Fmt.str "c%d" ci)
          ~sim ~router:c ~mode:spec.commit_mode ~timeout:spec.txn_timeout ()
      in
      let rec next remaining =
        if remaining > 0 then
          Core.schedule sim ~delay:(think ()) (fun () ->
              let keys = footprint cx spec.keys_per_txn in
              let reads = List.filteri (fun i _ -> i < n_reads) keys in
              let txn_no = spec.txns_per_client - remaining in
              let writes =
                List.filteri (fun i _ -> i >= n_reads) keys
                |> List.mapi (fun j k ->
                       (k, ((ci + 1) * 1_000_000) + (txn_no * 1000) + j))
              in
              let finish () =
                cx.completed <- cx.completed + 1;
                next (remaining - 1)
              in
              let rec attempt retries_left =
                let started = Core.now sim in
                (* the footprint is nonempty, so on_done fires from a
                   scheduled reply or timeout — never inside execute —
                   and the txid cell is filled before it runs *)
                let txid = ref "" in
                txid :=
                  Txn.execute coord ~reads ~writes
                    ~on_done:(fun ~committed ~reads:rsnap ~writes:wset
                                  ~latency ->
                      log_completion cx ~ok:committed;
                      if committed then begin
                        cx.ok_txns <- cx.ok_txns + 1;
                        Sim.Stats.add cx.txn_lat latency;
                        Harness.Check.txn_committed cx.txn_audit ~txid:!txid
                          ~started ~now:(Core.now sim) ~reads:rsnap
                          ~writes:wset;
                        finish ()
                      end
                      else if retries_left > 0 then
                        Core.schedule sim ~delay:(think ()) (fun () ->
                            attempt (retries_left - 1))
                      else begin
                        cx.failed_txns <- cx.failed_txns + 1;
                        finish ()
                      end)
                    ()
              in
              attempt spec.txn_retries)
      in
      next spec.txns_per_client)
    clients

(* The health sampler: every half-window until the workload has
   completed. *)
let sample_health cx h =
  let period = Obs.Health.window h /. 2.0 in
  let rec tick () =
    Core.schedule cx.sim ~delay:period (fun () ->
        let snaps = Obs.Health.sample h ~at:(Core.now cx.sim) in
        cx.health_samples <- List.rev_append snaps cx.health_samples;
        if cx.completed < cx.total then tick ())
  in
  if cx.total > 0 then tick ()

(* ---------- the tuner ---------- *)

let set_shard_strategy clients s st =
  List.iter (fun c -> Router.set_strategy c ~shard:s st) clients

(* Re-strategize shard [s]: move every client to the joint strategy
   (quorums of both old and new — reads still cover data at rest,
   writes already land on new-strategy quorums), migrate each of the
   shard's keys by reading its newest version and re-installing it at a
   joint write quorum, then — after the op deadline has fenced out
   anything issued under the old strategy — commit the new one.  Any
   migration failure aborts back to the old strategy, which joint
   quorums also satisfy. *)
let restrategize cx ~clients ~strategies ~transitioning s next_s =
  let current = strategies.(s) in
  let j = Autotune.joint current next_s in
  if Strategy.legal j then begin
    let sim = cx.sim and migrator = List.hd clients in
    transitioning.(s) <- true;
    let started = Core.now sim in
    set_shard_strategy clients s j;
    let keys =
      List.init cx.p.workload.Workload.n_keys (Workload.name_in cx.names)
      |> List.filter (fun k -> cx.shard_of k = s)
    in
    let pending = ref (List.length keys) and failed = ref false in
    let commit () =
      let fence = started +. cx.p.timeout -. Core.now sim in
      Core.schedule sim ~delay:(Float.max 0.0 fence) (fun () ->
          set_shard_strategy clients s next_s;
          strategies.(s) <- next_s;
          cx.switches <- (Core.now sim, s, next_s.Strategy.name) :: cx.switches;
          transitioning.(s) <- false)
    in
    let key_done () =
      decr pending;
      if !pending = 0 then
        if !failed then begin
          set_shard_strategy clients s current;
          transitioning.(s) <- false
        end
        else commit ()
    in
    if keys = [] then commit ()
    else
      List.iter
        (fun key ->
          Router.read migrator ~key ~on_done:(fun ~ok ~vn ~value ~latency:_ ->
              if not ok then begin
                failed := true;
                key_done ()
              end
              else if vn = 0 then key_done ()
              else
                Router.install migrator ~key ~vn ~value
                  ~on_done:(fun ~ok ~vn:_ ~value:_ ~latency:_ ->
                    if not ok then failed := true;
                    key_done ())))
        keys
  end

(* The periodic optimizer: every epoch while the workload runs, ask
   {!Autotune.choose} for each idle shard's best strategy under the
   shard's live read/write mix and latency EWMAs, and re-strategize the
   shard when that is a different one. *)
let optimize cx spec ~clients ~strategies ~ewmas =
  let config =
    {
      Tune.Model.w_load = spec.w_load;
      w_latency = spec.w_latency;
      min_read_availability = spec.min_read_avail;
      min_write_availability = spec.min_write_avail;
    }
  in
  let transitioning = Array.make cx.p.n_shards false in
  let read_fraction s =
    let reads = cx.shard_reads.(s) and writes = cx.shard_writes.(s) in
    if reads + writes = 0 then cx.p.workload.Workload.read_fraction
    else float_of_int reads /. float_of_int (reads + writes)
  in
  let rec tick () =
    Core.schedule cx.sim ~delay:spec.tune_epoch (fun () ->
        if cx.completed < cx.total then begin
          for s = 0 to cx.p.n_shards - 1 do
            if not transitioning.(s) then
              match
                Autotune.choose ~config ~read_fraction:(read_fraction s)
                  ~p_alive:spec.p_alive ~lat:(Tune.Ewma.value ewmas.(s))
                  cx.p.n_replicas
              with
              | Some { Autotune.strategy = next_s; _ }
                when Strategy.legal next_s
                     && not
                          (String.equal next_s.Strategy.name
                             strategies.(s).Strategy.name) ->
                  restrategize cx ~clients ~strategies ~transitioning s next_s
              | _ -> ()
          done;
          tick ()
        end)
  in
  if cx.total > 0 then tick ()

(* Workload-aware quorum tuning (DESIGN.md §16): shared per-shard
   latency trackers and queue probes on every shard client drive
   queue-aware read steering, and on single-key workloads the periodic
   optimizer re-strategizes shards. *)
let tune cx spec ~clients ~replicas ~strategies =
  if
    not
      (Float.is_finite spec.tune_epoch
      && Float.compare spec.tune_epoch 0.0 > 0)
  then invalid_arg "Cluster.run: tune_epoch must be positive";
  let ewmas =
    Array.init cx.p.n_shards (fun _ ->
        Tune.Ewma.create ~n:cx.p.n_replicas ~alpha:spec.ewma_alpha ())
  in
  List.iter
    (fun c ->
      for s = 0 to cx.p.n_shards - 1 do
        Router.set_probe c ~shard:s
          (Some
             {
               Client.ewma = ewmas.(s);
               queue_depth =
                 (fun i -> float_of_int (Replica.queue_depth replicas.(s).(i)));
               queue_weight = spec.queue_weight;
               steer = spec.steer;
             })
      done)
    clients;
  if Option.is_none cx.p.txns && spec.optimize && cx.p.n_clients > 0 then
    optimize cx spec ~clients ~strategies ~ewmas

(* ---------- the run ---------- *)

let run (p : params) : results =
  if p.n_shards < 1 then invalid_arg "Cluster.run: n_shards must be >= 1";
  if p.n_replicas < 1 then invalid_arg "Cluster.run: n_replicas must be >= 1";
  let sim = Core.create ~seed:p.seed in
  let tracer = Obs.Trace.create ~capacity:p.trace_capacity () in
  Core.attach_tracer sim tracer;
  let metrics = Obs.Metrics.create () in
  (* one shard keeps the historical flat names (and seeded runs
     byte-identical); several shards qualify them *)
  let group_names =
    if p.n_shards = 1 then
      [| Array.init p.n_replicas (fun i -> Fmt.str "r%d" i) |]
    else
      Array.init p.n_shards (fun s ->
          Array.init p.n_replicas (fun i -> Fmt.str "s%d:r%d" s i))
  in
  let replica_names =
    Array.to_list group_names |> List.concat_map Array.to_list
  in
  let client_names = List.init p.n_clients (fun i -> Fmt.str "c%d" i) in
  let net =
    Net.create ~sim ~nodes:(replica_names @ client_names) ~latency:p.latency
      ~loss:p.loss ()
  in
  (* a storage device per replica, but only when a cost is nonzero:
     default runs attach nothing and schedule nothing new *)
  let storage_enabled = p.storage_cost > 0.0 || p.fsync_cost > 0.0 in
  let replicas =
    Array.mapi
      (fun s group ->
        let extra_labels =
          if p.n_shards = 1 then [] else [ ("shard", string_of_int s) ]
        in
        Array.map
          (fun name ->
            let storage =
              if storage_enabled then
                Some
                  (Sim.Storage.create ~sim ~name ~write_cost:p.storage_cost
                     ~fsync_cost:p.fsync_cost ())
              else None
            in
            Replica.create ~metrics ~extra_labels ?storage
              ~group_commit:p.group_commit
              ?txn_recovery_delay:
                (Option.map (fun s -> s.recovery_delay) p.txns)
              ~name ())
          group)
      group_names
  in
  let all_replicas = Array.to_list replicas |> List.concat_map Array.to_list in
  List.iter (fun r -> Replica.attach r ~net) all_replicas;
  let strategies = Array.make p.n_shards (p.strategy p.n_replicas) in
  (* the health monitor, when asked for: per-shard rolling windows fed
     by every completed operation, with the apply-queue probe averaging
     over the shard's replicas *)
  let health =
    Option.map
      (fun window ->
        let queue_depth s =
          let g = replicas.(s) in
          let total =
            Array.fold_left (fun acc r -> acc + Replica.queue_depth r) 0 g
          in
          float_of_int total /. float_of_int (Array.length g)
        in
        Obs.Health.create ~window ~n_shards:p.n_shards ~queue_depth ())
      p.health_window
  in
  let cx = create_ctx p sim ~health in
  (* transaction runs feed the multi-key audit from every replica's
     decision hook (authoritative — it covers commits whose coordinator
     died) as well as from client-acked commits *)
  if Option.is_some p.txns then
    List.iter
      (fun r ->
        Replica.set_on_decided r (fun ~txid ~commit ~writes ->
            Harness.Check.txn_decided cx.txn_audit ~txid ~commit ~writes))
      all_replicas;
  let clients =
    List.mapi
      (fun ci name ->
        let c =
          Router.create ~name ~sim ~net ~groups:group_names ~strategies
            ~scheme:p.shard_scheme ~n_keys:p.workload.Workload.n_keys
            ~timeout:p.timeout ~targeting:p.targeting ~trace_ctx:p.trace_ctx
            ~policy:p.policy ~seed:(p.seed + ci) ~metrics
            ?batch_window:p.batch_window ?adaptive_window:p.adaptive_window ()
        in
        Router.attach c;
        c)
      client_names
  in
  (* the drivers schedule their first events in this order — byte-
     identical replay depends on it *)
  (match p.txns with
  | None -> drive_ops cx clients
  | Some spec -> drive_txns cx clients spec);
  Option.iter (sample_health cx) health;
  Option.iter (fun spec -> tune cx spec ~clients ~replicas ~strategies) p.tune;
  let env =
    {
      Harness.Run.sim;
      net;
      groups = group_names;
      clients = client_names;
      seed = p.seed;
    }
  in
  ignore (Harness.Run.install env p.script : Sim.Failure.t list);
  Core.run sim;
  if Option.is_some p.txns then Harness.Check.txn_check cx.txn_audit;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 all_replicas in
  {
    reads = Sim.Stats.summarize cx.read_lat;
    writes = Sim.Stats.summarize cx.write_lat;
    ok_reads = cx.ok_reads;
    failed_reads = cx.failed_reads;
    ok_writes = cx.ok_writes;
    failed_writes = cx.failed_writes;
    net = Net.counters net;
    replica_loads =
      List.map
        (fun (r : Replica.t) -> (r.Replica.name, Replica.load r))
        all_replicas;
    shards =
      List.init p.n_shards (fun s ->
          {
            shard = s;
            ok_ops = cx.shard_ok.(s);
            failed_ops = cx.shard_failed.(s);
            load =
              Array.fold_left
                (fun acc r -> acc + Replica.load r)
                0 replicas.(s);
          });
    audit_violations =
      (match p.txns with
      | None -> Harness.Check.violations cx.audit
      | Some _ -> Harness.Check.txn_violations cx.txn_audit);
    duration = Core.now sim;
    installs =
      sum (fun (r : Replica.t) -> Obs.Metrics.value r.Replica.installs);
    fsyncs = sum Replica.fsyncs;
    trace = tracer;
    metrics;
    health = List.rev cx.health_samples;
    completions = List.init cx.n_done (fun i -> (cx.done_at.(i), cx.done_ok.(i)));
    txn_run = Option.is_some p.txns;
    ok_txns = cx.ok_txns;
    failed_txns = cx.failed_txns;
    txn_latency = Sim.Stats.summarize cx.txn_lat;
    (* txids still prepared-but-undecided at some replica: in doubt
       forever *)
    blocked_txns =
      (if Option.is_none p.txns then []
       else
         List.concat_map Replica.in_doubt all_replicas
         |> List.sort_uniq String.compare);
    decided_txns = Harness.Check.txn_decided_count cx.txn_audit;
    tune_run = Option.is_some p.tune;
    strategy_switches = List.rev cx.switches;
    shard_strategies =
      Array.to_list
        (Array.map (fun (s : Strategy.t) -> s.Strategy.name) strategies);
  }

(** A stable digest of the run's simulation outcome — every
    observable result except the observability side channels (trace,
    metrics registry, health samples).  Floats render as hex ([%h]),
    so equality is bit-equality: two runs digest equal iff the
    simulation behaved identically.  This is what the tracing
    non-interference check compares — enabling tracing or causal
    stamping must never change the digest of a seeded run. *)
let digest (r : results) : string =
  let b = Buffer.create 1024 in
  let add fmt = Fmt.kstr (Buffer.add_string b) fmt in
  let summary (s : Sim.Stats.summary) =
    add "%d %h %h %h %h %h %h %h;" s.Sim.Stats.count s.Sim.Stats.mean
      s.Sim.Stats.p50 s.Sim.Stats.p90 s.Sim.Stats.p95 s.Sim.Stats.p99
      s.Sim.Stats.p999 s.Sim.Stats.max
  in
  summary r.reads;
  summary r.writes;
  add "ops %d %d %d %d;" r.ok_reads r.failed_reads r.ok_writes r.failed_writes;
  add "net %d %d %d %d %d %d %d %d %d;" r.net.Net.sent r.net.Net.delivered
    r.net.Net.payload_sent r.net.Net.payload_delivered r.net.Net.dropped
    r.net.Net.drop_sender_down r.net.Net.drop_dest_down r.net.Net.drop_link_cut
    r.net.Net.drop_loss;
  List.iter (fun (name, load) -> add "load %s %d;" name load) r.replica_loads;
  List.iter
    (fun s -> add "shard %d %d %d %d;" s.shard s.ok_ops s.failed_ops s.load)
    r.shards;
  List.iter (fun v -> add "violation %s;" v) r.audit_violations;
  add "duration %h;" r.duration;
  add "io %d %d" r.installs r.fsyncs;
  (* the txn section exists only on transaction runs, so every legacy
     configuration digests byte-identically to before *)
  if r.txn_run then begin
    add ";txns %d %d %d;" r.ok_txns r.failed_txns r.decided_txns;
    summary r.txn_latency;
    List.iter (fun txid -> add "blocked %s;" txid) r.blocked_txns
  end;
  (* likewise, the tune section exists only when tuning was enabled *)
  if r.tune_run then begin
    add ";tune";
    List.iteri (fun s name -> add " %d:%s" s name) r.shard_strategies;
    add ";";
    List.iter
      (fun (at, s, name) -> add "switch %h %d %s;" at s name)
      r.strategy_switches
  end;
  Digest.to_hex (Digest.string (Buffer.contents b))
