(** Wiring: a complete simulated cluster — replicas, clients, network,
    failure injectors — running a workload, with metrics and a
    consistency audit (single-writer-per-key: reads must return a
    version at least as new as the newest write completed before the
    read began, with the value written at that version; the state
    machine is {!Harness.Check}).  Faults are injected only through
    the [script] param, a {!Harness.Script} schedule. *)

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
  targeting : Client.targeting;  (** broadcast vs targeted quorum sends *)
  policy : Rpc.Policy.t;
      (** per-request retry/backoff/hedging policy of every client;
          the default fire-once policy reproduces historical runs
          byte for byte *)
  seed : int;
  trace_capacity : int;
      (** tracer ring size; 0 disables tracing.  The tracer is
          returned as [results.trace], so callers can keep collecting
          into it *)
  n_shards : int;
      (** replica groups the keyspace is split across (default 1 —
          the historical single-group cluster; byte-identical runs) *)
  shard_scheme : Router.scheme;  (** key → shard map (default [`Hash]) *)
  batch_window : float option;
      (** multi-key batching window of every client engine ([None] =
          off, the historical behaviour) *)
  storage_cost : float;
      (** per-write latency of every replica's storage device; with
          [fsync_cost] both zero (the default) no device is attached
          and installs stay synchronous — byte-identical runs *)
  fsync_cost : float;  (** per-fsync latency of every replica's device *)
  group_commit : bool;
      (** with storage: a whole group per fsync (default) vs one
          install per fsync (the naive baseline) *)
  adaptive_window : Rpc.Window.config option;
      (** AIMD-controlled batching window of every client engine
          (takes precedence over [batch_window]; [None] = static) *)
  trace_ctx : bool;
      (** stamp every operation with a causal trace context carried
          through the engine and protocol frames to the replicas — the
          raw material of [Obs.Attribution]; off by default because
          the stamps change the trace byte stream (never the
          simulation — see {!digest}) *)
  health_window : float option;
      (** attach an [Obs.Health] monitor with this rolling window,
          sampled every half-window while the workload runs ([None] =
          none, the historical behaviour) *)
  script : Harness.Script.t;
      (** the run's fault schedule — the only way to inject faults
          (crash and bipartition storms, shard kills, timed steps);
          times relative to the run start ([[]] = no faults) *)
  txns : txn_spec option;
      (** run a cross-shard transaction workload through {!Txn}
          coordinators instead of the single-key op loop; the audit
          switches to the multi-key serializability checks ([None] =
          off, byte-identical runs) *)
  tune : tune_spec option;
      (** workload-aware quorum tuning: per-shard reply-latency EWMAs
          + queue probes feed queue-aware read steering, and a
          periodic optimizer re-strategizes shards through
          {!Autotune} — joint-strategy transition, key migration, and
          a deadline-length fence before the new quorums activate
          (DESIGN.md §16).  The optimizer half runs on single-key
          workloads only.  [None] = off, byte-identical runs *)
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

val default_params : params

val default_txn_spec : txn_spec
(** 20 txns/client, 3 keys each, ~1/3 read-only, [`Paxos], timeout
    400, 2 retries, recovery base 150. *)

val default_tune_spec : tune_spec
(** Optimizer on at epoch 40, steering on at queue weight 2, EWMA
    alpha 0.2, availability floors 0.99/0.98 at assumed p = 0.99,
    objective weights 1.0 load / 0.05 latency. *)

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
      (** queries + installs processed per replica *)
  shards : shard_stat list;  (** per-shard operations and load *)
  audit_violations : string list;
  duration : float;
  installs : int;  (** installs processed across every replica *)
  fsyncs : int;
      (** fsyncs across every replica's storage device ([0] without
          storage) *)
  trace : Obs.Trace.t;
      (** export with [Obs.Export], query with [Obs.Query] *)
  metrics : Obs.Metrics.t;
      (** shared registry of every replica and client counter *)
  health : Obs.Health.snapshot list;
      (** every health sample taken during the run, chronological —
          empty unless [health_window] was set *)
  completions : (float * bool) list;
      (** chronological [(finished_at, ok)] per completed operation —
          feed to {!Harness.Check.liveness_after_heal}; not digested *)
  txn_run : bool;  (** the run used a transaction workload *)
  ok_txns : int;  (** client-acked commits *)
  failed_txns : int;  (** attempts exhausted of retries *)
  txn_latency : Sim.Stats.summary;  (** acked-commit latencies *)
  blocked_txns : string list;
      (** txids still prepared-but-undecided at some replica when the
          run drained — the blocking-2PC metric ([= []] under Paxos
          Commit once partitions heal) *)
  decided_txns : int;  (** distinct committed decisions (≥ ok_txns) *)
  tune_run : bool;  (** the run had quorum tuning enabled *)
  strategy_switches : (float * int * string) list;
      (** chronological [(committed_at, shard, strategy_name)] of
          every completed re-strategize *)
  shard_strategies : string list;
      (** each shard's strategy name at the end of the run, in shard
          order *)
}

val availability : results -> float
(** Fraction of operations that succeeded. *)

val run : params -> results
(** @raise Invalid_argument on a bad param or a [script] that
    {!Harness.Run.install} rejects (e.g. a shard index out of range),
    before the run starts. *)

val digest : results -> string
(** A stable digest of the run's simulation outcome — latency
    summaries, operation/net counters, per-replica loads, shard stats,
    audit verdicts, duration, io counts — excluding the observability
    side channels (trace, metrics registry, health samples).  Floats
    compare bit-exactly.  Two seeded runs digest equal iff the
    simulation behaved identically, which is how the tracing
    non-interference check asserts that enabling tracing or causal
    stamping changes no simulation outcome. *)
