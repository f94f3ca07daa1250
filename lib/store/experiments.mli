(** The quantitative experiments (DESIGN.md Q1-Q4, G1-G3): the
    evaluation the paper's introduction motivates. *)

type availability_row = {
  strategy : string;
  p : float;
  read_analytic : float;
  write_analytic : float;
  simulated : float;
}

val availability_sweep : unit -> availability_row list
(** Q1: analytic and simulated availability per strategy (n = 5) and
    per-site availability. *)

type latency_row = {
  strategy : string;
  min_read_quorum : int;
  min_write_quorum : int;
  read : Sim.Stats.summary;
  write : Sim.Stats.summary;
}

val latency_table : unit -> latency_row list
(** Q2: operation latency by strategy. *)

type crossover_row = {
  read_fraction : float;
  rowa_mean : float;
  majority_mean : float;
  winner : string;
}

val mean_op_latency : Cluster.results -> float

val crossover : unit -> crossover_row list
(** Q3: who wins at which read fraction. *)

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

val gifford_examples : unit -> gifford_row list
(** G1-G3: weighted-voting configurations in the style of Gifford's
    examples. *)

type reconfig_row = { phase : string; ok : int; failed : int; rate : float }

val reconfig_experiment : unit -> reconfig_row list
(** Q4: reconfiguration restores availability after permanent replica
    failures (RoWa -> majority-of-survivors with data migration). *)

type repair_row = {
  mode : string;
  staleness_mid : float;
      (** mean fraction of stale replicas per key when failures stop *)
  staleness_end : float;  (** idem after the read-only phase *)
  repairs_sent : int;
}

val read_repair_experiment : unit -> repair_row list
(** Anti-entropy on the read path: replica staleness after a
    failure-heavy write phase and a read-only phase, repair off vs
    on. *)

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

val optimal_configurations : unit -> optimum_row list
(** Search all vote assignments over 5 sites (votes 0-3, minimal legal
    thresholds) for the availability-optimal configuration per
    (per-site availability, read fraction) point. *)

type load_row = {
  strategy_name : string;
  mode : string;
  messages : int;
  read_mean : float;
  availability : float;
  load_imbalance : float;
      (** max replica load / mean replica load (1.0 = perfectly flat) *)
}

val load_table : unit -> load_row list
(** Broadcast vs targeted-quorum routing: message counts, read
    latency, availability, and per-replica load imbalance. *)

type outcome = {
  ok_ops : int;
  failed_ops : int;
  audit_clean : bool;  (** every run's consistency audit passed *)
  messages : int;  (** wire messages *)
  payloads : int;  (** logical requests carried *)
}
(** What an ablation row reports about its runs besides its own
    measure; counts are summed over the row's runs. *)

type retry_row = {
  policy_name : string;
  condition : string;
  success_rate : float;
  read_mean : float;
  retries : int;
  hedges : int;
  outcome : outcome;
}

val retry_policy_table : unit -> retry_row list
(** Ablation: operation success rate and latency vs the engine's
    retry/backoff/hedging policy, under message loss and nemesis
    partitions (targeted-quorum routing — the stress case for
    fire-once clients). *)

type shard_row = {
  n_shards : int;
  total_replicas : int;
  messages : int;
  replica_imbalance : float;
      (** max replica load / mean replica load (1.0 = flat) *)
  shard_spread : float;
      (** max shard load / mean shard load (1 shard: 1.0) *)
  availability : float;  (** mean over the seeds *)
  min_availability : float;  (** worst seed (= mean with one seed) *)
  kill_availability : float;
      (** availability with the hottest shard crashed at t=500 (a
          [Kill_shard] script step), mean over the seeds *)
  min_kill_availability : float;  (** worst seed *)
}

val shard_table : ?seeds:int -> unit -> shard_row list
(** Ablation: a Zipf-skewed workload over 1/2/4 range shards (3
    replicas each) — load spread across replicas and shards, and the
    blast radius of killing the hot shard mid-run.  [seeds] (default
    1) averages the availability cells over consecutive seeds,
    reporting min and mean; load/message columns come from the base
    seed.  @raise Invalid_argument if [seeds < 1]. *)

type batch_row = {
  zipf_label : string;
  mode : string;
  read_p95 : float;
  write_p95 : float;
  outcome : outcome;
}

val batching_table : unit -> batch_row list
(** Ablation: multi-key batching on burst-issuing clients, uniform vs
    Zipf-skewed keys — wire messages vs logical payloads, and the p95
    latency cost of the batching window. *)

type io_row = {
  io_mode : string;  (** "no-storage", "naive-fsync", "group-commit" *)
  io_installs : int;
  io_fsyncs : int;
  io_fsyncs_per_install : float;  (** the amortization measure *)
  io_write_mean : float;
  io_write_p95 : float;
  outcome : outcome;
}

val io_table : unit -> io_row list
(** Ablation: the replica-side apply pipeline under a burst-8 Zipf
    write-heavy workload with per-write and per-fsync storage costs —
    naive per-install fsync (1.0 fsyncs/install, serialized) vs group
    commit (one fsync per drained group), with the free-storage
    baseline alongside.  The audit must stay clean in every mode. *)

type window_row = {
  w_workload : string;  (** "burst-8 zipf" or "uniform low-rate" *)
  w_mode : string;  (** "unbatched", "static w=...", "adaptive" *)
  w_op_mean : float;  (** mean latency over all successful ops *)
  outcome : outcome;
}

val window_table : unit -> window_row list
(** Ablation: static batching windows vs the AIMD-controlled adaptive
    window, on a burst-8 Zipf workload (coalescing pays) and a uniform
    low-rate workload (any window only adds latency).  The adaptive
    window should match or beat the best static window's wire-message
    count on the burst workload while adding no latency on the
    low-rate one. *)

type attr_row = {
  a_label : string;  (** e.g. ["loss=30% burst=8"] *)
  a_ops : int;  (** stamped operations attributed *)
  a_wall_mean : float;  (** mean wall latency over attributed ops *)
  a_phase_means : (Obs.Attribution.phase * float) list;
      (** mean time units per op per phase, in
          {!Obs.Attribution.phases} order; sums to [a_wall_mean] up to
          float error *)
  outcome : outcome;
}

val attribution_table : unit -> attr_row list
(** Ablation: causal latency attribution across loss (0% vs 30%) and
    burst size (1 vs 8) on a 2-shard cluster with retries, a static
    batch window, and storage costs — each knob's latency cost lands
    in its own phase (backoff under loss, batch-wait and fsync under
    bursts) and every row's phases sum to its wall mean. *)

val txn_kill_script : Harness.Script.t
(** The pinned coordinator-kill schedule: client-coordinators c0 and
    c1 die inside the commit window (t=30, t=55), recover at t=700,
    and the network heals at t=701. *)

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

val txn_table : seeds:int -> txn_row list
(** Ablation: blocking 2PC vs Paxos Commit under {!txn_kill_script}
    (3 shards x majority-3, 3 clients, 12 txns each), one row per
    mode and seed [1 .. seeds], 2PC first.
    @raise Invalid_argument if [seeds < 1]. *)

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

val tune_table : ?seeds:int -> unit -> tune_row list
(** Ablation: the workload-aware optimizer and queue-aware read
    steering vs. static majority, across read mixes (90/10, 50/50)
    and environments (uniform, one slow replica), averaged over
    [seeds] (default 3) consecutive seeds.  Quorum targeting,
    fire-once policy — the regime the analytic model scores.
    @raise Invalid_argument if [seeds < 1]. *)
