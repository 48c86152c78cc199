//! The metric-key registry: the single declared schema of every metric
//! key the workspace emits.
//!
//! Producers (simulator, cache, optimizer, benches) and consumers
//! (manifest writers, CI jq gates) agree by referencing these constants
//! instead of spelling strings. The contract is held by types and one
//! test rather than by a linter:
//!
//! * [`Key`] has a private field, so only this module can build one. The
//!   registry and manifest methods that name a metric take a `Key`, so a
//!   raw string literal there fails to compile.
//! * [`ALL`](crate::keys::ALL) lists every key. `tests/toolchain_lints.rs` checks that the
//!   values are unique, that every constant is referenced outside this
//!   file, and that every key a CI gate reads is declared here.
//! * Keys built per system or per label (`load.grid-3x3`) go through
//!   [`crate::RunManifest::set_labeled_metric`] with a declared prefix.

use std::fmt;

/// A declared metric key. Only this module can construct one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(&'static str);

impl Key {
    /// The key as it appears in snapshots and manifests.
    pub const fn as_str(self) -> &'static str {
        self.0
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// Declares each key once, as a `pub const` plus an entry in [`ALL`].
macro_rules! keys {
    ($($(#[$doc:meta])* $name:ident = $value:literal;)*) => {
        $($(#[$doc])* pub const $name: Key = Key($value);)*

        /// Every declared key, in declaration order.
        pub const ALL: &[Key] = &[$($name),*];
    };
}

keys! {
    /// DES events popped from the future-event list.
    DES_EVENTS = "des.events_processed";
    /// Site up/down transitions applied.
    DES_SITE_TRANSITIONS = "des.site_transitions";
    /// Link up/down transitions applied.
    DES_LINK_TRANSITIONS = "des.link_transitions";
    /// Accesses submitted (warm-up + measured).
    DES_ACCESSES = "des.accesses";
    /// Cancelled-timer tombstones still resident in the event list at
    /// observation time (gauge).
    DES_QUEUE_TOMBSTONES = "des.queue_tombstones";
    /// Tombstone compaction sweeps performed by the event list.
    DES_QUEUE_COMPACTIONS = "des.queue_compactions";
    /// Objects simulated by the sharded throughput engine.
    SHARD_OBJECTS = "shard.objects";
    /// Shards the object space was partitioned into.
    SHARD_SHARDS = "shard.shards";
    /// Accesses dispatched across all objects (reads + writes).
    SHARD_ACCESSES = "shard.accesses";
    /// Connectivity epochs in the shared failure timeline.
    SHARD_EPOCHS = "shard.epochs";
    /// Assignment profiles (grant rows per epoch) in the timeline.
    SHARD_ASSIGNMENTS = "shard.assignments";
    /// Reads granted across all objects.
    SHARD_READS_GRANTED = "shard.reads_granted";
    /// Writes granted across all objects.
    SHARD_WRITES_GRANTED = "shard.writes_granted";
    /// Reads submitted across all objects.
    SHARD_READS_SUBMITTED = "shard.reads_submitted";
    /// Writes submitted across all objects.
    SHARD_WRITES_SUBMITTED = "shard.writes_submitted";
    /// Partition reads of a partition already read since it last
    /// changed.
    CACHE_HITS = "graph.component_cache.hits";
    /// Partition reads that were the first after a partition change.
    CACHE_RECOMPUTATIONS = "graph.component_cache.recomputations";
    /// Topology events the incremental kernel absorbed by merging
    /// components (recoveries; no BFS).
    DELTA_MERGES = "graph.delta_merges";
    /// Site failures in multi-site components, and link failures that
    /// split a component.
    DELTA_RESCANS = "graph.delta_rescans";
    /// Topology events that needed no re-partitioning: links outside
    /// the up-subgraph, link cuts whose endpoints stay joined, and
    /// failures of isolated sites.
    DELTA_NOOPS = "graph.delta_noops";
    /// Topology events absorbed by rebuilding the kernel from scratch.
    FULL_RECOMPUTES = "graph.full_recomputes";
    /// Batches executed by a runner.
    RUN_BATCHES = "replica.batches";
    /// Worker threads the runner used.
    RUN_THREADS = "replica.threads";
    /// Objective evaluations spent by optimizer argmax sweeps.
    OPTIMIZER_EVALUATIONS = "core.optimizer.evaluations";
    /// Messages sent by cluster sites (all types, including retries).
    CLUSTER_MESSAGES_SENT = "cluster.messages_sent";
    /// Messages delivered to their destination site.
    CLUSTER_MESSAGES_DELIVERED = "cluster.messages_delivered";
    /// Messages dropped (Bernoulli loss or partitioned at delivery time).
    CLUSTER_MESSAGES_DROPPED = "cluster.messages_dropped";
    /// Quorum sessions (read or write) started, excluding retries.
    CLUSTER_SESSIONS = "cluster.sessions";
    /// Retry rounds dispatched after a session timeout.
    CLUSTER_RETRIES = "cluster.retries";
    /// Sessions resolved `Committed`.
    CLUSTER_COMMITTED = "cluster.committed";
    /// Sessions resolved `TimedOut` after exhausting retries.
    CLUSTER_TIMED_OUT = "cluster.timed_out";
    /// Sessions resolved `Unavailable` (coordinator down at dispatch).
    CLUSTER_UNAVAILABLE = "cluster.unavailable";
    /// Session timers voided before firing (session resolved first).
    CLUSTER_TIMERS_CANCELLED = "cluster.timers_cancelled";
    /// Measured read sessions submitted (excludes warm-up).
    CLUSTER_READS_SUBMITTED = "cluster.reads_submitted";
    /// Measured write sessions submitted (excludes warm-up).
    CLUSTER_WRITES_SUBMITTED = "cluster.writes_submitted";
    /// Quorum systems evaluated by the algebra comparison harness.
    ALGEBRA_SYSTEMS_EVALUATED = "algebra.systems_evaluated";
    /// Intersection certifications performed (one per evaluated system).
    ALGEBRA_INTERSECTION_CHECKS = "algebra.intersection_checks";
    /// Certifications that found a violated intersection (must stay 0
    /// for every *reported* system — the CI smoke gate asserts it).
    ALGEBRA_INTERSECTION_FAILURES = "algebra.intersection_failures";
    /// Minimal quorums enumerated across all evaluated systems.
    ALGEBRA_QUORUMS_ENUMERATED = "algebra.quorums_enumerated";
    /// Multiplicative-weights iterations spent optimizing strategies.
    ALGEBRA_STRATEGY_ITERATIONS = "algebra.strategy_iterations";
    /// Retry rounds that adopted a different assignment epoch and reset
    /// their accumulated pledges (cross-epoch-mixing fix).
    CLUSTER_CROSS_EPOCH_RESETS = "cluster.cross_epoch_resets";
    /// Phase-1 pledges ignored for carrying a mismatched epoch tag.
    CLUSTER_STALE_GRANTS_IGNORED = "cluster.stale_grants_ignored";
    /// Canonical states the model checker explored.
    MC_STATES_EXPLORED = "mc.states_explored";
    /// Transitions (choice executions) the model checker took.
    MC_TRANSITIONS = "mc.transitions";
    /// Invariant violations found across the exploration.
    MC_VIOLATIONS = "mc.violations";
    /// Frontier states cut off by the depth bound (0 = exhaustive).
    MC_TRUNCATED = "mc.truncated";
    /// Explorations aborted by the state-count cap (0 = exhaustive).
    MC_CAPPED = "mc.capped";
    /// Enabled transitions skipped by partial-order reduction.
    MC_POR_SKIPS = "mc.por_skips";
    /// Deliveries pruned as provable no-ops (equivalent to drops).
    MC_NOOP_SKIPS = "mc.noop_skips";
    /// Site permutations in the symmetry group used for canonicalization.
    MC_SYMMETRY_PERMS = "mc.symmetry_perms";
    /// Deepest BFS layer reached during exploration.
    MC_MAX_DEPTH = "mc.max_depth";
    /// Events pushed into the future-event list.
    DES_EVENTS_SCHEDULED = "des.events_scheduled";
    /// Violations that mixed pledges across assignment epochs.
    MC_CROSS_EPOCH_VIOLATIONS = "mc.cross_epoch_violations";
    /// Stale-read invariant violations found by the checker.
    MC_STALE_READ_VIOLATIONS = "mc.stale_read_violations";
    /// Concurrent-write invariant violations found by the checker.
    MC_MULTI_WRITE_VIOLATIONS = "mc.multi_write_violations";
    /// BFS depth of the first invariant violation (gauge; absent if none).
    MC_FIRST_VIOLATION_DEPTH = "mc.first_violation_depth";
    /// BFS depth of the first cross-epoch violation (gauge).
    MC_FIRST_CROSS_EPOCH_DEPTH = "mc.first_cross_epoch_depth";
    /// Manifest metric: 1 if `model_check` ran under the
    /// `mix_epoch_votes` ablation (`--ablate`), 0 otherwise.
    MC_ABLATE = "mc.ablate";
    /// Timer over one model-check exploration (`model_check`'s phase).
    MC_EXPLORE = "mc.explore";
    /// Manifest metric: peak resident set of the model-check process in
    /// MiB (`VmHWM`; absent where `/proc/self/status` is).
    MC_PEAK_RSS_MB = "mc.peak_rss_mb";
    /// Phase label for a static-assignment replica run.
    REPLICA_RUN_STATIC = "replica.run_static";
    /// Per-batch duration histogramming in the replica runner.
    REPLICA_BATCH = "replica.batch";
    /// Replica worker-pool utilization gauge (accounted wall-clock).
    REPLICA_THREAD_UTILIZATION = "replica.thread_utilization";
    /// Combined (read+write) cluster availability estimate.
    CLUSTER_AVAILABILITY = "cluster.availability";
    /// Read-session availability estimate.
    CLUSTER_READ_AVAILABILITY = "cluster.read_availability";
    /// Write-session availability estimate.
    CLUSTER_WRITE_AVAILABILITY = "cluster.write_availability";
    /// Committed sessions per simulated second.
    CLUSTER_GOODPUT = "cluster.goodput";
    /// Mean commit latency of read sessions (simulated time).
    CLUSTER_READ_LATENCY_MEAN = "cluster.read_latency_mean";
    /// Mean commit latency of write sessions (simulated time).
    CLUSTER_WRITE_LATENCY_MEAN = "cluster.write_latency_mean";
    /// CI half-width of the cluster availability estimate.
    CLUSTER_CI_HALF_WIDTH = "cluster.ci_half_width";
    /// Read-latency histogram record in the manifest.
    CLUSTER_READ_LATENCY = "cluster.read_latency";
    /// Write-latency histogram record in the manifest.
    CLUSTER_WRITE_LATENCY = "cluster.write_latency";
    /// Timer over a whole cluster simulation run.
    CLUSTER_RUN = "cluster.run";
    /// Per-batch duration histogramming in the cluster runner.
    CLUSTER_BATCH = "cluster.batch";
    /// Cluster worker-pool utilization gauge (accounted wall-clock).
    CLUSTER_THREAD_UTILIZATION = "cluster.thread_utilization";
    /// Worker threads the sharded engine used (gauge).
    SHARD_THREADS = "shard.threads";
    /// Sharded-engine worker-pool utilization gauge.
    SHARD_THREAD_UTILIZATION = "shard.thread_utilization";
    /// Timer over building the shared failure timeline.
    PHASE_TIMELINE_BUILD = "phase.timeline_build";
    /// Timer over the sharded engine run (`ShardEngine::run_sharded`).
    PHASE_BATCHED_RUN = "phase.batched_run";
    /// Timer over the naive per-access engine run.
    PHASE_NAIVE_RUN = "phase.naive_run";
    /// Manifest metric: overall availability of the run.
    AVAILABILITY = "availability";
    /// Manifest metric: read-only availability of the run.
    READ_AVAILABILITY = "read_availability";
    /// Manifest metric: write availability of the run.
    WRITE_AVAILABILITY = "write_availability";
    /// Manifest metric: CI half-width of the availability estimate; also
    /// a metric prefix, per run (label: the run).
    CI_HALF_WIDTH = "ci_half_width";
    /// Manifest metric: simulated horizon of the throughput run.
    HORIZON = "horizon";
    /// Manifest metric: batched-engine accesses per wall-clock second.
    ACCESSES_PER_SEC = "accesses_per_sec";
    /// Manifest metric: batched-engine wall-clock seconds.
    BATCHED_WALL_SECS = "batched_wall_secs";
    /// Manifest metric: naive-engine accesses per wall-clock second.
    NAIVE_ACCESSES_PER_SEC = "naive_accesses_per_sec";
    /// Manifest metric: naive-engine wall-clock seconds.
    NAIVE_WALL_SECS = "naive_wall_secs";
    /// Manifest metric: batched/naive throughput ratio.
    SPEEDUP_VS_NAIVE = "speedup_vs_naive";
    /// Timer over the long-run reference simulation in validation.
    VALIDATE_REFERENCE = "validate.reference";
    /// Timer over the validation grid sweep.
    VALIDATE_GRID = "validate.grid";
    /// Manifest metric: worst |simulated − analytic| availability delta.
    VALIDATE_WORST_DELTA = "validate.worst_delta";
    /// Manifest metric: CI half-width of the reference simulation.
    VALIDATE_REFERENCE_HALF_WIDTH = "validate.reference_half_width";
    /// Timer over the read/write-ratio simulation sweep.
    RW_RATIO_SIMULATIONS = "rw_ratio.simulations";
    /// Manifest metric: fraction of sweeps where the majority end attains.
    RW_RATIO_MAJORITY_END_ATTAINS_FRACTION = "rw_ratio.majority_end_attains_fraction";
    /// Manifest metric: argmax read-fraction under strict majority.
    RW_RATIO_STRICT_MAJORITY_ARGMAX = "rw_ratio.strict_majority_argmax";
    /// Manifest metric: max availability delta on the dense topology.
    RW_RATIO_DENSE_TOPOLOGY_MAX_DELTA = "rw_ratio.dense_topology_max_delta";
    /// Manifest metric: read-fraction α of the comparison run.
    ALPHA = "alpha";
    /// Manifest metric: best-exact vote-system load at f=2.
    LOAD_VOTE_BEST_EXACT_F2 = "load.vote-best-exact.f2";
    /// Manifest metric: best-exact vote-system load at f=3.
    LOAD_VOTE_BEST_EXACT_F3 = "load.vote-best-exact.f3";
    /// Timer over intersection certification of compared systems.
    ALGEBRA_CERTIFY = "algebra.certify";
    /// Timer over strategy optimization of compared systems.
    ALGEBRA_OPTIMIZE = "algebra.optimize";
    /// Phase label for the comparison harness's simulation leg.
    ALGEBRA_SIMULATE = "algebra.simulate";
    /// Manifest metric: 1 when a structural system beat every vote system.
    STRUCTURAL_BEATS_VOTES = "structural_beats_votes";

    // Prefixes: each is completed with a run-time label, as
    // "{prefix}.{label}", by `RunManifest::set_labeled_metric` or
    // `Registry::scoped_timer_labeled`.

    /// Timer prefix: one `figures` topology run (label `topology_{chords}`).
    FIGURES = "figures";
    /// Metric prefix: batches one run executed (label: the run, e.g.
    /// `topology_{chords}`).
    BATCHES = "batches";
    /// Metric prefix: 1 if a run's CI reached its target, 0 if the batch
    /// cap stopped it (label: the run).
    CONVERGED = "converged";
    /// Metric prefix: a quorum system's simulated availability (label
    /// `{topology}.{system}`).
    ACC = "acc";
    /// Metric prefix: a quorum system's optimized load (label: system).
    LOAD = "load";
    /// Metric prefix: the load lower bound of a system (label: system).
    LOAD_LOWER = "load-lower";
    /// Metric prefix: a quorum system's resilience (label: system).
    RESILIENCE = "resilience";
    /// Metric prefix: swept cluster availability (label `lat{l}.qr{q}`).
    SWEEP_ACC = "sweep.acc";
    /// Metric prefix: swept cluster goodput (label `lat{l}.qr{q}`).
    SWEEP_GOODPUT = "sweep.goodput";
    /// Metric prefix: availability-optimal q_r per latency (label `lat{l}`).
    SWEEP_BEST_QR = "sweep.best_qr";
    /// Metric prefix: full-BFS kernel replay seconds (label: config).
    REPLAY_FULL_BFS_SECS = "replay.full_bfs_secs";
    /// Metric prefix: bitset-BFS kernel replay seconds (label: config).
    REPLAY_BITSET_BFS_SECS = "replay.bitset_bfs_secs";
    /// Metric prefix: delta-kernel replay seconds (label: config).
    REPLAY_DELTA_SECS = "replay.delta_secs";
    /// Metric prefix: full-BFS over delta replay speedup (label: config).
    REPLAY_SPEEDUP = "replay.speedup";
    /// Metric prefix: engine seconds with the delta kernel (label
    /// `{config}.t{threads}`).
    ENGINE_DELTA_SECS = "engine.delta_secs";
}
