//! Multi-batch cluster runs with batch-means confidence intervals,
//! mirroring the §5.2 methodology of [`quorum_replica::runner`].
//!
//! Batches run on the shared [`quorum_stats::converge()`] orchestrator:
//! every batch constructs a **fresh** [`ClusterEngine`] and derives its
//! RNG streams from `(seed, batch index)` alone, so batches can fan out
//! over worker threads and merge back in index order — thread count
//! never changes any reported number (see
//! `sequential_and_parallel_agree_exactly`).

use crate::config::ClusterConfig;
use crate::engine::ClusterEngine;
use crate::stats::ClusterStats;
use quorum_core::{QuorumSpec, VoteAssignment};
use quorum_graph::Topology;
use quorum_obs::{keys, CiPoint, Registry, RunManifest};
use quorum_replica::Workload;
use quorum_stats::{converge, BatchMeans, ConfidenceInterval};

/// Execution options of a multi-batch cluster run (the simulation
/// parameters live in [`ClusterConfig::params`]).
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Master seed; batch `i` derives its streams from `(seed, i)`.
    pub seed: u64,
    /// Worker threads (1 = sequential). Batches beyond `min_batches`
    /// are added in rounds of `threads` until the CI converges.
    pub threads: usize,
}

impl RunOptions {
    /// Sequential run with the given seed.
    pub fn sequential(seed: u64) -> Self {
        Self { seed, threads: 1 }
    }

    /// Parallel run with the given seed and worker count.
    pub fn threaded(seed: u64, threads: usize) -> Self {
        Self { seed, threads }
    }
}

/// Aggregated result of a converged multi-batch cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRunResults {
    /// Batches executed.
    pub batches: u64,
    /// Batch-means accumulator over per-batch ACC.
    pub(crate) acc: BatchMeans,
    /// Merged raw statistics over all batches.
    pub combined: ClusterStats,
    /// CI-convergence trace (one point per counted batch from the
    /// second on — same granularity as the replica runner's, since both
    /// come from [`quorum_stats::converge()`]).
    pub(crate) ci_trace: Vec<CiPoint>,
}

impl ClusterRunResults {
    /// Point estimate of ACC.
    pub fn availability(&self) -> f64 {
        self.acc.mean()
    }

    /// Confidence interval over batch means (`None` below 2 batches).
    pub fn interval(&self) -> Option<ConfidenceInterval> {
        self.acc.interval()
    }

    /// True iff no committed read was stale in any batch.
    pub fn is_fresh(&self) -> bool {
        self.combined.freshness_violations == 0
    }

    /// Copies batch count, CI trace, ACC metrics, and both latency
    /// histograms into a manifest.
    ///
    /// Counters are deliberately **not** written here: the registry
    /// snapshot is their single owner ([`run_cluster_observed`]
    /// publishes them via [`ClusterStats::observe_into`], and
    /// [`RunManifest::absorb_snapshot`] copies them into the manifest).
    /// Writing them from both paths double-counted every `cluster.*`
    /// counter in emitted manifests.
    pub fn fill_manifest(&self, manifest: &mut RunManifest) {
        manifest.batches = self.batches;
        manifest.ci_trace = self.ci_trace.clone();
        manifest.set_metric(keys::CLUSTER_AVAILABILITY, self.availability());
        manifest.set_metric(
            keys::CLUSTER_READ_AVAILABILITY,
            self.combined.read_availability(),
        );
        manifest.set_metric(
            keys::CLUSTER_WRITE_AVAILABILITY,
            self.combined.write_availability(),
        );
        manifest.set_metric(keys::CLUSTER_GOODPUT, self.combined.goodput());
        manifest.set_metric(
            keys::CLUSTER_READ_LATENCY_MEAN,
            self.combined.read_latency.mean(),
        );
        manifest.set_metric(
            keys::CLUSTER_WRITE_LATENCY_MEAN,
            self.combined.write_latency.mean(),
        );
        if let Some(ci) = self.interval() {
            manifest.set_metric(keys::CLUSTER_CI_HALF_WIDTH, ci.half_width);
        }
        manifest.histograms.push(
            self.combined
                .read_latency
                .to_record(keys::CLUSTER_READ_LATENCY),
        );
        manifest.histograms.push(
            self.combined
                .write_latency
                .to_record(keys::CLUSTER_WRITE_LATENCY),
        );
    }
}

/// Runs cluster batches until the ACC confidence interval converges
/// (between `min_batches` and `max_batches` from the config's params),
/// publishing counters into `registry`.
///
/// Each batch runs a fresh [`ClusterEngine`] on `opts.threads` worker
/// threads; results are merged deterministically by batch index.
pub fn run_cluster_observed(
    topology: &Topology,
    config: &ClusterConfig,
    spec: QuorumSpec,
    votes: VoteAssignment,
    workload: Workload,
    opts: RunOptions,
    registry: &Registry,
) -> ClusterRunResults {
    let _timer = registry.scoped_timer(keys::CLUSTER_RUN);
    let mut combined = ClusterStats::new(&config.latency_bounds);

    let conv = converge(
        &config.params.converge_params(opts.threads),
        |index| {
            let mut engine = ClusterEngine::with_votes(
                topology,
                config.clone(),
                spec,
                votes.clone(),
                workload.clone(),
                opts.seed,
            );
            engine.run_indexed_batch(index)
        },
        ClusterStats::availability,
        |_, stats, elapsed| {
            combined.merge(&stats);
            registry.record_duration(keys::CLUSTER_BATCH, elapsed);
        },
    );

    registry.add(keys::RUN_BATCHES, conv.batches);
    registry.set_gauge(keys::RUN_THREADS, opts.threads.max(1) as f64);
    registry.set_gauge(keys::CLUSTER_THREAD_UTILIZATION, conv.utilization());
    combined.observe_into(registry);
    ClusterRunResults {
        batches: conv.batches,
        acc: conv.acc,
        combined,
        ci_trace: quorum_des::ci_points(&conv.trace),
    }
}

/// [`run_cluster_observed`] without a registry, sequential.
pub fn run_cluster(
    topology: &Topology,
    config: &ClusterConfig,
    spec: QuorumSpec,
    votes: VoteAssignment,
    workload: Workload,
    seed: u64,
) -> ClusterRunResults {
    run_cluster_observed(
        topology,
        config,
        spec,
        votes,
        workload,
        RunOptions::sequential(seed),
        &Registry::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_des::SimParams;

    fn tiny(seed: u64) -> (ClusterConfig, u64) {
        let params = SimParams {
            warmup_accesses: 200,
            batch_accesses: 2_000,
            min_batches: 3,
            max_batches: 5,
            ci_half_width: 0.05,
            ..SimParams::paper()
        };
        (ClusterConfig::ideal(params), seed)
    }

    #[test]
    fn converged_run_reports_interval_and_manifest() {
        let topo = Topology::ring(9);
        let (cfg, seed) = tiny(4);
        let registry = Registry::new();
        let res = run_cluster_observed(
            &topo,
            &cfg,
            QuorumSpec::majority(9),
            VoteAssignment::uniform(9),
            Workload::uniform(9, 0.5),
            RunOptions::sequential(seed),
            &registry,
        );
        assert!(res.batches >= 3);
        assert!(res.interval().is_some());
        assert!(res.availability() > 0.0 && res.availability() < 1.0);
        assert!(res.is_fresh());

        let mut manifest = RunManifest::new("cluster_sim", seed);
        res.fill_manifest(&mut manifest);
        manifest.absorb_snapshot(&registry.snapshot());
        assert_eq!(manifest.histograms.len(), 2);
        assert!(manifest
            .metrics
            .contains_key(keys::CLUSTER_AVAILABILITY.as_str()));
        // The registry snapshot is the single owner of counters, so the
        // manifest carries every total exactly once.
        assert_eq!(
            manifest.counter(keys::CLUSTER_SESSIONS),
            res.combined.sessions_opened
        );
        assert_eq!(
            manifest.counter(keys::CLUSTER_COMMITTED),
            res.combined.committed()
        );
        assert_eq!(
            manifest.counter(keys::CLUSTER_MESSAGES_SENT),
            res.combined.messages_sent
        );
        assert_eq!(
            manifest.counter(keys::CLUSTER_READS_SUBMITTED)
                + manifest.counter(keys::CLUSTER_WRITES_SUBMITTED),
            res.combined.submitted()
        );
        // Round-trips through JSON with the histograms intact.
        let back = RunManifest::parse(&manifest.to_json().to_string_pretty()).unwrap();
        assert_eq!(back.histograms, manifest.histograms);
    }

    #[test]
    fn runner_is_deterministic() {
        let topo = Topology::ring(9);
        let (cfg, _) = tiny(0);
        let run = |seed| {
            let r = run_cluster(
                &topo,
                &cfg,
                QuorumSpec::majority(9),
                VoteAssignment::uniform(9),
                Workload::uniform(9, 0.5),
                seed,
            );
            (r.batches, r.combined.committed(), r.combined.messages_sent)
        };
        assert_eq!(run(8), run(8));
    }

    #[test]
    fn sequential_and_parallel_agree_exactly() {
        // Pin the batch count so the convergence loop cannot add batches
        // in different-sized rounds; per-batch results depend only on
        // (seed, batch index) and merge in index order, so every number
        // must then match bit-for-bit across thread counts.
        let topo = Topology::ring(9);
        let (mut cfg, seed) = tiny(6);
        cfg.params.max_batches = 4;
        cfg.params.min_batches = 4;
        let run = |threads| {
            run_cluster_observed(
                &topo,
                &cfg,
                QuorumSpec::majority(9),
                VoteAssignment::uniform(9),
                Workload::uniform(9, 0.5),
                RunOptions::threaded(seed, threads),
                &Registry::new(),
            )
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.batches, par.batches);
        assert_eq!(seq.availability(), par.availability());
        assert_eq!(seq.combined.committed(), par.combined.committed());
        assert_eq!(seq.combined.messages_sent, par.combined.messages_sent);
        assert_eq!(seq.combined.events_processed, par.combined.events_processed);
        assert_eq!(seq.ci_trace, par.ci_trace);
    }

    #[test]
    fn fresh_engine_batch_matches_reused_engine() {
        // The parallel runner builds a new engine per batch; pin that a
        // fresh engine's indexed batch is bit-identical to re-running
        // the same index on a long-lived engine.
        let topo = Topology::ring(9);
        let (cfg, seed) = tiny(12);
        let spec = QuorumSpec::majority(9);
        let votes = VoteAssignment::uniform(9);
        let wl = Workload::uniform(9, 0.5);
        let mut reused =
            ClusterEngine::with_votes(&topo, cfg.clone(), spec, votes.clone(), wl.clone(), seed);
        for index in [0u64, 1, 3] {
            let a = reused.run_indexed_batch(index);
            let mut fresh = ClusterEngine::with_votes(
                &topo,
                cfg.clone(),
                spec,
                votes.clone(),
                wl.clone(),
                seed,
            );
            let b = fresh.run_indexed_batch(index);
            assert_eq!(a, b, "batch {index}");
        }
    }

    #[test]
    fn ci_trace_has_shared_orchestrator_granularity() {
        // One point per counted batch from the second on, regardless of
        // thread count — the trace comes from quorum_stats::converge.
        let topo = Topology::ring(9);
        let (mut cfg, seed) = tiny(3);
        cfg.params.min_batches = 5;
        cfg.params.max_batches = 5;
        cfg.params.ci_half_width = 1e-9; // unreachable: run every batch
        let res = run_cluster_observed(
            &topo,
            &cfg,
            QuorumSpec::majority(9),
            VoteAssignment::uniform(9),
            Workload::uniform(9, 0.5),
            RunOptions::threaded(seed, 2),
            &Registry::new(),
        );
        assert_eq!(res.batches, 5);
        let batches: Vec<u64> = res.ci_trace.iter().map(|p| p.batches).collect();
        assert_eq!(batches, vec![2, 3, 4, 5]);
    }
}
