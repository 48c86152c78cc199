//! Multi-batch (parallel) runs with batch-means confidence intervals.
//!
//! Reproduces the §5.2 methodology: independent batches are added (between
//! `min_batches` and `max_batches`) until the 95 % confidence interval on
//! ACC has half-width ≤ 0.5 %. Batches are statistically independent by
//! construction (disjoint derived seeds, network reset per batch), so they
//! can run on worker threads; results are merged deterministically by
//! batch index. The round structure, worker threads, stopping rule, and
//! utilization accounting all live in [`quorum_stats::converge()`] — the
//! same orchestrator the message-level cluster runner uses.

use crate::results::{BatchStats, RunResults};
use crate::simulation::{NullObserver, Simulation};
use crate::workload::Workload;
use quorum_core::{ConsistencyProtocol, QuorumConsensus, QuorumSpec, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_obs::{keys, Key, Registry};
use quorum_stats::converge;

/// Configuration of a multi-batch run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Simulation parameters (scale, reliabilities, CI targets).
    pub params: SimParams,
    /// Master seed; batch `i` derives seed `(seed, i)`.
    pub seed: u64,
    /// Worker threads (1 = sequential). Batches beyond `min_batches` are
    /// added in rounds of `threads` until the CI converges.
    pub threads: usize,
}

/// Runs the static quorum consensus protocol until the CI converges.
///
/// Returns per-batch means, confidence intervals, and the merged raw
/// histograms (from which [`crate::curves::CurveSet`] derives the full
/// availability curves).
pub fn run_static(
    topology: &Topology,
    votes: VoteAssignment,
    spec: QuorumSpec,
    workload: Workload,
    cfg: RunConfig,
) -> RunResults {
    run_static_observed(topology, votes, spec, workload, cfg, &Registry::new())
}

/// [`run_static`] with observability: wall-clock phases, per-batch busy
/// time, thread utilization, the CI-convergence trace, and every DES/cache
/// counter land in `registry` (under the [`quorum_obs::keys`] names) in
/// addition to the returned [`RunResults`].
pub fn run_static_observed(
    topology: &Topology,
    votes: VoteAssignment,
    spec: QuorumSpec,
    workload: Workload,
    cfg: RunConfig,
    registry: &Registry,
) -> RunResults {
    let proto_votes = votes.clone();
    run_protocol_observed(
        topology,
        votes,
        workload,
        cfg,
        registry,
        keys::REPLICA_RUN_STATIC,
        move || QuorumConsensus::new(proto_votes.clone(), spec),
    )
}

/// Runs an arbitrary [`ConsistencyProtocol`] until the CI converges —
/// the batch/round/CI machinery of [`run_static_observed`] with the
/// protocol abstracted out, so general quorum systems (coteries,
/// expression-algebra systems) ride the same kernel-read grant path,
/// seed derivation, and thread-invariant merging as vote
/// thresholds. `make_protocol` builds one fresh protocol per batch
/// (batches are independent by construction); `phase` names the
/// whole-run wall-clock timer in `registry`.
pub fn run_protocol_observed<P, F>(
    topology: &Topology,
    votes: VoteAssignment,
    workload: Workload,
    cfg: RunConfig,
    registry: &Registry,
    phase: Key,
    make_protocol: F,
) -> RunResults
where
    P: ConsistencyProtocol,
    F: Fn() -> P + Sync,
{
    let _run_timer = registry.scoped_timer(phase);
    cfg.params.validate();
    let total = votes.total() as usize;

    let mut combined = BatchStats::new(total);

    let conv = converge(
        &cfg.params.converge_params(cfg.threads),
        |index| {
            let mut sim = Simulation::with_votes(
                topology,
                cfg.params,
                votes.clone(),
                workload.clone(),
                cfg.seed,
            );
            let mut proto = make_protocol();
            sim.run_indexed_batch(&mut proto, &mut NullObserver, index)
        },
        BatchStats::availability,
        |_, stats, elapsed| {
            combined.merge(&stats);
            registry.record_duration(keys::REPLICA_BATCH, elapsed);
        },
    );

    registry.add(keys::RUN_BATCHES, conv.batches);
    registry.set_gauge(keys::RUN_THREADS, cfg.threads.max(1) as f64);
    // Busy batch-seconds over per-round available thread-seconds: 1.0
    // means the convergence loop kept every usable worker saturated.
    registry.set_gauge(keys::REPLICA_THREAD_UTILIZATION, conv.utilization());
    combined.observe_into(registry);

    RunResults {
        batches: conv.batches,
        acc: conv.acc,
        combined,
        ci_trace: quorum_des::ci_points(&conv.trace),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seed: u64, threads: usize) -> RunConfig {
        RunConfig {
            params: SimParams {
                warmup_accesses: 300,
                batch_accesses: 3_000,
                min_batches: 3,
                max_batches: 5,
                ci_half_width: 0.05,
                ..SimParams::paper()
            },
            seed,
            threads,
        }
    }

    #[test]
    fn sequential_and_parallel_agree_exactly() {
        // Pin the batch count so the convergence loop cannot add batches
        // in different-sized rounds; per-batch results depend only on
        // (seed, batch index), so the outcomes must then match exactly.
        let topo = Topology::ring_with_chords(13, 2);
        let votes = VoteAssignment::uniform(13);
        let spec = QuorumSpec::majority(13);
        let wl = Workload::uniform(13, 0.5);
        let mut c1 = tiny_cfg(9, 1);
        c1.params.max_batches = c1.params.min_batches;
        let mut c4 = tiny_cfg(9, 4);
        c4.params.max_batches = c4.params.min_batches;
        let seq = run_static(&topo, votes.clone(), spec, wl.clone(), c1);
        let par = run_static(&topo, votes, spec, wl, c4);
        assert_eq!(seq.batches, par.batches);
        assert_eq!(seq.availability(), par.availability());
        assert_eq!(
            seq.combined.reads_granted + seq.combined.writes_granted,
            par.combined.reads_granted + par.combined.writes_granted
        );
    }

    #[test]
    fn converged_run_reports_interval() {
        let topo = Topology::ring(9);
        let res = run_static(
            &topo,
            VoteAssignment::uniform(9),
            QuorumSpec::majority(9),
            Workload::uniform(9, 0.5),
            tiny_cfg(1, 2),
        );
        assert!(res.batches >= 3);
        let ci = res.interval().expect("≥ 2 batches");
        assert!(ci.half_width >= 0.0);
        assert!(res.availability() > 0.0 && res.availability() < 1.0);
        assert!(res.is_one_copy_serializable());
    }

    #[test]
    fn observed_run_registry_matches_results() {
        let topo = Topology::ring(9);
        let registry = Registry::new();
        let res = run_static_observed(
            &topo,
            VoteAssignment::uniform(9),
            QuorumSpec::majority(9),
            Workload::uniform(9, 0.5),
            tiny_cfg(4, 2),
            &registry,
        );
        let snap = registry.snapshot();
        // Cache counters in the registry equal the merged batch totals,
        // which equal the cache's own accounting.
        assert_eq!(snap.counter(keys::CACHE_HITS), res.combined.cache_hits);
        assert_eq!(
            snap.counter(keys::CACHE_RECOMPUTATIONS),
            res.combined.cache_recomputations
        );
        assert_eq!(
            snap.counter(keys::DES_EVENTS),
            res.combined.events_processed
        );
        assert_eq!(snap.counter(keys::RUN_BATCHES), res.batches);
        // One timer activation per batch, plus the whole-run phase timer.
        assert_eq!(snap.timers[keys::REPLICA_BATCH.as_str()].1, res.batches);
        assert_eq!(snap.timers[keys::REPLICA_RUN_STATIC.as_str()].1, 1);
        assert!(snap.timer_secs(keys::REPLICA_RUN_STATIC) > 0.0);
        // The convergence trace ends at the final batch count.
        assert_eq!(res.ci_trace.last().unwrap().batches, res.batches);
        assert!(res
            .ci_trace
            .iter()
            .all(|p| p.half_width >= 0.0 && p.batches >= 2));
        // Per-round thread-seconds accounting keeps utilization a true
        // fraction; ε absorbs clock-read noise only.
        let util = snap.gauges[keys::REPLICA_THREAD_UTILIZATION.as_str()];
        assert!(util > 0.0 && util <= 1.0 + 0.005, "utilization {util}");
        assert!((snap.gauges[keys::RUN_THREADS.as_str()] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stops_at_max_batches_when_noisy() {
        let topo = Topology::ring(9);
        let mut cfg = tiny_cfg(2, 2);
        cfg.params.ci_half_width = 1e-9; // unreachable target
        let res = run_static(
            &topo,
            VoteAssignment::uniform(9),
            QuorumSpec::majority(9),
            Workload::uniform(9, 0.5),
            cfg,
        );
        assert_eq!(res.batches, cfg.params.max_batches);
    }

    #[test]
    fn availability_is_mixture_of_read_write() {
        let topo = Topology::ring_with_chords(13, 4);
        let res = run_static(
            &topo,
            VoteAssignment::uniform(13),
            QuorumSpec::from_read_quorum(3, 13).unwrap(),
            Workload::uniform(13, 0.75),
            tiny_cfg(5, 2),
        );
        let c = &res.combined;
        let mix = c.reads_submitted as f64 / c.submitted() as f64 * c.read_availability()
            + c.writes_submitted as f64 / c.submitted() as f64 * c.write_availability();
        assert!((c.availability() - mix).abs() < 1e-12);
    }
}
