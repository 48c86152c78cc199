//! Property-based safety for the message-level cluster: the version
//! freshness invariant (no committed read returns a version older than
//! the newest write committed before the read was submitted) must hold
//! under arbitrary latency, loss, failures, and in-flight quorum
//! reassignments — and the `commit_on_grant` ablation must demonstrably
//! break it, proving the checker has teeth.

use proptest::prelude::*;
use quorum_cluster::{
    jointly_safe, run_cluster_observed, ClusterConfig, ClusterEngine, ClusterStats, InstallStep,
    LatencyDist, NetConfig, RunOptions,
};
use quorum_core::{QuorumSpec, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_obs::Registry;
use quorum_replica::Workload;

fn quick_params() -> SimParams {
    SimParams {
        warmup_accesses: 200,
        batch_accesses: 2_500,
        ..SimParams::paper()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The safe two-phase protocol keeps every committed read fresh for
    /// arbitrary topologies, seeds, workload mixes, loss rates, and
    /// latency scales — including with a jointly-safe quorum
    /// reassignment propagating mid-batch.
    #[test]
    fn two_phase_protocol_keeps_reads_fresh(
        topo_kind in 0usize..3,
        seed in 0u64..1_000,
        alpha in 0.0f64..1.0,
        loss in 0.0f64..0.35,
        lat_mean in 0.005f64..0.08,
    ) {
        let topo = match topo_kind {
            0 => Topology::ring(9),
            1 => Topology::fully_connected(9),
            _ => Topology::ring_with_chords(9, 2),
        };
        let n = topo.num_sites();
        let total = n as u64;
        let initial = QuorumSpec::majority(total);
        let installed = QuorumSpec::new(5, 6, total).unwrap();
        prop_assert!(jointly_safe(initial, installed));

        let mut cfg = ClusterConfig::new(quick_params());
        cfg.net = NetConfig {
            latency: LatencyDist::Exponential { mean: lat_mean },
            loss,
        };
        cfg.installs = vec![InstallStep { at: 40.0, origin: 2, spec: installed }];
        let mut engine =
            ClusterEngine::new(&topo, cfg, initial, Workload::uniform(n, alpha), seed);
        let stats = engine.run_batch();

        prop_assert_eq!(
            stats.freshness_violations, 0,
            "stale committed read on {} (seed {}, loss {:.2}, latency {:.3})",
            topo.name(), seed, loss, lat_mean
        );
        // The run has to exercise the invariant, not vacuously pass.
        prop_assert!(stats.committed() > 0, "nothing committed on {}", topo.name());
    }

    /// Installs landing *inside* retry windows — the schedule that used
    /// to mix votes across epochs — keep every committed read fresh,
    /// and the merged counters are identical whether the batches run on
    /// one thread or two. The second half pins that the epoch-reset
    /// bookkeeping (`cross_epoch_resets`, `stale_grants_ignored`) lives
    /// in the deterministic per-batch world, not in scheduling noise.
    #[test]
    fn installs_inside_retries_stay_fresh_and_thread_deterministic(
        seed in 0u64..500,
        loss in 0.15f64..0.4,
        timeout in 0.12f64..0.3,
    ) {
        let topo = Topology::fully_connected(9);
        // Short timeout against this latency forces real retry rounds;
        // two staggered installs land inside those windows.
        let mut params = quick_params();
        params.max_batches = params.min_batches; // fixed batch count
        let mut cfg = ClusterConfig::new(params);
        cfg.net = NetConfig {
            latency: LatencyDist::Exponential { mean: 0.06 },
            loss,
        };
        cfg.session_timeout = timeout;
        cfg.max_retries = 3;
        cfg.installs = vec![
            InstallStep { at: 25.0, origin: 2, spec: QuorumSpec::new(5, 6, 9).unwrap() },
            InstallStep { at: 55.0, origin: 6, spec: QuorumSpec::majority(9) },
        ];

        let run = |threads: usize| {
            run_cluster_observed(
                &topo,
                &cfg,
                QuorumSpec::majority(9),
                VoteAssignment::uniform(9),
                Workload::uniform(9, 0.6),
                RunOptions::threaded(seed, threads),
                &Registry::new(),
            )
        };
        let one = run(1);
        let two = run(2);

        prop_assert_eq!(
            one.combined.freshness_violations, 0,
            "stale committed read with installs inside retries (seed {})",
            seed
        );
        // The schedule must actually exercise the retry machinery.
        prop_assert!(one.combined.retries > 0, "no retries at loss {loss:.2}");
        prop_assert!(one.combined.committed() > 0, "nothing committed");

        let fingerprint = |s: &ClusterStats| (
            s.reads_submitted, s.writes_submitted,
            s.reads_committed, s.writes_committed,
            s.retries, s.cross_epoch_resets, s.stale_grants_ignored,
            s.messages_sent, s.messages_delivered, s.messages_dropped,
            s.freshness_violations,
        );
        prop_assert_eq!(
            fingerprint(&one.combined),
            fingerprint(&two.combined),
            "thread count changed merged counters (seed {})",
            seed
        );
        prop_assert_eq!(one.batches, two.batches);
    }

    /// Negative direction: committing writes on the grant round (before
    /// a write quorum holds the new version) lets lossy networks strand
    /// stale replicas, and the checker must flag the resulting reads.
    /// A stale read needs a read to land in the commit-propagation
    /// window, so a single short batch can get lucky — accumulate
    /// batches until the violation shows (bounded at four).
    #[test]
    fn commit_on_grant_ablation_is_detected(seed in 0u64..200) {
        let topo = Topology::fully_connected(9);
        let mut cfg = ClusterConfig::new(quick_params());
        cfg.net = NetConfig {
            latency: LatencyDist::Constant(0.12),
            loss: 0.4,
        };
        cfg.commit_on_grant = true;
        let mut engine = ClusterEngine::new(
            &topo,
            cfg,
            QuorumSpec::majority(9),
            Workload::uniform(9, 0.5),
            seed,
        );
        let mut violations = 0;
        for batch in 0..4 {
            violations += engine.run_indexed_batch(batch).freshness_violations;
            if violations > 0 {
                break;
            }
        }
        prop_assert!(
            violations > 0,
            "unsafe early commit under 40% loss must produce a stale read (seed {})",
            seed
        );
    }
}

/// Unsafe install scripts are rejected up front: a pair of specs whose
/// read/write quorums don't intersect across the transition would let
/// old-assignment readers miss new-assignment writes.
#[test]
#[should_panic(expected = "not jointly safe")]
fn unsafe_install_script_is_rejected() {
    let topo = Topology::ring(9);
    let mut cfg = ClusterConfig::new(quick_params());
    // (2, 8) vs majority (5, 5): 2 + 5 = 7 ≤ 9 — a (2)-read under the
    // new spec can miss a (5)-write under the old one.
    cfg.installs = vec![InstallStep {
        at: 10.0,
        origin: 0,
        spec: QuorumSpec::new(2, 8, 9).unwrap(),
    }];
    let _ = ClusterEngine::new(
        &topo,
        cfg,
        QuorumSpec::majority(9),
        Workload::uniform(9, 0.5),
        1,
    );
}
