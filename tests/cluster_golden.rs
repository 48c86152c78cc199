//! Golden pin of the lossy cluster engine's complete `ClusterStats`.
//!
//! `cluster_degeneracy` pins the ideal network only, and `cluster_safety`
//! compares runs with each other, never with fixed values. These two
//! runs exercise the lossy paths and compare every counter field, both
//! latency histograms' bucket counts, and each histogram's `sum` (and the
//! measured duration) bit for bit against committed values:
//!
//! * the ring-9 lossy configuration of the `cluster_ring9_lossy`
//!   benchmark workload at seed 11 (two quick-scale batches, exponential
//!   latency, 2 % loss, three retries);
//! * a fully-connected-10 batch at 35 % loss with a mid-run install,
//!   which drives timeouts, cross-epoch resets, ignored stale grants and
//!   install adoptions.
//!
//! A change to how the engine or the protocol core sends, tallies or
//! draws from the network RNG moves at least one of these values.

use quorum_cluster::{
    run_cluster, ClusterConfig, ClusterEngine, ClusterStats, InstallStep, LatencyDist,
    LatencyHistogram, NetConfig,
};
use quorum_core::{QuorumSpec, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_replica::Workload;

/// One histogram's pinned content: bucket counts and the bits of `sum`.
#[derive(Debug, PartialEq, Eq)]
struct HistPin {
    counts: Vec<u64>,
    sum_bits: u64,
}

fn hist(h: &LatencyHistogram) -> HistPin {
    HistPin {
        counts: h.counts().to_vec(),
        sum_bits: h.sum().to_bits(),
    }
}

/// Every field of `ClusterStats`, floats as their bits. The destructuring
/// names each field, so a new field fails to compile here until it is
/// pinned too.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    reads_submitted: u64,
    writes_submitted: u64,
    reads_committed: u64,
    writes_committed: u64,
    reads_timed_out: u64,
    writes_timed_out: u64,
    reads_unavailable: u64,
    writes_unavailable: u64,
    messages_sent: u64,
    messages_delivered: u64,
    messages_dropped: u64,
    retries: u64,
    timers_cancelled: u64,
    sessions_opened: u64,
    installs_applied: u64,
    cross_epoch_resets: u64,
    stale_grants_ignored: u64,
    freshness_violations: u64,
    site_transitions: u64,
    link_transitions: u64,
    events_processed: u64,
    delta_merges: u64,
    delta_rescans: u64,
    delta_noops: u64,
    full_recomputes: u64,
    read_latency: HistPin,
    write_latency: HistPin,
    measured_duration_bits: u64,
    outcomes: usize,
}

fn pin(s: &ClusterStats) -> Pin {
    let ClusterStats {
        reads_submitted,
        writes_submitted,
        reads_committed,
        writes_committed,
        reads_timed_out,
        writes_timed_out,
        reads_unavailable,
        writes_unavailable,
        messages_sent,
        messages_delivered,
        messages_dropped,
        retries,
        timers_cancelled,
        sessions_opened,
        installs_applied,
        cross_epoch_resets,
        stale_grants_ignored,
        freshness_violations,
        site_transitions,
        link_transitions,
        events_processed,
        delta_merges,
        delta_rescans,
        delta_noops,
        full_recomputes,
        read_latency,
        write_latency,
        measured_duration,
        outcomes,
    } = s;
    Pin {
        reads_submitted: *reads_submitted,
        writes_submitted: *writes_submitted,
        reads_committed: *reads_committed,
        writes_committed: *writes_committed,
        reads_timed_out: *reads_timed_out,
        writes_timed_out: *writes_timed_out,
        reads_unavailable: *reads_unavailable,
        writes_unavailable: *writes_unavailable,
        messages_sent: *messages_sent,
        messages_delivered: *messages_delivered,
        messages_dropped: *messages_dropped,
        retries: *retries,
        timers_cancelled: *timers_cancelled,
        sessions_opened: *sessions_opened,
        installs_applied: *installs_applied,
        cross_epoch_resets: *cross_epoch_resets,
        stale_grants_ignored: *stale_grants_ignored,
        freshness_violations: *freshness_violations,
        site_transitions: *site_transitions,
        link_transitions: *link_transitions,
        events_processed: *events_processed,
        delta_merges: *delta_merges,
        delta_rescans: *delta_rescans,
        delta_noops: *delta_noops,
        full_recomputes: *full_recomputes,
        read_latency: hist(read_latency),
        write_latency: hist(write_latency),
        measured_duration_bits: measured_duration.to_bits(),
        outcomes: outcomes.len(),
    }
}

/// The `cluster_ring9_lossy` benchmark configuration: ring-9, uniform
/// votes, q = (4, 6), α = 0.7, exponential latency of mean 0.02, loss
/// 0.02, timeout 0.25 with three retries, two quick-scale batches.
#[test]
fn ring9_lossy_seed11_stats_are_pinned() {
    let topology = Topology::ring(9);
    let votes = VoteAssignment::uniform(9);
    let spec = QuorumSpec::from_read_quorum(4, votes.total()).expect("q = (4, 6) of 9 votes");
    let mut config = ClusterConfig::new(SimParams {
        min_batches: 2,
        max_batches: 2,
        ..SimParams::quick()
    });
    config.net = NetConfig {
        latency: LatencyDist::Exponential { mean: 0.02 },
        loss: 0.02,
    };
    config.session_timeout = 0.25;
    config.max_retries = 3;
    let res = run_cluster(
        &topology,
        &config,
        spec,
        votes,
        Workload::uniform(9, 0.7),
        11,
    );
    assert_eq!(res.batches, 2);
    assert_eq!(pin(&res.combined), ring9_seed11());
}

/// Fully-connected-10 under 35 % loss with an install at t = 30: one
/// batch of 300 warm-up and 3,000 measured accesses at seed 43, with
/// exponential latency of mean 0.08 and a 0.2 timeout.
#[test]
fn fc10_heavy_loss_with_install_stats_are_pinned() {
    let topology = Topology::fully_connected(10);
    let mut config = ClusterConfig::new(SimParams {
        warmup_accesses: 300,
        batch_accesses: 3_000,
        ..SimParams::paper()
    });
    config.net = NetConfig {
        latency: LatencyDist::Exponential { mean: 0.08 },
        loss: 0.35,
    };
    config.session_timeout = 0.2;
    config.installs = vec![InstallStep {
        at: 30.0,
        origin: 3,
        spec: QuorumSpec::new(5, 7, 10).expect("q = (5, 7) of 10 votes"),
    }];
    let mut engine = ClusterEngine::new(
        &topology,
        config,
        QuorumSpec::majority(10),
        Workload::uniform(10, 0.5),
        43,
    );
    let stats = engine.run_batch();
    let p = pin(&stats);
    // The run must reach the paths it is here to pin.
    assert!(p.stale_grants_ignored > 0 && p.cross_epoch_resets > 0);
    assert!(p.installs_applied > 0 && p.reads_timed_out + p.writes_timed_out > 0);
    assert_eq!(p, fc10_install_seed43());
}

fn ring9_seed11() -> Pin {
    Pin {
        reads_submitted: 42_134,
        writes_submitted: 17_866,
        reads_committed: 39_889,
        writes_committed: 16_387,
        reads_timed_out: 640,
        writes_timed_out: 794,
        reads_unavailable: 1_605,
        writes_unavailable: 685,
        messages_sent: 1_374_574,
        messages_delivered: 1_254_486,
        messages_dropped: 120_081,
        retries: 7_989,
        timers_cancelled: 65_820,
        sessions_opened: 67_397,
        installs_applied: 0,
        cross_epoch_resets: 0,
        stale_grants_ignored: 0,
        freshness_violations: 0,
        site_transitions: 1_022,
        link_transitions: 1_092,
        events_processed: 1_428_484,
        delta_merges: 750,
        delta_rescans: 742,
        delta_noops: 622,
        full_recomputes: 0,
        read_latency: HistPin {
            counts: vec![876, 10_556, 25_949, 1_668, 111, 215, 213, 301, 0, 0],
            sum_bits: 4_655_756_461_197_269_526,
        },
        write_latency: HistPin {
            counts: vec![0, 0, 380, 11_551, 3_647, 319, 215, 275, 0, 0],
            sum_bits: 4_656_886_008_095_818_450,
        },
        measured_duration_bits: 4_664_028_525_426_768_158,
        outcomes: 0,
    }
}

fn fc10_install_seed43() -> Pin {
    Pin {
        reads_submitted: 1_530,
        writes_submitted: 1_470,
        reads_committed: 1_485,
        writes_committed: 1_039,
        reads_timed_out: 6,
        writes_timed_out: 399,
        reads_unavailable: 39,
        writes_unavailable: 32,
        messages_sent: 123_015,
        messages_delivered: 78_225,
        messages_dropped: 44_789,
        retries: 5_307,
        timers_cancelled: 2_808,
        sessions_opened: 3_227,
        installs_applied: 10,
        cross_epoch_resets: 7,
        stale_grants_ignored: 5,
        freshness_violations: 0,
        site_transitions: 54,
        link_transitions: 216,
        events_processed: 89_057,
        delta_merges: 27,
        delta_rescans: 27,
        delta_noops: 216,
        full_recomputes: 0,
        read_latency: HistPin {
            counts: vec![0, 0, 0, 45, 343, 987, 106, 4, 0, 0],
            sum_bits: 4_646_072_869_979_361_299,
        },
        write_latency: HistPin {
            counts: vec![0, 0, 0, 0, 0, 28, 473, 532, 6, 0],
            sum_bits: 4_652_957_787_267_616_867,
        },
        measured_duration_bits: 4_643_975_450_694_714_005,
        outcomes: 0,
    }
}
