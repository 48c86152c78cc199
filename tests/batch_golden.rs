//! Golden pin of the §5.2 simulator's batch statistics.
//!
//! Every configuration below runs `Simulation::run_batch` at a fixed seed
//! and compares the complete `BatchStats` against committed values: the
//! headline counters field by field, and everything else (all vote
//! histograms, the time-weighted mass) through a 64-bit FNV-1a hash of
//! the `{:?}` rendering. A change to the access path — how member lists
//! are built, how the 1SR checker tracks current copies — must leave
//! every one of these values as it is.
//!
//! The configurations cover the shapes that stress different parts of
//! the access path: many small components (a plain ring), one large
//! component (ring + 16 chords, fully connected), unequal vote weights
//! with ties (votes cycling 1, 2, 3), reassignments and their copy
//! refreshes inside one view (adaptive QR), a membership-driven protocol
//! (dynamic voting), and the SURV probe and time-weighted accounting.

#![forbid(unsafe_code)]

use quorum_core::{
    Access, ConsistencyProtocol, Decision, DynamicVoting, QuorumConsensus, QuorumSpec,
    VoteAssignment,
};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_replica::{AdaptiveConfig, AdaptiveQr, BatchStats, NullObserver, Simulation, Workload};

fn params() -> SimParams {
    SimParams {
        warmup_accesses: 1_000,
        batch_accesses: 6_000,
        ..SimParams::paper()
    }
}

/// 64-bit FNV-1a: a hash whose value is fixed by its definition, unlike
/// `std`'s `DefaultHasher`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The pinned view of one batch.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    reads_submitted: u64,
    reads_granted: u64,
    writes_submitted: u64,
    writes_granted: u64,
    stale_reads: u64,
    write_conflicts: u64,
    surv_possible: u64,
    cache_hits: u64,
    cache_recomputations: u64,
    events_processed: u64,
    debug_fnv: u64,
}

fn pin(s: &BatchStats) -> Pin {
    Pin {
        reads_submitted: s.reads_submitted,
        reads_granted: s.reads_granted,
        writes_submitted: s.writes_submitted,
        writes_granted: s.writes_granted,
        stale_reads: s.stale_reads,
        write_conflicts: s.write_conflicts,
        surv_possible: s.surv_possible,
        cache_hits: s.cache_hits,
        cache_recomputations: s.cache_recomputations,
        events_processed: s.events_processed,
        debug_fnv: fnv1a(&format!("{s:?}")),
    }
}

/// Runs two consecutive batches (batch indices 0 and 1) of `sim` under
/// `protocol`, so protocol state carried across batches is covered too.
fn two_batches<P: ConsistencyProtocol>(sim: &mut Simulation<'_>, protocol: &mut P) -> [Pin; 2] {
    let a = sim.run_batch(protocol, &mut NullObserver);
    let b = sim.run_batch(protocol, &mut NullObserver);
    [pin(&a), pin(&b)]
}

fn quorum_consensus(votes: &VoteAssignment, q_r: u64) -> QuorumConsensus {
    let spec = QuorumSpec::from_read_quorum(q_r, votes.total()).expect("valid q_r");
    QuorumConsensus::new(votes.clone(), spec)
}

#[test]
fn ring_without_chords_with_surv_probe() {
    // Many small components: the probe visits every one of them.
    let topo = Topology::ring_with_chords(101, 0);
    let mut sim = Simulation::new(&topo, params(), Workload::uniform(101, 0.5), 90_158)
        .probe_survivability(true);
    let mut proto = quorum_consensus(sim.votes(), 20);
    let got = two_batches(&mut sim, &mut proto);
    assert_eq!(
        got,
        [
            Pin {
                reads_submitted: 3041,
                reads_granted: 1354,
                writes_submitted: 2959,
                writes_granted: 0,
                stale_reads: 0,
                write_conflicts: 0,
                surv_possible: 2634,
                cache_hits: 6807,
                cache_recomputations: 193,
                events_processed: 7202,
                debug_fnv: 9907643365518967260,
            },
            Pin {
                reads_submitted: 2999,
                reads_granted: 1580,
                writes_submitted: 3001,
                writes_granted: 39,
                stale_reads: 0,
                write_conflicts: 0,
                surv_possible: 2954,
                cache_hits: 6805,
                cache_recomputations: 195,
                events_processed: 7210,
                debug_fnv: 12742998972631601462,
            },
        ]
    );
}

#[test]
fn ring_with_sixteen_chords_time_weighted() {
    // One large component most of the time.
    let topo = Topology::ring_with_chords(101, 16);
    let mut sim =
        Simulation::new(&topo, params(), Workload::uniform(101, 0.25), 7).time_weighted(true);
    let mut proto = quorum_consensus(sim.votes(), 30);
    let got = two_batches(&mut sim, &mut proto);
    assert_eq!(
        got,
        [
            Pin {
                reads_submitted: 1453,
                reads_granted: 1256,
                writes_submitted: 4547,
                writes_granted: 2955,
                stale_reads: 0,
                write_conflicts: 0,
                surv_possible: 0,
                cache_hits: 13048,
                cache_recomputations: 157,
                events_processed: 7231,
                debug_fnv: 3431229283434376219,
            },
            Pin {
                reads_submitted: 1505,
                reads_granted: 1394,
                writes_submitted: 4495,
                writes_granted: 3820,
                stale_reads: 0,
                write_conflicts: 0,
                surv_possible: 0,
                cache_hits: 13060,
                cache_recomputations: 131,
                events_processed: 7227,
                debug_fnv: 15179759668226430416,
            },
        ]
    );
}

#[test]
fn fully_connected_with_surv_probe() {
    let topo = Topology::fully_connected(31);
    let mut sim =
        Simulation::new(&topo, params(), Workload::uniform(31, 0.75), 11).probe_survivability(true);
    let mut proto = quorum_consensus(sim.votes(), 9);
    let got = two_batches(&mut sim, &mut proto);
    assert_eq!(
        got,
        [
            Pin {
                reads_submitted: 4539,
                reads_granted: 4433,
                writes_submitted: 1461,
                writes_granted: 1425,
                stale_reads: 0,
                write_conflicts: 0,
                surv_possible: 6000,
                cache_hits: 6908,
                cache_recomputations: 92,
                events_processed: 8661,
                debug_fnv: 5118382820401374156,
            },
            Pin {
                reads_submitted: 4506,
                reads_granted: 4231,
                writes_submitted: 1494,
                writes_granted: 1406,
                stale_reads: 0,
                write_conflicts: 0,
                surv_possible: 6000,
                cache_hits: 6900,
                cache_recomputations: 100,
                events_processed: 8624,
                debug_fnv: 516596242746764383,
            },
        ]
    );
}

#[test]
fn unequal_votes_with_ties() {
    // Votes cycle 1, 2, 3: the cheapest quorum takes the 3-vote members
    // first, and ties among equal weights must not change the count.
    let topo = Topology::ring_with_chords(101, 4);
    let votes = VoteAssignment::weighted((0..101).map(|i| i % 3 + 1).collect());
    let mut proto = quorum_consensus(&votes, 60);
    let mut sim = Simulation::with_votes(&topo, params(), votes, Workload::uniform(101, 0.5), 3)
        .probe_survivability(true)
        .time_weighted(true);
    let got = two_batches(&mut sim, &mut proto);
    assert_eq!(
        got,
        [
            Pin {
                reads_submitted: 3032,
                reads_granted: 2387,
                writes_submitted: 2968,
                writes_granted: 1443,
                stale_reads: 0,
                write_conflicts: 0,
                surv_possible: 4688,
                cache_hits: 13019,
                cache_recomputations: 158,
                events_processed: 7195,
                debug_fnv: 17747804467327805681,
            },
            Pin {
                reads_submitted: 2985,
                reads_granted: 2216,
                writes_submitted: 3015,
                writes_granted: 1150,
                stale_reads: 0,
                write_conflicts: 0,
                surv_possible: 4317,
                cache_hits: 13001,
                cache_recomputations: 171,
                events_processed: 7195,
                debug_fnv: 5969962809689003157,
            },
        ]
    );
}

#[test]
fn adaptive_qr_reassigns_and_refreshes() {
    // Reassignments installed inside decide() refresh copies and change
    // the effective spec within one component view.
    let topo = Topology::ring_with_chords(101, 4);
    let cfg = AdaptiveConfig {
        reassign_interval: 250,
        min_observations: 200.0,
        ..AdaptiveConfig::default()
    };
    let mut proto = AdaptiveQr::new(VoteAssignment::uniform(101), QuorumSpec::majority(101), cfg);
    let mut sim =
        Simulation::new(&topo, params(), Workload::uniform(101, 0.8), 5).probe_survivability(true);
    let got = two_batches(&mut sim, &mut proto);
    assert!(proto.successes() > 0, "the pin must cover reassignments");
    assert_eq!(
        got,
        [
            Pin {
                reads_submitted: 4844,
                reads_granted: 3914,
                writes_submitted: 1156,
                writes_granted: 514,
                stale_reads: 0,
                write_conflicts: 0,
                surv_possible: 5295,
                cache_hits: 6833,
                cache_recomputations: 167,
                events_processed: 7202,
                debug_fnv: 11399899809433302106,
            },
            Pin {
                reads_submitted: 4771,
                reads_granted: 4562,
                writes_submitted: 1229,
                writes_granted: 38,
                stale_reads: 0,
                write_conflicts: 0,
                surv_possible: 4809,
                cache_hits: 6834,
                cache_recomputations: 166,
                events_processed: 7195,
                debug_fnv: 11232005429918253462,
            },
        ]
    );
}

#[test]
fn dynamic_voting_on_ring_with_chords() {
    let topo = Topology::ring_with_chords(101, 2);
    let mut proto = DynamicVoting::new(101);
    let mut sim =
        Simulation::new(&topo, params(), Workload::uniform(101, 0.4), 13).probe_survivability(true);
    let got = two_batches(&mut sim, &mut proto);
    assert_eq!(
        got,
        [
            Pin {
                reads_submitted: 2411,
                reads_granted: 1235,
                writes_submitted: 3589,
                writes_granted: 1828,
                stale_reads: 0,
                write_conflicts: 0,
                surv_possible: 6000,
                cache_hits: 6843,
                cache_recomputations: 157,
                events_processed: 7172,
                debug_fnv: 4878940768059056496,
            },
            Pin {
                reads_submitted: 2386,
                reads_granted: 1502,
                writes_submitted: 3614,
                writes_granted: 2337,
                stale_reads: 0,
                write_conflicts: 0,
                surv_possible: 5944,
                cache_hits: 6862,
                cache_recomputations: 138,
                events_processed: 7161,
                debug_fnv: 11155657783521000671,
            },
        ]
    );
}

/// Grants reads with 1 vote and writes with 40 of 101: neither quorum
/// condition holds, so the checker's stale-read and lost-update paths
/// both fire and are pinned too.
struct UnsafeQuorums;

impl ConsistencyProtocol for UnsafeQuorums {
    fn decide(&mut self, kind: Access, members: &[usize], votes: u64) -> Decision {
        if self.can_grant(kind, members, votes) {
            Decision::Granted
        } else {
            Decision::Denied
        }
    }

    fn can_grant(&self, kind: Access, _members: &[usize], votes: u64) -> bool {
        match kind {
            Access::Read => votes >= 1,
            Access::Write => votes >= 40,
        }
    }

    fn total_votes(&self) -> u64 {
        101
    }
}

#[test]
fn unsafe_quorums_on_a_ring() {
    let topo = Topology::ring_with_chords(101, 0);
    let mut sim = Simulation::new(&topo, params(), Workload::uniform(101, 0.5), 17);
    let got = two_batches(&mut sim, &mut UnsafeQuorums);
    assert_eq!(
        got,
        [
            Pin {
                reads_submitted: 3007,
                reads_granted: 2875,
                writes_submitted: 2993,
                writes_granted: 122,
                stale_reads: 1316,
                write_conflicts: 0,
                surv_possible: 0,
                cache_hits: 6813,
                cache_recomputations: 187,
                events_processed: 7198,
                debug_fnv: 11230861946477607444,
            },
            Pin {
                reads_submitted: 2988,
                reads_granted: 2889,
                writes_submitted: 3012,
                writes_granted: 563,
                stale_reads: 1343,
                write_conflicts: 83,
                surv_possible: 0,
                cache_hits: 6816,
                cache_recomputations: 184,
                events_processed: 7198,
                debug_fnv: 9536236924334899332,
            },
        ]
    );
}
