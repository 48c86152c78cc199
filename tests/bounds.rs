//! Universal availability bounds (§3 and the companion result [15]):
//! for ANY consistency-control protocol,
//!
//! * ACC is upper-bounded by the submitting site's reliability (the site
//!   must be up to submit) — replication cannot beat `p` on ACC;
//! * SURV is lower-bounded by single-site reliability in the sense that a
//!   single unreplicated copy achieves `p`, and upper-bounded by 1.
//!
//! Verified here for every protocol in the workspace on the same topology
//! and seed.

use quorum_algebra::{AlgebraProtocol, QuorumSystem};
use quorum_core::{
    ConsistencyProtocol, DynamicVoting, QrProtocol, QuorumConsensus, QuorumSpec, VoteAssignment,
};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_replica::{NullObserver, Simulation, Workload};

fn params() -> SimParams {
    SimParams {
        warmup_accesses: 1_000,
        batch_accesses: 25_000,
        ..SimParams::paper()
    }
}

fn run(proto: &mut dyn DynProtocol, topo: &Topology, seed: u64) -> (f64, f64) {
    let n = topo.num_sites();
    let mut sim =
        Simulation::new(topo, params(), Workload::uniform(n, 0.5), seed).probe_survivability(true);
    let stats = proto.run(&mut sim);
    (stats.availability(), stats.surv_availability())
}

/// Object-safe adapter so one loop can drive differently-typed protocols.
trait DynProtocol {
    fn run(&mut self, sim: &mut Simulation) -> quorum_replica::BatchStats;
}

impl<P: ConsistencyProtocol> DynProtocol for P {
    fn run(&mut self, sim: &mut Simulation) -> quorum_replica::BatchStats {
        sim.run_batch(self, &mut NullObserver)
    }
}

#[test]
fn no_protocol_beats_site_reliability_on_acc() {
    let topo = Topology::ring_with_chords(13, 4);
    let p = 0.96;
    let tolerance = 0.01; // CI noise at this scale

    let mut protocols: Vec<(&str, Box<dyn DynProtocol>)> = vec![
        ("majority", Box::new(QuorumConsensus::majority(13))),
        ("rowa", Box::new(QuorumConsensus::read_one_write_all(13))),
        (
            "optimal-ish",
            Box::new(QuorumConsensus::new(
                VoteAssignment::uniform(13),
                QuorumSpec::from_read_quorum(3, 13).unwrap(),
            )),
        ),
        (
            "qr",
            Box::new(QrProtocol::new(
                VoteAssignment::uniform(13),
                QuorumSpec::majority(13),
            )),
        ),
        ("dynamic-voting", Box::new(DynamicVoting::new(13))),
        (
            "coterie",
            Box::new(AlgebraProtocol::new(QuorumSystem::from_spec(
                "coterie",
                &VoteAssignment::uniform(13),
                QuorumSpec::majority(13),
            ))),
        ),
        (
            "primary-copy",
            Box::new(QuorumConsensus::primary_copy(13, 0)),
        ),
    ];

    for (name, proto) in protocols.iter_mut() {
        let topo = if *name == "primary-copy" {
            // Primary copy needs the matching vote assignment; run it on
            // its own sim below instead.
            continue;
        } else {
            &topo
        };
        let (acc, surv) = run(proto.as_mut(), topo, 313);
        assert!(
            acc <= p + tolerance,
            "{name}: ACC {acc} exceeds the site-reliability bound {p}"
        );
        assert!(surv >= acc - 1e-3, "{name}: SURV {surv} below ACC {acc}");
        assert!(surv <= 1.0 + 1e-12);
    }
}

#[test]
fn primary_copy_bound() {
    // Primary copy: ACC ≤ p(submitter) · P(reach primary) ≤ p.
    let topo = Topology::ring_with_chords(13, 4);
    let n = topo.num_sites();
    let mut sim = Simulation::with_votes(
        &topo,
        params(),
        VoteAssignment::primary_copy(n, 0),
        Workload::uniform(n, 0.5),
        313,
    );
    let mut proto = QuorumConsensus::primary_copy(n, 0);
    let stats = sim.run_batch(&mut proto, &mut NullObserver);
    assert!(stats.availability() <= 0.97);
    assert_eq!(stats.stale_reads, 0);
}

#[test]
fn single_copy_realizes_the_surv_floor() {
    // §3: "the reliability of a single site is a lower bound for SURV,
    // since SURV is always realizable by a single copy". Simulate the
    // single-copy system and check it achieves ≈ p on SURV.
    // The up/down process of one site is strongly autocorrelated (~8
    // renewal cycles per 1000 time units), so average over several
    // independent batches to tame the standard error.
    let topo = Topology::ring(5);
    let mut sim = Simulation::with_votes(
        &topo,
        SimParams {
            warmup_accesses: 1_000,
            batch_accesses: 50_000,
            ..SimParams::paper()
        },
        VoteAssignment::primary_copy(5, 2),
        Workload::uniform(5, 0.5),
        314,
    )
    .probe_survivability(true);
    let mut proto = QuorumConsensus::primary_copy(5, 2);
    let mut surv_sum = 0.0;
    let batches = 6;
    for _ in 0..batches {
        let stats = sim.run_batch(&mut proto, &mut NullObserver);
        surv_sum += stats.surv_availability();
    }
    let surv = surv_sum / batches as f64;
    assert!(
        (surv - 0.96).abs() < 0.02,
        "single-copy SURV {surv} should equal site reliability"
    );
}
