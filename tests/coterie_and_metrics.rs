//! Integration tests for the coterie-driven protocol (a set-family
//! `AlgebraProtocol`) and the SURV metric variant (§3, footnote 3).

use quorum_algebra::{AlgebraProtocol, Expr, QuorumSystem};
use quorum_core::metrics::AvailabilityMetric;
use quorum_core::{QuorumConsensus, QuorumSpec, SearchStrategy, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_replica::{run_static, CurveSet, NullObserver, RunConfig, Simulation, Workload};

fn params() -> SimParams {
    SimParams {
        warmup_accesses: 1_000,
        batch_accesses: 30_000,
        ..SimParams::paper()
    }
}

#[test]
fn coterie_protocol_matches_quorum_consensus_in_simulation() {
    // A vote-derived read/write coterie must produce the *identical*
    // decision sequence as the threshold protocol it was derived from.
    let n = 11usize;
    let topo = Topology::ring_with_chords(n, 3);
    let votes = VoteAssignment::uniform(n);
    let spec = QuorumSpec::from_read_quorum(4, n as u64).unwrap();

    let run = |use_coterie: bool| {
        let mut sim = Simulation::new(&topo, params(), Workload::uniform(n, 0.5), 31);
        if use_coterie {
            let system = QuorumSystem::from_spec("coterie", &votes, spec);
            let mut proto = AlgebraProtocol::new(system);
            sim.run_batch(&mut proto, &mut NullObserver)
        } else {
            let mut proto = QuorumConsensus::new(votes.clone(), spec);
            sim.run_batch(&mut proto, &mut NullObserver)
        }
    };
    let threshold = run(false);
    let coterie = run(true);
    assert_eq!(threshold.reads_granted, coterie.reads_granted);
    assert_eq!(threshold.writes_granted, coterie.writes_granted);
    assert_eq!(coterie.stale_reads, 0);
    assert_eq!(coterie.write_conflicts, 0);
}

#[test]
fn non_vote_coterie_is_serializable_in_simulation() {
    // A hand-built (non-threshold) read/write coterie with valid
    // intersections must also be 1SR under partitions.
    let n = 4usize;
    let topo = Topology::fully_connected(n);
    let groups = |gs: [&[usize]; 2]| {
        Expr::or(
            gs.iter()
                .map(|g| Expr::and(Expr::nodes(g.iter().copied())))
                .collect(),
        )
    };
    let system = QuorumSystem::from_exprs(
        "hand-built",
        n,
        groups([&[0, 1], &[2, 3]]),
        groups([&[0, 1, 2], &[1, 2, 3]]),
    );
    assert!(system.certify().ok());
    let mut sim = Simulation::new(&topo, params(), Workload::uniform(n, 0.5), 5);
    let mut proto = AlgebraProtocol::new(system);
    let stats = sim.run_batch(&mut proto, &mut NullObserver);
    assert_eq!(stats.stale_reads, 0);
    assert_eq!(stats.write_conflicts, 0);
    assert!(stats.granted() > 0, "the coterie should grant something");
}

#[test]
fn surv_optimization_footnote_three() {
    // Footnote 3: optimizing SURV means substituting the largest
    // component's vote distribution. The SURV-optimal assignment's SURV
    // availability must dominate the ACC-optimal assignment's SURV.
    let topo = Topology::ring(31);
    let results = run_static(
        &topo,
        VoteAssignment::uniform(31),
        QuorumSpec::from_read_quorum(15, 31).unwrap(),
        Workload::uniform(31, 0.5),
        RunConfig {
            params: params(),
            seed: 77,
            threads: 4,
        },
    );
    let curves = CurveSet::from_run(&results);
    for alpha in [0.25, 0.5, 0.75] {
        let surv_model = curves.model(AvailabilityMetric::Survivability);
        let surv_opt =
            quorum_core::optimal::optimal_quorum(surv_model, alpha, SearchStrategy::Exhaustive);
        let acc_opt = curves.optimal(alpha, SearchStrategy::Exhaustive);
        let acc_opt_under_surv =
            curves.availability(AvailabilityMetric::Survivability, alpha, acc_opt.spec.q_r());
        assert!(
            surv_opt.availability >= acc_opt_under_surv - 1e-12,
            "α={alpha}: SURV-opt {} < ACC-opt-under-SURV {}",
            surv_opt.availability,
            acc_opt_under_surv
        );
        // And SURV availability always dominates ACC availability at the
        // same assignment.
        assert!(surv_opt.availability >= acc_opt.availability - 1e-9);
    }
}

#[test]
fn surv_exceeds_single_site_reliability_with_replication() {
    // §3: "the reliability of a single site is a lower bound for SURV".
    // On a well-connected network with loose quorums, SURV must beat 96 %.
    let topo = Topology::fully_connected(15);
    let results = run_static(
        &topo,
        VoteAssignment::uniform(15),
        QuorumSpec::from_read_quorum(7, 15).unwrap(),
        Workload::uniform(15, 1.0),
        RunConfig {
            params: params(),
            seed: 78,
            threads: 4,
        },
    );
    let curves = CurveSet::from_run(&results);
    let surv = curves.availability(AvailabilityMetric::Survivability, 1.0, 1);
    assert!(surv > 0.96, "SURV {surv} should beat one site's 96%");
    // While ACC cannot (upper-bounded by submitting-site reliability).
    let acc = curves.availability(AvailabilityMetric::Accessibility, 1.0, 1);
    assert!(acc <= 0.97, "ACC {acc} is bounded by site reliability");
}

#[test]
fn torus_simulation_is_consistent_and_beats_ring() {
    // New topology smoke-test: a torus is strictly better connected than
    // a ring of the same size, so its write availability dominates.
    let ring = Topology::ring(25);
    let torus = Topology::torus(5, 5);
    let run = |topo: &Topology, seed| {
        run_static(
            topo,
            VoteAssignment::uniform(25),
            QuorumSpec::majority(25),
            Workload::uniform(25, 0.0),
            RunConfig {
                params: params(),
                seed,
                threads: 4,
            },
        )
    };
    let ring_res = run(&ring, 9);
    let torus_res = run(&torus, 9);
    assert!(ring_res.is_one_copy_serializable());
    assert!(torus_res.is_one_copy_serializable());
    assert!(
        torus_res.combined.write_availability() > ring_res.combined.write_availability(),
        "torus {} should beat ring {}",
        torus_res.combined.write_availability(),
        ring_res.combined.write_availability()
    );
}

#[test]
fn hypercube_simulation_smoke() {
    let topo = Topology::hypercube(4); // 16 sites, degree 4
    let results = run_static(
        &topo,
        VoteAssignment::uniform(16),
        QuorumSpec::majority(16),
        Workload::uniform(16, 0.5),
        RunConfig {
            params: params(),
            seed: 3,
            threads: 2,
        },
    );
    assert!(results.is_one_copy_serializable());
    // Degree-4 redundancy keeps majority components common.
    assert!(
        results.availability() > 0.85,
        "availability {}",
        results.availability()
    );
}
