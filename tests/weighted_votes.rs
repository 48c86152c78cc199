//! End-to-end weighted-vote scenarios: the full pipeline (simulate →
//! estimate per-site densities → Figure-1 optimize → re-simulate at the
//! chosen assignment) with non-uniform votes, which the paper supports in
//! the protocol (§2.1) but does not exercise in its own study (§5.1).

use quorum_core::metrics::AvailabilityMetric;
use quorum_core::{QuorumSpec, SearchStrategy, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_replica::{run_static, CurveSet, NullObserver, RunConfig, Simulation, Workload};
use quorum_stats::VoteHistogram;

fn params() -> SimParams {
    SimParams {
        warmup_accesses: 2_000,
        batch_accesses: 40_000,
        min_batches: 3,
        max_batches: 4,
        ci_half_width: 0.05,
        ..SimParams::paper()
    }
}

#[test]
fn weighted_votes_change_the_vote_distribution_not_the_site_distribution() {
    // Hub gets 5 votes on a 9-star: the access-instant histogram now lives
    // on 0..=13 votes and concentrates differently, but the protocol and
    // checker must stay consistent.
    let topo = Topology::star(9);
    let votes = VoteAssignment::weighted(vec![5, 1, 1, 1, 1, 1, 1, 1, 1]);
    let total = votes.total(); // 13
    let spec = QuorumSpec::majority(total);
    let results = run_static(
        &topo,
        votes,
        spec,
        Workload::uniform(9, 0.5),
        RunConfig {
            params: params(),
            seed: 91,
            threads: 4,
        },
    );
    assert!(results.is_one_copy_serializable());
    let d = results.combined.access_votes().estimate();
    assert_eq!(d.max_votes(), 13);
    // A leaf reaching the hub sees ≥ 6 votes; hub-disconnected leaves see
    // exactly 1. Mass at 2..=5 requires ≥2 leaves w/o the hub — impossible
    // on a star.
    for v in 2..=5 {
        assert_eq!(d.pmf(v), 0.0, "impossible vote total {v}");
    }
}

#[test]
fn optimizer_on_weighted_histogram_beats_naive_majority() {
    // Measure the weighted star, optimize, and verify the chosen spec's
    // re-simulated availability meets or beats uniform-majority's.
    let topo = Topology::star(9);
    let votes = VoteAssignment::weighted(vec![5, 1, 1, 1, 1, 1, 1, 1, 1]);
    let total = votes.total();
    let alpha = 0.75;

    let calib = run_static(
        &topo,
        votes.clone(),
        QuorumSpec::majority(total),
        Workload::uniform(9, alpha),
        RunConfig {
            params: params(),
            seed: 92,
            threads: 4,
        },
    );
    let curves = CurveSet::from_run(&calib);
    let opt = curves.optimal(alpha, SearchStrategy::Exhaustive);

    let rerun = |spec: QuorumSpec, seed: u64| {
        run_static(
            &topo,
            votes.clone(),
            spec,
            Workload::uniform(9, alpha),
            RunConfig {
                params: params(),
                seed,
                threads: 4,
            },
        )
        .availability()
    };
    let a_opt = rerun(opt.spec, 93);
    let a_majority = rerun(QuorumSpec::majority(total), 93);
    assert!(
        a_opt >= a_majority - 0.01,
        "optimized {a_opt} should not lose to majority {a_majority}"
    );
}

#[test]
fn primary_copy_via_votes_matches_primary_copy_protocol() {
    // All votes at site 0 with q = 1 is the primary-copy protocol; the
    // weighted-vote simulation and the named constructor must agree.
    let topo = Topology::ring_with_chords(9, 2);
    let run_weighted = || {
        let votes = VoteAssignment::primary_copy(9, 0);
        let spec = QuorumSpec::new(1, 1, 1).unwrap();
        let mut sim = Simulation::with_votes(
            &topo,
            params(),
            votes.clone(),
            Workload::uniform(9, 0.5),
            94,
        );
        let mut proto = quorum_core::QuorumConsensus::new(votes, spec);
        sim.run_batch(&mut proto, &mut NullObserver)
    };
    let run_named = || {
        let mut sim = Simulation::with_votes(
            &topo,
            params(),
            VoteAssignment::primary_copy(9, 0),
            Workload::uniform(9, 0.5),
            94,
        );
        let mut proto = quorum_core::QuorumConsensus::primary_copy(9, 0);
        sim.run_batch(&mut proto, &mut NullObserver)
    };
    let a = run_weighted();
    let b = run_named();
    assert_eq!(a.reads_granted, b.reads_granted);
    assert_eq!(a.writes_granted, b.writes_granted);
    assert_eq!(a.stale_reads, 0);
    assert_eq!(b.write_conflicts, 0);
}

#[test]
fn zero_vote_observers_never_contribute_to_quorums() {
    // Sites with zero votes are read-only caches: they may host accesses
    // (and fail), but quorum arithmetic must ignore them.
    let topo = Topology::fully_connected(6);
    let votes = VoteAssignment::weighted(vec![1, 1, 1, 0, 0, 0]);
    let spec = QuorumSpec::majority(votes.total()); // (2,2) over T = 3
    let results = run_static(
        &topo,
        votes,
        spec,
        Workload::uniform(6, 0.5),
        RunConfig {
            params: params(),
            seed: 95,
            threads: 2,
        },
    );
    assert!(results.is_one_copy_serializable());
    let d = results.combined.access_votes().estimate();
    assert_eq!(d.max_votes(), 3, "histogram support is the vote total");
    // An access at an up zero-vote site still sees the voting sites'
    // component: mass at 3 should dominate on a complete graph.
    assert!(d.pmf(3) > 0.7, "P[v=3] = {}", d.pmf(3));
}

#[test]
fn surv_with_weighted_votes_counts_votes_not_sites() {
    // 3-vote site 0 plus four 1-vote sites (T = 7, majority (4,4)): a
    // component {0, any one other} holds 4 votes — SURV must credit it.
    let topo = Topology::fully_connected(5);
    let votes = VoteAssignment::weighted(vec![3, 1, 1, 1, 1]);
    let spec = QuorumSpec::majority(votes.total());
    let mut sim = Simulation::with_votes(
        &topo,
        params(),
        votes.clone(),
        Workload::uniform(5, 0.5),
        96,
    )
    .probe_survivability(true);
    let mut proto = quorum_core::QuorumConsensus::new(votes, spec);
    let stats = sim.run_batch(&mut proto, &mut NullObserver);
    assert!(stats.surv_availability() >= stats.availability());
    assert!(stats.surv_availability() > 0.9);
}

#[test]
fn weighted_curveset_domain_follows_votes() {
    let topo = Topology::ring(5);
    let votes = VoteAssignment::weighted(vec![2, 2, 2, 2, 2]); // T = 10
    let results = run_static(
        &topo,
        votes,
        QuorumSpec::majority(10),
        Workload::uniform(5, 0.5),
        RunConfig {
            params: params(),
            seed: 97,
            threads: 2,
        },
    );
    let curves = CurveSet::from_run(&results);
    assert_eq!(curves.total_votes(), 10);
    assert_eq!(
        curves.curve(AvailabilityMetric::Accessibility, 0.5).len(),
        5
    );
}
