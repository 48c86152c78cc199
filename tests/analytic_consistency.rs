//! Cross-validates the §4.2 closed forms against the full simulator: the
//! same stochastic model implemented twice (algebra vs discrete events)
//! must produce the same component-vote distributions and, downstream, the
//! same optimal quorum assignments.

use quorum_core::analytic::{fully_connected_density, ring_density, star_densities};
use quorum_core::{
    AvailabilityModel, QuorumConsensus, QuorumSpec, SearchStrategy, SiteEstimators, VoteAssignment,
};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_replica::{run_static, CurveSet, RunConfig, Simulation, Workload};
use quorum_stats::{CountingHistogram, VoteHistogram};

fn spec(n: usize) -> QuorumSpec {
    QuorumSpec::from_read_quorum(n as u64 / 2, n as u64)
        .expect("floor(n/2) reads of n total always satisfy both quorum rules")
}

fn config(seed: u64) -> RunConfig {
    RunConfig {
        params: SimParams {
            warmup_accesses: 3_000,
            batch_accesses: 60_000,
            min_batches: 4,
            max_batches: 4,
            ci_half_width: 0.05,
            ..SimParams::paper()
        },
        seed,
        threads: 4,
    }
}

fn simulate(topo: &Topology, seed: u64) -> quorum_replica::RunResults {
    let n = topo.num_sites();
    run_static(
        topo,
        VoteAssignment::uniform(n),
        spec(n),
        Workload::uniform(n, 0.5),
        config(seed),
    )
}

/// The per-site `f̂` bank of `simulate(topo, seed)`: batches
/// `0..batches` replayed in order, each measured access fed through the
/// bank's `AccessObserver` impl.
fn site_bank(topo: &Topology, seed: u64, batches: u64) -> SiteEstimators<CountingHistogram> {
    let n = topo.num_sites();
    let cfg = config(seed);
    let mut sim = Simulation::new(topo, cfg.params, Workload::uniform(n, 0.5), seed);
    let mut proto = QuorumConsensus::new(VoteAssignment::uniform(n), spec(n));
    let mut bank = SiteEstimators::counting(n, n);
    for _ in 0..batches {
        sim.run_batch(&mut proto, &mut bank);
    }
    bank
}

#[test]
fn simulated_ring_density_matches_closed_form() {
    let n = 21;
    let results = simulate(&Topology::ring(n), 42);
    let empirical = results.combined.access_votes().estimate();
    let analytic = ring_density(n, 0.96, 0.96);
    let tv = empirical.total_variation(&analytic);
    assert!(tv < 0.03, "total variation {tv}");
    assert!((empirical.mean() - analytic.mean()).abs() < 0.6);
}

#[test]
fn simulated_fc_density_matches_gilbert_formula() {
    let n = 21;
    let results = simulate(&Topology::fully_connected(n), 43);
    let empirical = results.combined.access_votes().estimate();
    let analytic = fully_connected_density(n, 0.96, 0.96);
    let tv = empirical.total_variation(&analytic);
    assert!(tv < 0.03, "total variation {tv}");
}

#[test]
fn analytic_and_simulated_models_pick_same_quorums() {
    // The argmax is the decision that matters: both routes to f(v) must
    // lead the Figure-1 optimizer to (nearly) the same assignment.
    let n = 21usize;
    for (topo, density) in [
        (Topology::ring(n), ring_density(n, 0.96, 0.96)),
        (
            Topology::fully_connected(n),
            fully_connected_density(n, 0.96, 0.96),
        ),
    ] {
        let analytic_model = AvailabilityModel::from_mixtures(&density, &density);
        let sim_curves = CurveSet::from_run(&simulate(&topo, 44));
        for &alpha in &[0.0, 0.5, 1.0] {
            let a = quorum_core::optimal::optimal_quorum(
                &analytic_model,
                alpha,
                SearchStrategy::Exhaustive,
            );
            let s = sim_curves.optimal(alpha, SearchStrategy::Exhaustive);
            // Values must agree; argmaxes may differ on flat stretches.
            let a_at_s = alpha * analytic_model.read_availability(s.spec.q_r())
                + (1.0 - alpha) * analytic_model.write_availability(s.spec.q_w());
            assert!(
                (a.availability - a_at_s).abs() < 0.03,
                "{}, α={alpha}: analytic opt {} (q_r={}), simulated pick {} (q_r={})",
                topo.name(),
                a.availability,
                a.spec.q_r(),
                a_at_s,
                s.spec.q_r()
            );
        }
    }
}

#[test]
fn analytic_availability_predicts_simulated_availability() {
    // Closed form → A(α, q_r); simulator → measured grant rate at that
    // exact spec. They must coincide within CI noise.
    let n = 21usize;
    let topo = Topology::ring(n);
    let density = ring_density(n, 0.96, 0.96);
    let model = AvailabilityModel::from_mixtures(&density, &density);
    let alpha = 0.5;
    let q_r = 5u64;
    let predicted = model.availability(alpha, q_r);

    let results = run_static(
        &topo,
        VoteAssignment::uniform(n),
        QuorumSpec::from_read_quorum(q_r, n as u64).unwrap(),
        Workload::uniform(n, alpha),
        RunConfig {
            params: SimParams {
                warmup_accesses: 3_000,
                batch_accesses: 60_000,
                min_batches: 4,
                max_batches: 4,
                ci_half_width: 0.05,
                ..SimParams::paper()
            },
            seed: 45,
            threads: 4,
        },
    );
    let measured = results.combined.availability();
    assert!(
        (predicted - measured).abs() < 0.02,
        "predicted {predicted} vs measured {measured}"
    );
}

#[test]
fn star_per_site_densities_match_simulation() {
    // The star's hub and leaves have DIFFERENT f_i — the first asymmetric
    // case. Validate each against the per-site simulated histograms.
    let n = 13usize;
    let topo = Topology::star(n);
    let results = simulate(&topo, 48);
    let bank = site_bank(&topo, 48, results.batches);
    let analytic = star_densities(n, 0.96, 0.96);
    #[allow(clippy::needless_range_loop)]
    for site in 0..n {
        let empirical = bank.density(site);
        let tv = empirical.total_variation(&analytic[site]);
        assert!(tv < 0.05, "site {site}: TV {tv}");
    }
    // And the mixture model predicts the aggregate availability.
    let frac = vec![1.0 / n as f64; n];
    let model = quorum_core::AvailabilityModel::from_site_densities(&analytic, &frac, &frac);
    let curves = CurveSet::from_run(&results);
    for q_r in [1u64, 3, 6] {
        let a = model.availability(0.5, q_r);
        let b = curves.availability(
            quorum_core::metrics::AvailabilityMetric::Accessibility,
            0.5,
            q_r,
        );
        assert!((a - b).abs() < 0.02, "q_r={q_r}: analytic {a} vs sim {b}");
    }
}

#[test]
fn largest_component_bounds_access_component() {
    // Internal consistency of the two histograms every run collects.
    let results = simulate(&Topology::ring(15), 46);
    let acc_mean = results.combined.access_votes().estimate().mean();
    let surv_mean = results.combined.largest_votes.estimate().mean();
    assert!(
        surv_mean >= acc_mean,
        "largest-component mean {surv_mean} below access mean {acc_mean}"
    );
}
