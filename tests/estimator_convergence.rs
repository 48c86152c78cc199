//! The on-line `f̂` estimation pipeline (§4.2's answer to #P-completeness)
//! must converge to the analytic truth and drive the optimizer to the same
//! decisions.

use quorum_core::analytic::{fully_connected_density, ring_density};
use quorum_core::{
    AvailabilityModel, QuorumConsensus, QuorumSpec, SearchStrategy, SiteEstimators, VoteAssignment,
};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_replica::{run_static, RunConfig, Simulation, Workload};
use quorum_stats::CountingHistogram;

/// Runs batches `0..batches` of a [`run_static`] configuration in order,
/// feeding every measured access into a counting per-site bank through
/// its `AccessObserver` impl. The bank sees exactly the observations that
/// `run_static` merges over those batches at the same seed.
fn site_bank(
    topo: &Topology,
    spec: QuorumSpec,
    workload: Workload,
    cfg: RunConfig,
    batches: u64,
) -> SiteEstimators<CountingHistogram> {
    let n = topo.num_sites();
    let mut sim = Simulation::new(topo, cfg.params, workload, cfg.seed);
    let mut proto = QuorumConsensus::new(VoteAssignment::uniform(n), spec);
    let mut bank = SiteEstimators::counting(n, n);
    for _ in 0..batches {
        sim.run_batch(&mut proto, &mut bank);
    }
    bank
}

/// Four batches of 50 000 accesses on `seed`.
fn four_batches(seed: u64) -> RunConfig {
    RunConfig {
        params: SimParams {
            warmup_accesses: 2_000,
            batch_accesses: 50_000,
            min_batches: 4,
            max_batches: 4,
            ci_half_width: 0.05,
            ..SimParams::paper()
        },
        seed,
        threads: 4,
    }
}

#[test]
fn online_estimate_converges_to_analytic_truth_on_ring() {
    let n = 15usize;
    let topo = Topology::ring(n);
    let bank = site_bank(
        &topo,
        QuorumSpec::majority(n as u64),
        Workload::uniform(n, 0.5),
        four_batches(1),
        4,
    );
    let truth = ring_density(n, 0.96, 0.96);
    // Per-site estimates: every site individually converges to f_i (the
    // ring is vertex-transitive, so all f_i coincide).
    for site in 0..n {
        let est = bank.density(site);
        let tv = est.total_variation(&truth);
        assert!(tv < 0.08, "site {site}: TV {tv}");
    }
}

#[test]
fn estimator_driven_optimizer_matches_analytic_decision() {
    // Feed the SiteEstimators from a live simulation via the observer
    // hook, then compare its optimizer decision with the analytic one.
    let n = 13usize;
    let topo = Topology::fully_connected(n);
    let params = SimParams {
        warmup_accesses: 1_000,
        batch_accesses: 60_000,
        ..SimParams::paper()
    };
    let mut sim = Simulation::new(&topo, params, Workload::uniform(n, 0.5), 9);
    let mut proto = quorum_core::QuorumConsensus::new(
        VoteAssignment::uniform(n),
        QuorumSpec::majority(n as u64),
    );
    let mut est = SiteEstimators::counting(n, n);
    sim.run_batch(&mut proto, &mut est);

    let est_model = est.model_uniform();
    let truth = fully_connected_density(n, 0.96, 0.96);
    let true_model = AvailabilityModel::from_mixtures(&truth, &truth);

    for alpha in [0.0, 0.25, 0.75, 1.0] {
        let e = quorum_core::optimal::optimal_quorum(&est_model, alpha, SearchStrategy::Exhaustive);
        let t =
            quorum_core::optimal::optimal_quorum(&true_model, alpha, SearchStrategy::Exhaustive);
        // Compare achieved values under the *true* model (argmax may sit
        // anywhere on a flat top).
        let e_value = alpha * true_model.read_availability(e.spec.q_r())
            + (1.0 - alpha) * true_model.write_availability(e.spec.q_w());
        assert!(
            (t.availability - e_value).abs() < 0.02,
            "α={alpha}: true opt {} vs estimator-driven {}",
            t.availability,
            e_value
        );
    }
}

#[test]
fn footnote_four_scaling_preserves_argmax() {
    // A' (conditional on submitting site up) differs from A by the factor
    // p; the optimizer must land on the same q_r either way.
    let n = 15;
    let truth = ring_density(n, 0.96, 0.96);
    // Conditional density: remove the v = 0 mass and renormalize.
    let mut cond = truth.as_slice().to_vec();
    cond[0] = 0.0;
    let conditional = quorum_stats::DiscreteDist::from_pmf(cond).normalized();

    let full = AvailabilityModel::from_mixtures(&truth, &truth);
    let prime = AvailabilityModel::from_mixtures(&conditional, &conditional);
    for alpha in [0.0, 0.3, 0.7, 1.0] {
        let a = quorum_core::optimal::optimal_quorum(&full, alpha, SearchStrategy::Exhaustive);
        let b = quorum_core::optimal::optimal_quorum(&prime, alpha, SearchStrategy::Exhaustive);
        assert_eq!(
            a.spec.q_r(),
            b.spec.q_r(),
            "α={alpha}: A and A' disagree on the argmax"
        );
        // And the values satisfy A = p·A'.
        assert!(
            (a.availability - 0.96 * b.availability).abs() < 1e-9,
            "α={alpha}: A {} vs p·A' {}",
            a.availability,
            0.96 * b.availability
        );
    }
}

#[test]
fn decayed_estimator_tracks_topology_change() {
    // Simulate on a ring, then on a chorded ring, feeding one decayed
    // estimator; its final estimate must reflect the second regime.
    let n = 15usize;
    let mut est = SiteEstimators::decayed(n, n, 0.999);
    let params = SimParams {
        warmup_accesses: 500,
        batch_accesses: 20_000,
        ..SimParams::paper()
    };

    for (phase, topo) in [Topology::ring(n), Topology::ring_with_chords(n, 12)]
        .iter()
        .enumerate()
    {
        let mut sim = Simulation::new(topo, params, Workload::uniform(n, 0.5), phase as u64);
        let mut proto = quorum_core::QuorumConsensus::majority(n);
        sim.run_batch(&mut proto, &mut est);
    }

    // After the well-connected phase the estimated mean component size
    // must be near the chorded ring's, not the bare ring's.
    let ring_mean = ring_density(n, 0.96, 0.96).mean();
    let mean_est: f64 = {
        // Reconstruct the mixture mean from per-site densities.
        let ds = est.densities();
        ds.iter().map(|d| d.mean()).sum::<f64>() / ds.len() as f64
    };
    assert!(
        mean_est > ring_mean + 1.0,
        "estimated mean {mean_est} did not move past ring mean {ring_mean}"
    );
}

#[test]
fn curves_from_per_site_agree_with_truth() {
    // Full pipeline: simulate ring → per-site bank → mixture model →
    // availability; compare with analytic A at several points.
    let n = 15usize;
    let topo = Topology::ring(n);
    let bank = site_bank(
        &topo,
        QuorumSpec::majority(n as u64),
        Workload::uniform(n, 0.5),
        four_batches(3),
        4,
    );
    let frac = vec![1.0 / n as f64; n];
    let curves = bank.model(&frac, &frac);
    let truth = ring_density(n, 0.96, 0.96);
    let model = AvailabilityModel::from_mixtures(&truth, &truth);
    for alpha in [0.0, 0.5, 1.0] {
        for q_r in [1u64, 3, 7] {
            let a = curves.availability(alpha, q_r);
            let b = model.availability(alpha, q_r);
            assert!(
                (a - b).abs() < 0.02,
                "α={alpha} q_r={q_r}: measured {a} vs analytic {b}"
            );
        }
    }
}

#[test]
fn asymmetric_read_write_distributions_shift_the_optimum() {
    // Reads originate at the star's hub (big components), writes at the
    // leaves (often isolated): r(v) ≠ w(v), so the availability model must
    // use both mixtures. Compare against the flipped workload.
    use quorum_core::analytic::star_densities;
    let n = 11usize;
    let densities = star_densities(n, 0.9, 0.8);
    let mut hub = vec![0.0; n];
    hub[0] = 1.0;
    let leaf_share = 1.0 / (n - 1) as f64;
    let leaves: Vec<f64> = (0..n)
        .map(|i| if i == 0 { 0.0 } else { leaf_share })
        .collect();

    let reads_at_hub = AvailabilityModel::from_site_densities(&densities, &hub, &leaves);
    let reads_at_leaves = AvailabilityModel::from_site_densities(&densities, &leaves, &hub);

    // With reads at the hub, read availability at moderate quorums is
    // higher than with reads at the leaves.
    for q in 2..=5u64 {
        assert!(
            reads_at_hub.read_availability(q) > reads_at_leaves.read_availability(q),
            "q = {q}"
        );
    }
    // At α = 1 both optimize to q_r = 1 where R(1) = p for either
    // configuration (a read at any up site trivially reaches one vote) —
    // equal up to floating-point accumulation order.
    let a = quorum_core::optimal::optimal_quorum(&reads_at_hub, 1.0, SearchStrategy::Exhaustive);
    let b = quorum_core::optimal::optimal_quorum(&reads_at_leaves, 1.0, SearchStrategy::Exhaustive);
    assert!((a.availability - b.availability).abs() < 1e-9);
    assert!((a.availability - 0.9).abs() < 1e-9);
}

#[test]
fn zipf_workload_simulation_matches_per_site_mixture() {
    // Hot-spot submission on a ring: the curve built from per-site
    // histograms with the matching r_i/w_i weights predicts the measured
    // availability; the plain aggregate histogram does too (it inherits
    // the submission skew automatically).
    let n = 15usize;
    let topo = Topology::ring(n);
    let workload = Workload::zipf(n, 0.5, 1.2);
    let read_frac = workload.read_frac().to_vec();
    let write_frac = workload.write_frac().to_vec();
    let spec = QuorumSpec::from_read_quorum(4, n as u64).unwrap();
    let cfg = RunConfig {
        params: SimParams {
            warmup_accesses: 2_000,
            batch_accesses: 40_000,
            min_batches: 4,
            max_batches: 4,
            ci_half_width: 0.05,
            ..SimParams::paper()
        },
        seed: 77,
        threads: 4,
    };
    let results = run_static(
        &topo,
        VoteAssignment::uniform(n),
        spec,
        workload.clone(),
        cfg,
    );
    let direct = results.combined.availability();
    let per_site =
        site_bank(&topo, spec, workload, cfg, results.batches).model(&read_frac, &write_frac);
    let predicted = per_site.availability(0.5, 4);
    assert!(
        (direct - predicted).abs() < 0.02,
        "direct {direct} vs per-site mixture {predicted}"
    );
    assert!(results.is_one_copy_serializable());
}
