//! End-to-end reproduction of the paper's §5.3 qualitative observations,
//! at reduced scale (CI-friendly) but with the full 101-site topologies.

use quorum_core::metrics::AvailabilityMetric;
use quorum_core::{QuorumSpec, SearchStrategy, VoteAssignment};
use quorum_des::SimParams;
use quorum_replica::scenario::{PaperScenario, PAPER_ALPHAS};
use quorum_replica::{run_static, CurveSet, RunConfig, RunResults, Workload};

const ACC: AvailabilityMetric = AvailabilityMetric::Accessibility;

fn run_scenario(chords: usize, seed: u64) -> RunResults {
    let topo = PaperScenario::new(chords).topology();
    run_static(
        &topo,
        VoteAssignment::uniform(101),
        QuorumSpec::from_read_quorum(50, 101).expect("(50, 52) of 101 satisfies both quorum rules"),
        Workload::uniform(101, 0.5),
        RunConfig {
            params: SimParams {
                warmup_accesses: 2_000,
                batch_accesses: 25_000,
                min_batches: 3,
                max_batches: 4,
                ci_half_width: 0.02,
                ..SimParams::paper()
            },
            seed,
            threads: 4,
        },
    )
}

#[test]
fn availability_at_q_r_one_is_point_96_alpha_for_every_topology() {
    // §5.3: "the availability at q_r = 1 is .96α", independent of topology
    // (a read succeeds iff the submitting site is up; a write needs every
    // copy, which essentially never happens).
    for chords in [0usize, 16] {
        let curves = CurveSet::from_run(&run_scenario(chords, 100 + chords as u64));
        for &alpha in &PAPER_ALPHAS {
            let a = curves.availability(ACC, alpha, 1);
            // At α = 0 the paper's "essentially never" is not exactly 0:
            // q_w = 101 means a write succeeds iff the whole network is up
            // and connected, which happens ≈ 0.96^101 ≈ 1.6% of the time,
            // and at this reduced scale (~2 failure cycles per batch) the
            // estimate of that small rate is noisy. Allow the floor.
            let tol = if alpha == 0.0 { 0.04 } else { 0.02 };
            assert!(
                (a - 0.96 * alpha).abs() < tol,
                "topology {chords}, α={alpha}: A(q_r=1) = {a}, expected ≈ {}",
                0.96 * alpha
            );
        }
    }
}

#[test]
fn all_alpha_curves_converge_at_majority_end() {
    // §5.3: "all curves for a given topology converge at q_r = ⌊T/2⌋".
    for chords in [0usize, 256] {
        let curves = CurveSet::from_run(&run_scenario(chords, 200 + chords as u64));
        let vals: Vec<f64> = PAPER_ALPHAS
            .iter()
            .map(|&a| curves.availability(ACC, a, 50))
            .collect();
        let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread < 0.05,
            "topology {chords}: spread {spread} at q_r = 50 (values {vals:?})"
        );
    }
}

#[test]
fn ring_maxima_lie_at_endpoints() {
    // §5.3: with the lone exception of topology 16 at α = .75, every curve
    // peaks at an endpoint. Check the ring, where the effect is strongest.
    let curves = CurveSet::from_run(&run_scenario(0, 300));
    for &alpha in &PAPER_ALPHAS {
        let opt = curves.optimal(alpha, SearchStrategy::Exhaustive);
        let at_lo = curves.availability(ACC, alpha, 1);
        let at_hi = curves.availability(ACC, alpha, 50);
        // Tie tolerance = the paper's own CI half-width (±0.5%): interior
        // q_r = 2 can edge out q_r = 1 by ~0.1% (q_w = 100 admits the
        // one-failure write states), which the paper's resolution cannot
        // distinguish from an endpoint maximum.
        let tol = 5e-3;
        let endpoint_attains = at_lo >= opt.availability - tol || at_hi >= opt.availability - tol;
        assert!(
            endpoint_attains,
            "ring α={alpha}: optimum {} at q_r={} not attained at an endpoint ({at_lo}, {at_hi})",
            opt.availability,
            opt.spec.q_r()
        );
    }
}

#[test]
fn dense_topology_availability_approaches_site_reliability() {
    // Figure 7: on topology 256 (≈ fully connected) every curve is nearly
    // flat at ≈ 96 % — the network almost never partitions, so the only
    // loss is the submitting site being down.
    let curves = CurveSet::from_run(&run_scenario(256, 400));
    for &alpha in &PAPER_ALPHAS {
        for q_r in [10u64, 25, 40, 50] {
            let a = curves.availability(ACC, alpha, q_r);
            assert!(
                (a - 0.96).abs() < 0.02,
                "topology 256 α={alpha} q_r={q_r}: A = {a}"
            );
        }
    }
}

#[test]
fn more_chords_never_hurt_availability() {
    // Adding links only improves connectivity: for the all-writes curve
    // (most sensitive to component size) topology 16 dominates the ring.
    let ring = CurveSet::from_run(&run_scenario(0, 500));
    let dense = CurveSet::from_run(&run_scenario(16, 501));
    for q_r in [10u64, 25, 40, 50] {
        let a0 = ring.availability(ACC, 0.0, q_r);
        let a16 = dense.availability(ACC, 0.0, q_r);
        assert!(
            a16 >= a0 - 0.02,
            "q_r={q_r}: topology 16 ({a16}) below ring ({a0})"
        );
    }
}

#[test]
fn measured_acc_matches_curve_prediction() {
    // The directly counted grant rate at the simulated spec must agree
    // with the histogram-derived curve value — the measurement and the
    // model are two views of the same process.
    let results = run_scenario(4, 600);
    let curves = CurveSet::from_run(&results);
    let direct = results.combined.availability();
    let predicted = curves.availability(ACC, 0.5, 50);
    assert!(
        (direct - predicted).abs() < 0.02,
        "direct {direct} vs predicted {predicted}"
    );
    assert!(results.is_one_copy_serializable());
}

#[test]
fn surv_metric_dominates_acc_metric() {
    // SURV asks "can anyone access" — always at least as available as ACC.
    let results = run_scenario(1, 700);
    let curves = CurveSet::from_run(&results);
    for &alpha in &[0.0, 0.5, 1.0] {
        for q_r in [1u64, 25, 50] {
            let acc = curves.availability(ACC, alpha, q_r);
            let surv = curves.availability(AvailabilityMetric::Survivability, alpha, q_r);
            // ACC and SURV come from different finite samples (per-kind
            // vs largest-component histograms), so allow sampling noise.
            assert!(
                surv >= acc - 1e-3,
                "α={alpha}, q_r={q_r}: SURV {surv} < ACC {acc}"
            );
        }
    }
}
