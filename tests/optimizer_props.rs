//! Property tests on the Figure-1 optimizer and its §5.4 variants, against
//! brute force on randomly generated availability models.

use proptest::prelude::*;
use quorum_core::optimal::{
    min_read_quorum_for_write_floor, optimal_quorum, optimal_weighted, optimal_with_write_floor,
    SearchStrategy,
};
use quorum_core::AvailabilityModel;
use quorum_stats::DiscreteDist;

/// Strategy: a random normalized pmf over 0..=t.
fn pmf_strategy(t: usize) -> impl Strategy<Value = DiscreteDist> {
    prop::collection::vec(0.0f64..1.0, t + 1).prop_map(|raw| {
        let sum: f64 = raw.iter().sum::<f64>().max(1e-9);
        DiscreteDist::from_pmf(raw.into_iter().map(|x| x / sum).collect())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reported optimum dominates every point in the domain.
    #[test]
    fn optimum_dominates_domain(
        r in pmf_strategy(30),
        w in pmf_strategy(30),
        alpha in 0.0f64..1.0,
    ) {
        let m = AvailabilityModel::from_mixtures(&r, &w);
        let opt = optimal_quorum(&m, alpha, SearchStrategy::Exhaustive);
        for q in 1..=15u64 {
            prop_assert!(opt.availability >= m.availability(alpha, q) - 1e-12);
        }
        // Reported components are consistent.
        let manual = alpha * opt.read_availability + (1.0 - alpha) * opt.write_availability;
        prop_assert!((opt.availability - manual).abs() < 1e-12);
    }

    /// Availability is monotone: raising α on a read-friendlier-than-
    /// write model never decreases A at fixed q_r when R(q_r) ≥ W(q_w).
    #[test]
    fn alpha_monotonicity_pointwise(
        f in pmf_strategy(20),
        q_r in 1u64..=10,
    ) {
        let m = AvailabilityModel::from_mixtures(&f, &f);
        let q_w = 20 - q_r + 1;
        let r = m.read_availability(q_r);
        let w = m.write_availability(q_w);
        // A(α) = α r + (1−α) w is linear; check its slope sign.
        let a0 = m.availability(0.0, q_r);
        let a1 = m.availability(1.0, q_r);
        if r >= w {
            prop_assert!(a1 >= a0 - 1e-12);
        } else {
            prop_assert!(a1 <= a0 + 1e-12);
        }
        // R(q_r) ≥ W(T−q_r+1) always: q_r ≤ ⌊T/2⌋ < q_w and tails are
        // non-increasing, so reads are never harder than writes here.
        prop_assert!(r >= w - 1e-12);
    }

    /// Write-floor optimizer: result is feasible, optimal among feasible
    /// points (brute-force check), and None only when truly infeasible.
    #[test]
    fn write_floor_matches_brute_force(
        f in pmf_strategy(24),
        alpha in 0.0f64..1.0,
        floor in 0.0f64..1.0,
    ) {
        let m = AvailabilityModel::from_mixtures(&f, &f);
        let total = m.total_votes();
        let hi = total / 2;
        let feasible: Vec<u64> = (1..=hi)
            .filter(|&q| m.write_availability(total - q + 1) >= floor)
            .collect();
        let got = optimal_with_write_floor(&m, alpha, floor, SearchStrategy::Exhaustive);
        match got {
            None => prop_assert!(feasible.is_empty(), "returned None but {feasible:?} feasible"),
            Some(o) => {
                prop_assert!(m.write_availability(o.spec.q_w()) >= floor - 1e-12);
                let best = feasible
                    .iter()
                    .map(|&q| m.availability(alpha, q))
                    .fold(f64::MIN, f64::max);
                prop_assert!((o.availability - best).abs() < 1e-12);
            }
        }
    }

    /// The binary-searched feasibility boundary is exact.
    #[test]
    fn floor_boundary_is_minimal(
        f in pmf_strategy(24),
        floor in 0.0f64..1.0,
    ) {
        let m = AvailabilityModel::from_mixtures(&f, &f);
        let total = m.total_votes();
        if let Some(q_min) = min_read_quorum_for_write_floor(&m, floor) {
            prop_assert!(m.write_availability(total - q_min + 1) >= floor);
            if q_min > 1 {
                prop_assert!(m.write_availability(total - (q_min - 1) + 1) < floor);
            }
        } else {
            prop_assert!(m.write_availability(total - total / 2 + 1) < floor);
        }
    }

    /// ω-weighted optimizer agrees with brute force on the weighted
    /// objective.
    #[test]
    fn weighted_matches_brute_force(
        f in pmf_strategy(20),
        alpha in 0.0f64..1.0,
        omega in 0.0f64..4.0,
    ) {
        let m = AvailabilityModel::from_mixtures(&f, &f);
        let got = optimal_weighted(&m, omega, alpha, SearchStrategy::Exhaustive);
        let best = (1..=10u64)
            .map(|q| m.weighted_availability(omega, alpha, q))
            .fold(f64::MIN, f64::max);
        prop_assert!((got.availability - best).abs() < 1e-12);
    }

    /// Golden-section with endpoint check never loses more than noise on
    /// *unimodal* curves (paper §4.1's use case), and is never better than
    /// exhaustive (which is exact).
    #[test]
    fn golden_exact_on_unimodal(peak in 0usize..=40, width in 1.0f64..20.0) {
        let pmf: Vec<f64> = (0..=40)
            .map(|v| (-((v as f64 - peak as f64) / width).powi(2)).exp())
            .collect();
        let f = DiscreteDist::from_pmf(pmf).normalized();
        let m = AvailabilityModel::from_mixtures(&f, &f);
        for alpha in [0.0, 0.5, 1.0] {
            let e = optimal_quorum(&m, alpha, SearchStrategy::Exhaustive);
            let g = optimal_quorum(&m, alpha, SearchStrategy::EndpointGolden);
            prop_assert!(g.availability <= e.availability + 1e-12);
            prop_assert!(
                (e.availability - g.availability).abs() < 1e-9,
                "α={alpha}: exhaustive {} vs golden {}",
                e.availability,
                g.availability
            );
        }
    }

    /// Tail tables agree with direct tail sums (the O(1) evaluation trick
    /// behind the whole optimizer).
    #[test]
    fn tail_table_consistency(f in pmf_strategy(33)) {
        let m = AvailabilityModel::from_mixtures(&f, &f);
        for v in 0..=34u64 {
            prop_assert!((m.read_availability(v) - f.tail_sum(v as usize)).abs() < 1e-12);
        }
    }
}
