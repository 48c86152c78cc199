//! Step 4 of the Figure-1 algorithm: maximize `A(α, q_r)` over
//! `q_r ∈ 1..=⌊T/2⌋`, plus the §5.4 write-constrained variants.

use crate::availability::AvailabilityModel;
use crate::quorum::QuorumSpec;
use quorum_stats::{brent_max, exhaustive_max, golden_section_max};

/// How to search the `q_r` domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Evaluate every `q_r` (polynomial, exact — §4.1's "naive" baseline).
    Exhaustive,
    /// Endpoint-first golden-section search (§4.1's suggested speedup;
    /// exact when `A` is unimodal in `q_r`, which §5.3 observes for all
    /// but one measured curve).
    EndpointGolden,
    /// Brent's method on the continuous (linearly interpolated)
    /// relaxation of `A`, also suggested in §4.1 (via Numerical Recipes),
    /// followed by an endpoint check and a local integer refinement.
    ContinuousBrent,
}

/// An optimal quorum assignment and its predicted availabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimalAssignment {
    /// The chosen `(q_r, q_w = T − q_r + 1)` pair.
    pub spec: QuorumSpec,
    /// `A(α, q_r)` at the optimum.
    pub availability: f64,
    /// `R(q_r)` at the optimum.
    pub read_availability: f64,
    /// `W(q_w)` at the optimum.
    pub write_availability: f64,
    /// Number of availability evaluations the search spent.
    pub evaluations: usize,
}

fn assemble(model: &AvailabilityModel, alpha: f64, q_r: u64, evals: usize) -> OptimalAssignment {
    let total = model.total_votes();
    let spec = QuorumSpec::from_read_quorum(q_r, total).expect("domain-checked q_r");
    OptimalAssignment {
        spec,
        availability: model.availability(alpha, q_r),
        read_availability: model.read_availability(spec.q_r()),
        write_availability: model.write_availability(spec.q_w()),
        evaluations: evals,
    }
}

/// Finds the `q_r` maximizing `A(α, q_r)` (Figure 1, step 4).
///
/// # Examples
/// ```
/// use quorum_core::analytic::ring_density;
/// use quorum_core::{AvailabilityModel, SearchStrategy};
/// use quorum_core::optimal::optimal_quorum;
///
/// let f = ring_density(21, 0.96, 0.96);
/// let model = AvailabilityModel::from_mixtures(&f, &f);
/// // Read-heavy workload on a flaky ring: loose reads win.
/// let opt = optimal_quorum(&model, 0.9, SearchStrategy::Exhaustive);
/// assert!(opt.spec.q_r() <= 2);
/// ```
pub fn optimal_quorum(
    model: &AvailabilityModel,
    alpha: f64,
    strategy: SearchStrategy,
) -> OptimalAssignment {
    optimal_in_range(model, alpha, strategy, 1, domain_hi(model))
}

/// §5.4, preferred variant: maximize `A(α, q_r)` subject to the write
/// availability floor `W(T − q_r + 1) ≥ min_write`.
///
/// Because `q_w = T − q_r + 1` shrinks as `q_r` grows, `W` is
/// non-decreasing in `q_r`; the feasible region is a suffix
/// `[q_min, ⌊T/2⌋]` found by binary search. Returns `None` when even
/// `q_r = ⌊T/2⌋` misses the floor.
pub fn optimal_with_write_floor(
    model: &AvailabilityModel,
    alpha: f64,
    min_write: f64,
    strategy: SearchStrategy,
) -> Option<OptimalAssignment> {
    let q_min = min_read_quorum_for_write_floor(model, min_write)?;
    Some(optimal_in_range(
        model,
        alpha,
        strategy,
        q_min,
        domain_hi(model),
    ))
}

/// §5.4, weighted variant: maximize `A(ω, α, q) = α·R(q) + ω(1−α)·W(T−q+1)`.
pub fn optimal_weighted(
    model: &AvailabilityModel,
    omega: f64,
    alpha: f64,
    strategy: SearchStrategy,
) -> OptimalAssignment {
    let hi = domain_hi(model);
    let f = |q: usize| model.weighted_availability(omega, alpha, q as u64);
    let r = match strategy {
        SearchStrategy::Exhaustive | SearchStrategy::ContinuousBrent => {
            // The weighted objective has no precomputed continuous form;
            // fall back to the exact scan (the domain is small).
            exhaustive_max(1, hi as usize, f)
        }
        SearchStrategy::EndpointGolden => golden_section_max(1, hi as usize, f),
    };
    let mut out = assemble(model, alpha, r.x as u64, r.evals);
    // `availability` reports the weighted objective for this variant.
    out.availability = r.value;
    out
}

/// Smallest `q_r` in the domain whose paired write quorum meets the floor:
/// `W(T − q_r + 1) ≥ min_write`. `None` if infeasible everywhere.
pub fn min_read_quorum_for_write_floor(model: &AvailabilityModel, min_write: f64) -> Option<u64> {
    let total = model.total_votes();
    let hi = domain_hi(model);
    let feasible = |q_r: u64| model.write_availability(total - q_r + 1) >= min_write;
    if !feasible(hi) {
        return None;
    }
    // Binary search the monotone boundary.
    let (mut lo, mut hi_b) = (1u64, hi);
    while lo < hi_b {
        let mid = lo + (hi_b - lo) / 2;
        if feasible(mid) {
            hi_b = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
}

/// All `q_r` whose availability is within `tolerance` of the optimum —
/// the set a measurement with CI half-width `tolerance` cannot
/// distinguish from the argmax. §5.3's "maxima at the endpoints" claims
/// are really statements about this set (flat tops on dense topologies
/// make the strict argmax noise).
pub fn optimal_set(model: &AvailabilityModel, alpha: f64, tolerance: f64) -> Vec<u64> {
    assert!(tolerance >= 0.0, "tolerance must be non-negative");
    let hi = domain_hi(model);
    let best = optimal_quorum(model, alpha, SearchStrategy::Exhaustive).availability;
    (1..=hi)
        .filter(|&q| model.availability(alpha, q) >= best - tolerance)
        .collect()
}

fn domain_hi(model: &AvailabilityModel) -> u64 {
    let t = model.total_votes();
    if t == 1 {
        1
    } else {
        t / 2
    }
}

fn optimal_in_range(
    model: &AvailabilityModel,
    alpha: f64,
    strategy: SearchStrategy,
    lo: u64,
    hi: u64,
) -> OptimalAssignment {
    let f = |q: usize| model.availability(alpha, q as u64);
    let r = match strategy {
        SearchStrategy::Exhaustive => exhaustive_max(lo as usize, hi as usize, f),
        SearchStrategy::EndpointGolden => golden_section_max(lo as usize, hi as usize, f),
        SearchStrategy::ContinuousBrent => return brent_in_range(model, alpha, lo, hi),
    };
    assemble(model, alpha, r.x as u64, r.evals)
}

/// §4.1's continuous route: linearly interpolate `A` between integer
/// `q_r` values, maximize with Brent, then examine the endpoints and the
/// integers bracketing the continuous argmax.
fn brent_in_range(model: &AvailabilityModel, alpha: f64, lo: u64, hi: u64) -> OptimalAssignment {
    let fi = |q: usize| model.availability(alpha, q as u64);
    if hi - lo <= 2 {
        let r = exhaustive_max(lo as usize, hi as usize, fi);
        return assemble(model, alpha, r.x as u64, r.evals);
    }
    let fc = |x: f64| {
        let x = x.clamp(lo as f64, hi as f64);
        let a = x.floor() as usize;
        let b = x.ceil() as usize;
        if a == b {
            fi(a)
        } else {
            let t = x - a as f64;
            (1.0 - t) * fi(a) + t * fi(b)
        }
    };
    let peak = brent_max(lo as f64, hi as f64, 0.25, fc);
    let mut evals = peak.evals;
    let mut candidates = vec![lo, hi];
    let center = peak.x.round() as i64;
    for d in -1..=1 {
        let q = center + d;
        if q >= lo as i64 && q <= hi as i64 {
            candidates.push(q as u64);
        }
    }
    candidates.sort_unstable();
    candidates.dedup();
    let mut best = (candidates[0], f64::MIN);
    for &q in &candidates {
        evals += 1;
        let v = fi(q as usize);
        if v > best.1 {
            best = (q, v);
        }
    }
    assemble(model, alpha, best.0, evals)
}

#[cfg(test)]
impl OptimalAssignment {
    /// Adds the search's objective-evaluation count to a registry under
    /// [`quorum_obs::keys::OPTIMIZER_EVALUATIONS`], so argmax sweeps can
    /// report total optimizer work alongside their wall-clock.
    fn observe_into(&self, registry: &quorum_obs::Registry) {
        registry.add(
            quorum_obs::keys::OPTIMIZER_EVALUATIONS,
            self.evaluations as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_stats::DiscreteDist;

    /// Model on T = 10 with component votes concentrated high: large
    /// components are common, so tight quorums are cheap.
    fn high_mass_model() -> AvailabilityModel {
        let d = DiscreteDist::from_pmf(vec![
            0.04, 0.0, 0.0, 0.0, 0.01, 0.02, 0.03, 0.05, 0.15, 0.3, 0.4,
        ]);
        AvailabilityModel::from_mixtures(&d, &d)
    }

    /// Model where components are tiny: only loose read quorums succeed.
    fn low_mass_model() -> AvailabilityModel {
        let d = DiscreteDist::from_pmf(vec![
            0.04, 0.4, 0.3, 0.15, 0.05, 0.03, 0.02, 0.01, 0.0, 0.0, 0.0,
        ]);
        AvailabilityModel::from_mixtures(&d, &d)
    }

    #[test]
    fn all_reads_prefer_q_r_one_when_components_small() {
        let m = low_mass_model();
        let opt = optimal_quorum(&m, 1.0, SearchStrategy::Exhaustive);
        assert_eq!(opt.spec.q_r(), 1);
        assert!((opt.availability - m.read_availability(1)).abs() < 1e-12);
    }

    #[test]
    fn all_writes_prefer_majority_end() {
        // α = 0: A = W(T − q_r + 1), non-decreasing in q_r → max at ⌊T/2⌋.
        let m = high_mass_model();
        let opt = optimal_quorum(&m, 0.0, SearchStrategy::Exhaustive);
        assert_eq!(opt.spec.q_r(), 5);
        assert_eq!(opt.spec.q_w(), 6);
    }

    #[test]
    fn brent_agrees_with_exhaustive_on_paper_like_curves() {
        for model in [high_mass_model(), low_mass_model()] {
            for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let e = optimal_quorum(&model, alpha, SearchStrategy::Exhaustive);
                let b = optimal_quorum(&model, alpha, SearchStrategy::ContinuousBrent);
                assert!(
                    (e.availability - b.availability).abs() < 1e-12,
                    "α = {alpha}: exhaustive {} vs brent {}",
                    e.availability,
                    b.availability
                );
            }
        }
    }

    #[test]
    fn brent_handles_tiny_domains() {
        let d = DiscreteDist::from_pmf(vec![0.2, 0.3, 0.25, 0.15, 0.1]); // T = 4
        let m = AvailabilityModel::from_mixtures(&d, &d);
        let e = optimal_quorum(&m, 0.6, SearchStrategy::Exhaustive);
        let b = optimal_quorum(&m, 0.6, SearchStrategy::ContinuousBrent);
        assert_eq!(e.spec, b.spec);
    }

    #[test]
    fn golden_agrees_with_exhaustive_on_paper_like_curves() {
        for model in [high_mass_model(), low_mass_model()] {
            for alpha in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let e = optimal_quorum(&model, alpha, SearchStrategy::Exhaustive);
                let g = optimal_quorum(&model, alpha, SearchStrategy::EndpointGolden);
                assert!(
                    (e.availability - g.availability).abs() < 1e-12,
                    "α = {alpha}: exhaustive {} vs golden {}",
                    e.availability,
                    g.availability
                );
            }
        }
    }

    #[test]
    fn evaluations_accumulate_in_registry() {
        let m = high_mass_model();
        let r = quorum_obs::Registry::new();
        let mut total = 0u64;
        for alpha in [0.0, 0.5, 1.0] {
            let opt = optimal_quorum(&m, alpha, SearchStrategy::Exhaustive);
            opt.observe_into(&r);
            total += opt.evaluations as u64;
        }
        assert!(total > 0);
        assert_eq!(
            r.snapshot()
                .counter(quorum_obs::keys::OPTIMIZER_EVALUATIONS),
            total
        );
    }

    #[test]
    fn optimum_value_dominates_all_choices() {
        let m = high_mass_model();
        for alpha in [0.1, 0.33, 0.9] {
            let opt = optimal_quorum(&m, alpha, SearchStrategy::Exhaustive);
            for q in 1..=5u64 {
                assert!(opt.availability >= m.availability(alpha, q) - 1e-15);
            }
        }
    }

    #[test]
    fn write_floor_restricts_domain() {
        // Low-mass model at α = 1 would pick q_r = 1 (q_w = 10, W ≈ 0).
        let m = low_mass_model();
        let unconstrained = optimal_quorum(&m, 1.0, SearchStrategy::Exhaustive);
        assert_eq!(unconstrained.spec.q_r(), 1);
        assert!(unconstrained.write_availability < 0.01);

        // Demand W ≥ 0.02: forces a larger q_r (smaller q_w). The best
        // write availability this model can offer is W(6) = 0.03.
        let constrained =
            optimal_with_write_floor(&m, 1.0, 0.02, SearchStrategy::Exhaustive).unwrap();
        assert!(constrained.spec.q_r() > 1);
        assert!(constrained.write_availability >= 0.02);
        assert!(constrained.availability <= unconstrained.availability);
    }

    #[test]
    fn write_floor_infeasible_returns_none() {
        let m = low_mass_model();
        // Even the loosest write quorum (q_w = 6) is rarely met.
        let res = optimal_with_write_floor(&m, 0.5, 0.99, SearchStrategy::Exhaustive);
        assert!(res.is_none());
    }

    #[test]
    fn min_read_quorum_boundary_is_exact() {
        let m = low_mass_model();
        let floor = 0.02;
        let q_min = min_read_quorum_for_write_floor(&m, floor).unwrap();
        let t = m.total_votes();
        assert!(m.write_availability(t - q_min + 1) >= floor);
        if q_min > 1 {
            assert!(m.write_availability(t - (q_min - 1) + 1) < floor);
        }
    }

    #[test]
    fn trivial_write_floor_equals_unconstrained() {
        let m = high_mass_model();
        let a = optimal_quorum(&m, 0.5, SearchStrategy::Exhaustive);
        let b = optimal_with_write_floor(&m, 0.5, 0.0, SearchStrategy::Exhaustive).unwrap();
        assert_eq!(a.spec, b.spec);
    }

    #[test]
    fn weighted_omega_zero_optimizes_reads_only() {
        let m = low_mass_model();
        let opt = optimal_weighted(&m, 0.0, 0.5, SearchStrategy::Exhaustive);
        // Objective reduces to α·R(q_r), maximized at q_r = 1.
        assert_eq!(opt.spec.q_r(), 1);
    }

    #[test]
    fn weighted_large_omega_optimizes_writes() {
        let m = high_mass_model();
        let opt = optimal_weighted(&m, 100.0, 0.9, SearchStrategy::Exhaustive);
        assert_eq!(opt.spec.q_r(), 5, "write term dominates → majority end");
    }

    #[test]
    fn reported_read_write_availabilities_consistent() {
        let m = high_mass_model();
        let opt = optimal_quorum(&m, 0.75, SearchStrategy::Exhaustive);
        let manual = 0.75 * opt.read_availability + 0.25 * opt.write_availability;
        assert!((opt.availability - manual).abs() < 1e-12);
        assert_eq!(opt.spec.q_r() + opt.spec.q_w(), m.total_votes() + 1);
    }

    #[test]
    fn optimal_set_contains_argmax_and_respects_tolerance() {
        let m = high_mass_model();
        for alpha in [0.0, 0.5, 1.0] {
            let opt = optimal_quorum(&m, alpha, SearchStrategy::Exhaustive);
            let set = optimal_set(&m, alpha, 0.005);
            assert!(set.contains(&opt.spec.q_r()));
            for &q in &set {
                assert!(m.availability(alpha, q) >= opt.availability - 0.005);
            }
            // Zero tolerance: only exact ties remain.
            let exact = optimal_set(&m, alpha, 0.0);
            for &q in &exact {
                assert!((m.availability(alpha, q) - opt.availability).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn flat_model_has_full_optimal_set() {
        // Point mass at T: every q_r in the domain gives A = α (reads
        // always, writes always) — wait, writes need q_w = T−q+1 ≤ T ✓
        // always granted too, so A = 1 everywhere: the whole domain ties.
        let d = DiscreteDist::point_mass(10, 10);
        let m = AvailabilityModel::from_mixtures(&d, &d);
        let set = optimal_set(&m, 0.5, 0.0);
        assert_eq!(set, (1..=5).collect::<Vec<u64>>());
    }

    #[test]
    fn single_vote_system_degenerates() {
        let d = DiscreteDist::from_pmf(vec![0.2, 0.8]); // T = 1
        let m = AvailabilityModel::from_mixtures(&d, &d);
        let opt = optimal_quorum(&m, 0.5, SearchStrategy::Exhaustive);
        assert_eq!((opt.spec.q_r(), opt.spec.q_w()), (1, 1));
        assert!((opt.availability - 0.8).abs() < 1e-12);
    }
}
