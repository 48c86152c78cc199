//! The availability function `A(α, q_r)` (Figure 1, steps 2–3).
//!
//! Given per-site component-vote densities `f_i(v)` and submission
//! fractions `r_i`, `w_i`, form the mixtures
//!
//! ```text
//! r(v) = Σ_i r_i f_i(v)      w(v) = Σ_i w_i f_i(v)
//! ```
//!
//! then, with `q_w = T − q_r + 1`,
//!
//! ```text
//! A(α, q_r) = α · Σ_{k = q_r}^{T} r(k)  +  (1 − α) · Σ_{k = T − q_r + 1}^{T} w(k)
//!           = α · R(q_r)               +  (1 − α) · W(q_w).
//! ```
//!
//! `R(q_r)` is the probability an arbitrary read is granted and `W(q_w)`
//! the probability an arbitrary write is granted. The §5.4 variants —
//! write-weighted availability `A(ω, α, q)` and the write floor `A_w` —
//! are simple functions of the same two tails.

use quorum_stats::DiscreteDist;

/// Precomputed tail tables for evaluating `A(α, q_r)` in O(1) per query.
///
/// # Examples
/// ```
/// use quorum_core::AvailabilityModel;
/// use quorum_stats::DiscreteDist;
///
/// // Component always holds 6 of 10 votes.
/// let f = DiscreteDist::point_mass(6, 10);
/// let model = AvailabilityModel::from_mixtures(&f, &f);
/// // q_r = 5 pairs with q_w = 6: both quorums reachable → A = 1.
/// assert_eq!(model.availability(0.5, 5), 1.0);
/// // q_r = 4 pairs with q_w = 7 > 6: writes always fail.
/// assert_eq!(model.availability(0.0, 4), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct AvailabilityModel {
    /// `r_tail[v] = Σ_{k≥v} r(k)`.
    r_tail: Vec<f64>,
    /// `w_tail[v] = Σ_{k≥v} w(k)`.
    w_tail: Vec<f64>,
    /// Total votes `T`.
    total: u64,
}

impl AvailabilityModel {
    /// Builds the model from the read and write mixtures `r(v)`, `w(v)`.
    ///
    /// # Panics
    /// Panics if the supports differ or are empty.
    pub fn from_mixtures(r: &DiscreteDist, w: &DiscreteDist) -> Self {
        assert_eq!(
            r.max_votes(),
            w.max_votes(),
            "read and write mixtures must share the vote support"
        );
        assert!(r.max_votes() >= 1, "need at least one vote");
        Self {
            r_tail: r.tail_table(),
            w_tail: w.tail_table(),
            total: r.max_votes() as u64,
        }
    }

    /// Step 2 of the algorithm: builds the mixtures from per-site densities
    /// and access distributions, then the model.
    ///
    /// `read_frac[i]` = `r_i`, `write_frac[i]` = `w_i` (each should sum to
    /// one over sites).
    pub fn from_site_densities(
        densities: &[DiscreteDist],
        read_frac: &[f64],
        write_frac: &[f64],
    ) -> Self {
        for (name, frac) in [("read", read_frac), ("write", write_frac)] {
            let sum: f64 = frac.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "{name} fractions must sum to 1 (got {sum}); normalize the \
                 per-site weights before mixing"
            );
        }
        let r = DiscreteDist::mixture(densities, read_frac);
        let w = DiscreteDist::mixture(densities, write_frac);
        Self::from_mixtures(&r, &w)
    }

    /// Uniform access distribution (`r_i = w_i = 1/n`): `r(v) = w(v)`
    /// (noted in §4.1), so one mixture suffices.
    pub(crate) fn uniform_access(densities: &[DiscreteDist]) -> Self {
        let n = densities.len();
        let w = vec![1.0 / n as f64; n];
        Self::from_site_densities(densities, &w, &w)
    }

    /// Total votes `T`.
    pub fn total_votes(&self) -> u64 {
        self.total
    }

    /// `R(q_r)`: probability an arbitrary read collects `q_r` votes.
    pub fn read_availability(&self, q_r: u64) -> f64 {
        self.tail(&self.r_tail, q_r)
    }

    /// `W(q_w)`: probability an arbitrary write collects `q_w` votes.
    pub fn write_availability(&self, q_w: u64) -> f64 {
        self.tail(&self.w_tail, q_w)
    }

    /// `A(α, q_r)` with the tight pairing `q_w = T − q_r + 1` (step 3).
    ///
    /// # Panics
    /// Panics if `α ∉ [0,1]` or `q_r ∉ 1..=⌊T/2⌋` (the optimizer's domain;
    /// `T = 1` admits only `q_r = 1`).
    pub fn availability(&self, alpha: f64, q_r: u64) -> f64 {
        self.check_args(alpha, q_r);
        let q_w = self.total - q_r + 1;
        alpha * self.read_availability(q_r) + (1.0 - alpha) * self.write_availability(q_w)
    }

    /// §5.4's write-weighted availability
    /// `A(ω, α, q) = α·R(q) + ω·(1−α)·W(T−q+1)`.
    pub fn weighted_availability(&self, omega: f64, alpha: f64, q_r: u64) -> f64 {
        assert!(omega >= 0.0, "write weight must be non-negative");
        self.check_args(alpha, q_r);
        let q_w = self.total - q_r + 1;
        alpha * self.read_availability(q_r) + omega * (1.0 - alpha) * self.write_availability(q_w)
    }

    fn tail(&self, table: &[f64], v: u64) -> f64 {
        if v as usize >= table.len() {
            0.0
        } else {
            table[v as usize]
        }
    }

    fn check_args(&self, alpha: f64, q_r: u64) {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "α must lie in [0,1], got {alpha}"
        );
        let hi = if self.total == 1 { 1 } else { self.total / 2 };
        assert!(
            q_r >= 1 && q_r <= hi,
            "q_r = {q_r} outside 1..={hi} (T = {})",
            self.total
        );
    }
}

#[cfg(test)]
impl AvailabilityModel {
    /// Discrete forward difference `A(α, q_r+1) − A(α, q_r)` in closed
    /// form: `−α·r(q_r) + (1−α)·w(T−q_r+1)` — the derivative §4.1 says
    /// Brent's method can exploit (we expose it for diagnostics and for
    /// derivative-guided searches).
    fn availability_delta(&self, alpha: f64, q_r: u64) -> f64 {
        self.check_args(alpha, q_r);
        let q_w = self.total - q_r + 1;
        // r(q_r) = R(q_r) − R(q_r+1); w(q_w−1) = W(q_w−1) − W(q_w).
        let r_mass = self.read_availability(q_r) - self.read_availability(q_r + 1);
        let w_mass = self.write_availability(q_w - 1) - self.write_availability(q_w);
        -alpha * r_mass + (1.0 - alpha) * w_mass
    }

    /// Footnote 4: densities estimated on-line by operational sites yield
    /// `A'` (availability conditioned on the submitting site being up);
    /// `A = p·A'` where `p` is site reliability, so argmaxes coincide.
    /// This helper applies the scaling when absolute numbers are wanted.
    fn scale_conditional(availability_prime: f64, site_reliability: f64) -> f64 {
        assert!((0.0..=1.0).contains(&site_reliability));
        site_reliability * availability_prime
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A simple hand-checkable model: component always has exactly `k`
    /// votes with probability 1.
    fn point_model(k: usize, total: usize) -> AvailabilityModel {
        let d = DiscreteDist::point_mass(k, total);
        AvailabilityModel::from_mixtures(&d, &d)
    }

    #[test]
    fn point_mass_availability() {
        // Component always holds 6 of 10 votes.
        let m = point_model(6, 10);
        // Reads: granted iff q_r <= 6.
        assert_eq!(m.read_availability(6), 1.0);
        assert_eq!(m.read_availability(7), 0.0);
        // Writes: q_w = T - q_r + 1; with q_r = 5, q_w = 6 <= 6 → granted.
        assert_eq!(m.availability(0.0, 5), 1.0);
        // q_r = 4 → q_w = 7 > 6 → denied.
        assert_eq!(m.availability(0.0, 4), 0.0);
        // Mixed: α = .5, q_r = 4: reads succeed (4 ≤ 6), writes fail.
        assert_eq!(m.availability(0.5, 4), 0.5);
    }

    #[test]
    fn availability_formula_matches_manual_sum() {
        let r = DiscreteDist::from_pmf(vec![0.1, 0.2, 0.3, 0.25, 0.15]); // T = 4
        let w = DiscreteDist::from_pmf(vec![0.3, 0.3, 0.2, 0.1, 0.1]);
        let m = AvailabilityModel::from_mixtures(&r, &w);
        let alpha = 0.75;
        let q_r = 2u64;
        let q_w = 4 - q_r + 1; // 3
        let manual_r: f64 = (q_r as usize..=4).map(|k| r.pmf(k)).sum();
        let manual_w: f64 = (q_w as usize..=4).map(|k| w.pmf(k)).sum();
        let expect = alpha * manual_r + (1.0 - alpha) * manual_w;
        assert!((m.availability(alpha, q_r) - expect).abs() < 1e-12);
    }

    #[test]
    fn alpha_zero_is_pure_write_availability() {
        let m = point_model(8, 10);
        for q_r in 1..=5u64 {
            let q_w = 10 - q_r + 1;
            assert_eq!(
                m.availability(0.0, q_r),
                m.write_availability(q_w),
                "q_r {q_r}"
            );
        }
    }

    #[test]
    fn alpha_one_is_pure_read_availability() {
        let m = point_model(3, 10);
        for q_r in 1..=5u64 {
            assert_eq!(m.availability(1.0, q_r), m.read_availability(q_r));
        }
    }

    #[test]
    fn read_availability_monotone_in_q_r() {
        let d = DiscreteDist::from_pmf(vec![0.1; 10]).normalized();
        let m = AvailabilityModel::from_mixtures(&d, &d);
        for q in 1..9u64 {
            assert!(m.read_availability(q) >= m.read_availability(q + 1));
        }
    }

    #[test]
    fn uniform_access_makes_r_equal_w() {
        let f = vec![
            DiscreteDist::point_mass(1, 3),
            DiscreteDist::point_mass(2, 3),
            DiscreteDist::point_mass(3, 3),
        ];
        let m = AvailabilityModel::uniform_access(&f);
        for v in 0..=3u64 {
            assert!((m.read_availability(v) - m.write_availability(v)).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_availability_reduces_to_plain_at_omega_one() {
        let d = DiscreteDist::uniform(10);
        let m = AvailabilityModel::from_mixtures(&d, &d);
        for q_r in 1..=5u64 {
            assert!(
                (m.weighted_availability(1.0, 0.6, q_r) - m.availability(0.6, q_r)).abs() < 1e-12
            );
        }
    }

    #[test]
    fn weighted_availability_downweights_writes() {
        let d = DiscreteDist::uniform(10);
        let m = AvailabilityModel::from_mixtures(&d, &d);
        assert!(m.weighted_availability(0.5, 0.5, 3) < m.availability(0.5, 3));
        // ω = 0 ignores writes entirely.
        assert!(
            (m.weighted_availability(0.0, 0.5, 3) - 0.5 * m.read_availability(3)).abs() < 1e-12
        );
    }

    #[test]
    fn delta_matches_direct_difference() {
        let r = DiscreteDist::from_pmf(vec![
            0.1, 0.15, 0.2, 0.25, 0.1, 0.08, 0.05, 0.03, 0.02, 0.01, 0.01,
        ]);
        let m = AvailabilityModel::from_mixtures(&r, &r);
        for alpha in [0.0, 0.3, 0.8, 1.0] {
            for q in 1..5u64 {
                let direct = m.availability(alpha, q + 1) - m.availability(alpha, q);
                let closed = m.availability_delta(alpha, q);
                assert!(
                    (direct - closed).abs() < 1e-12,
                    "α={alpha} q={q}: {direct} vs {closed}"
                );
            }
        }
    }

    #[test]
    fn conditional_scaling() {
        assert!((AvailabilityModel::scale_conditional(0.75, 0.96) - 0.72).abs() < 1e-12);
    }

    #[test]
    fn skewed_access_distribution_weights_sites() {
        // Site 0 always sees 3 votes, site 1 always 1 vote; reads go to
        // site 0 only, writes to site 1 only.
        let f = vec![
            DiscreteDist::point_mass(3, 4),
            DiscreteDist::point_mass(1, 4),
        ];
        let m = AvailabilityModel::from_site_densities(&f, &[1.0, 0.0], &[0.0, 1.0]);
        assert_eq!(m.read_availability(2), 1.0); // reads see 3 ≥ 2
        assert_eq!(m.write_availability(2), 0.0); // writes see 1 < 2
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn q_r_above_half_rejected() {
        point_model(5, 10).availability(0.5, 6);
    }

    #[test]
    #[should_panic(expected = "α must lie")]
    fn bad_alpha_rejected() {
        point_model(5, 10).availability(1.5, 3);
    }

    #[test]
    #[should_panic(expected = "fractions must sum to 1")]
    fn unnormalized_fractions_rejected() {
        let f = vec![
            DiscreteDist::point_mass(1, 2),
            DiscreteDist::point_mass(2, 2),
        ];
        AvailabilityModel::from_site_densities(&f, &[1.0, 1.0], &[0.5, 0.5]);
    }
}
