//! Discrete probability distributions over vote counts.
//!
//! The paper expresses everything in terms of densities over the number of
//! votes `v` in the network component containing a site: `f_i(v)` for site
//! `i`, and the mixtures `r(v) = Σ r_i f_i(v)` and `w(v) = Σ w_i f_i(v)`.
//! All of these are finitely supported on `0..=T` where `T` is the total
//! number of votes, so a dense `Vec<f64>` is the natural representation.

/// A probability mass function supported on `0..=T` (vote counts).
///
/// Invariant: `pmf.len() == T + 1` and entries are non-negative. The mass
/// need not sum to exactly one (empirical estimates carry rounding error);
/// [`DiscreteDist::normalized`] re-scales when exactness matters.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteDist {
    pmf: Vec<f64>,
}

impl DiscreteDist {
    /// Creates a distribution from raw masses over `0..=T`.
    ///
    /// # Panics
    /// Panics if `pmf` is empty or contains a negative or non-finite entry.
    pub fn from_pmf(pmf: Vec<f64>) -> Self {
        assert!(!pmf.is_empty(), "pmf must cover at least v = 0");
        for (v, &m) in pmf.iter().enumerate() {
            assert!(
                m.is_finite() && m >= 0.0,
                "pmf[{v}] = {m} must be finite and non-negative"
            );
        }
        Self { pmf }
    }

    /// The point mass `δ_v` on support `0..=total`.
    pub fn point_mass(v: usize, total: usize) -> Self {
        assert!(v <= total, "point {v} outside support 0..={total}");
        let mut pmf = vec![0.0; total + 1];
        pmf[v] = 1.0;
        Self { pmf }
    }

    /// The uniform distribution on `0..=total`.
    pub fn uniform(total: usize) -> Self {
        let n = total + 1;
        Self {
            pmf: vec![1.0 / n as f64; n],
        }
    }

    /// Largest vote count in the support range (i.e. `T`).
    pub fn max_votes(&self) -> usize {
        self.pmf.len() - 1
    }

    /// Probability mass at exactly `v` votes (0 outside the support).
    pub fn pmf(&self, v: usize) -> f64 {
        self.pmf.get(v).copied().unwrap_or(0.0)
    }

    /// Raw access to the mass vector.
    pub fn as_slice(&self) -> &[f64] {
        &self.pmf
    }

    /// Total mass (should be ≈ 1 for a proper distribution).
    pub fn total_mass(&self) -> f64 {
        self.pmf.iter().sum()
    }

    /// Returns a copy rescaled to total mass one.
    ///
    /// # Panics
    /// Panics if the total mass is zero.
    pub fn normalized(&self) -> Self {
        let s = self.total_mass();
        assert!(s > 0.0, "cannot normalize a zero distribution");
        Self {
            pmf: self.pmf.iter().map(|m| m / s).collect(),
        }
    }

    /// Upper tail `P[V ≥ v]`, the quantity `Σ_{k=v}^{T} f(k)` used
    /// throughout the availability function.
    pub fn tail_sum(&self, v: usize) -> f64 {
        if v >= self.pmf.len() {
            return 0.0;
        }
        self.pmf[v..].iter().sum()
    }

    /// Precomputes every upper tail sum; `tails[v] = P[V ≥ v]` for
    /// `v ∈ 0..=T+1` (the final entry is zero). Evaluating availability for
    /// all `q_r` then costs O(1) per query instead of O(T).
    pub fn tail_table(&self) -> Vec<f64> {
        let mut tails = vec![0.0; self.pmf.len() + 1];
        for v in (0..self.pmf.len()).rev() {
            tails[v] = tails[v + 1] + self.pmf[v];
        }
        tails
    }

    /// Mean number of votes.
    pub fn mean(&self) -> f64 {
        self.pmf
            .iter()
            .enumerate()
            .map(|(v, &m)| v as f64 * m)
            .sum()
    }

    /// Pointwise convex mixture `Σ weights[i] · dists[i]`.
    ///
    /// This is exactly step 2 of the paper's algorithm: given per-site
    /// densities `f_i` and submission fractions `r_i`, the mixture is
    /// `r(v) = Σ_i r_i f_i(v)`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths, are empty, or the
    /// distributions have differing supports.
    pub fn mixture(dists: &[DiscreteDist], weights: &[f64]) -> Self {
        assert_eq!(dists.len(), weights.len(), "one weight per distribution");
        assert!(!dists.is_empty(), "mixture of nothing");
        let n = dists[0].pmf.len();
        let mut pmf = vec![0.0; n];
        for (d, &w) in dists.iter().zip(weights) {
            assert_eq!(d.pmf.len(), n, "all mixture components must share support");
            assert!(w >= 0.0, "mixture weights must be non-negative");
            for (acc, &m) in pmf.iter_mut().zip(&d.pmf) {
                *acc += w * m;
            }
        }
        Self { pmf }
    }

    /// L∞ distance between two distributions on the same support.
    pub fn max_abs_diff(&self, other: &DiscreteDist) -> f64 {
        assert_eq!(self.pmf.len(), other.pmf.len(), "supports must match");
        self.pmf
            .iter()
            .zip(&other.pmf)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Total-variation distance `½ Σ |p − q|`.
    pub fn total_variation(&self, other: &DiscreteDist) -> f64 {
        assert_eq!(self.pmf.len(), other.pmf.len(), "supports must match");
        0.5 * self
            .pmf
            .iter()
            .zip(&other.pmf)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }
}

#[cfg(test)]
impl DiscreteDist {
    /// Cumulative `P[V ≤ v]`.
    fn cdf(&self, v: usize) -> f64 {
        let end = (v + 1).min(self.pmf.len());
        self.pmf[..end].iter().sum()
    }

    /// Variance of the vote count.
    fn variance(&self) -> f64 {
        let mu = self.mean();
        self.pmf
            .iter()
            .enumerate()
            .map(|(v, &m)| (v as f64 - mu).powi(2) * m)
            .sum()
    }

    /// Smallest `v` with `P[V ≤ v] ≥ p` (generalized inverse CDF).
    ///
    /// # Panics
    /// Panics unless `0 < p <= 1` (and the distribution has positive
    /// mass).
    fn quantile(&self, p: f64) -> usize {
        assert!(p > 0.0 && p <= 1.0, "p must lie in (0,1], got {p}");
        let target = p * self.total_mass();
        let mut acc = 0.0;
        for (v, &m) in self.pmf.iter().enumerate() {
            acc += m;
            if acc >= target - 1e-15 {
                return v;
            }
        }
        self.pmf.len() - 1
    }

    /// Median vote count.
    fn median(&self) -> usize {
        self.quantile(0.5)
    }

    /// Kolmogorov–Smirnov distance `max_v |CDF_p(v) − CDF_q(v)|`.
    fn ks_distance(&self, other: &DiscreteDist) -> f64 {
        assert_eq!(self.pmf.len(), other.pmf.len(), "supports must match");
        let mut acc_a = 0.0;
        let mut acc_b = 0.0;
        let mut worst: f64 = 0.0;
        for v in 0..self.pmf.len() {
            acc_a += self.pmf[v];
            acc_b += other.pmf[v];
            worst = worst.max((acc_a - acc_b).abs());
        }
        worst
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn point_mass_has_unit_mass_at_point() {
        let d = DiscreteDist::point_mass(3, 5);
        assert_close(d.pmf(3), 1.0);
        assert_close(d.pmf(2), 0.0);
        assert_close(d.total_mass(), 1.0);
        assert_eq!(d.max_votes(), 5);
    }

    #[test]
    fn uniform_mass_sums_to_one() {
        let d = DiscreteDist::uniform(9);
        assert_close(d.total_mass(), 1.0);
        assert_close(d.pmf(0), 0.1);
        assert_close(d.pmf(9), 0.1);
    }

    #[test]
    fn tail_sum_matches_manual_sum() {
        let d = DiscreteDist::from_pmf(vec![0.1, 0.2, 0.3, 0.4]);
        assert_close(d.tail_sum(0), 1.0);
        assert_close(d.tail_sum(2), 0.7);
        assert_close(d.tail_sum(3), 0.4);
        assert_close(d.tail_sum(4), 0.0);
        assert_close(d.tail_sum(100), 0.0);
    }

    #[test]
    fn cdf_complements_tail() {
        let d = DiscreteDist::from_pmf(vec![0.1, 0.2, 0.3, 0.4]);
        for v in 0..4 {
            assert_close(d.cdf(v) + d.tail_sum(v + 1), 1.0);
        }
    }

    #[test]
    fn tail_table_matches_tail_sum() {
        let d = DiscreteDist::from_pmf(vec![0.05, 0.15, 0.25, 0.2, 0.35]);
        let t = d.tail_table();
        assert_eq!(t.len(), 6);
        for v in 0..6 {
            assert_close(t[v], d.tail_sum(v));
        }
    }

    #[test]
    fn mean_and_variance_of_point_mass() {
        let d = DiscreteDist::point_mass(4, 7);
        assert_close(d.mean(), 4.0);
        assert_close(d.variance(), 0.0);
    }

    #[test]
    fn mean_of_uniform() {
        let d = DiscreteDist::uniform(10);
        assert_close(d.mean(), 5.0);
    }

    #[test]
    fn quantiles_of_simple_distribution() {
        let d = DiscreteDist::from_pmf(vec![0.25, 0.25, 0.25, 0.25]);
        assert_eq!(d.quantile(0.25), 0);
        assert_eq!(d.quantile(0.26), 1);
        assert_eq!(d.median(), 1);
        assert_eq!(d.quantile(1.0), 3);
        let pm = DiscreteDist::point_mass(2, 5);
        assert_eq!(pm.median(), 2);
        assert_eq!(pm.quantile(0.01), 2);
    }

    #[test]
    #[should_panic(expected = "p must lie")]
    fn zero_quantile_rejected() {
        DiscreteDist::uniform(3).quantile(0.0);
    }

    #[test]
    fn mixture_of_point_masses() {
        let a = DiscreteDist::point_mass(1, 3);
        let b = DiscreteDist::point_mass(3, 3);
        let m = DiscreteDist::mixture(&[a, b], &[0.25, 0.75]);
        assert_close(m.pmf(1), 0.25);
        assert_close(m.pmf(3), 0.75);
        assert_close(m.total_mass(), 1.0);
    }

    #[test]
    fn normalized_rescales() {
        let d = DiscreteDist::from_pmf(vec![1.0, 3.0]).normalized();
        assert_close(d.pmf(0), 0.25);
        assert_close(d.pmf(1), 0.75);
    }

    #[test]
    fn distances_between_identical_dists_are_zero() {
        let d = DiscreteDist::uniform(5);
        assert_close(d.max_abs_diff(&d.clone()), 0.0);
        assert_close(d.total_variation(&d.clone()), 0.0);
    }

    #[test]
    fn ks_distance_properties() {
        let a = DiscreteDist::point_mass(0, 4);
        let b = DiscreteDist::point_mass(4, 4);
        assert_close(a.ks_distance(&b), 1.0);
        assert_close(a.ks_distance(&a.clone()), 0.0);
        // KS ≤ TV always.
        let c = DiscreteDist::from_pmf(vec![0.3, 0.2, 0.1, 0.2, 0.2]);
        let d = DiscreteDist::from_pmf(vec![0.1, 0.3, 0.3, 0.1, 0.2]);
        assert!(c.ks_distance(&d) <= c.total_variation(&d) + 1e-12);
    }

    #[test]
    fn total_variation_of_disjoint_point_masses_is_one() {
        let a = DiscreteDist::point_mass(0, 4);
        let b = DiscreteDist::point_mass(4, 4);
        assert_close(a.total_variation(&b), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mass_rejected() {
        DiscreteDist::from_pmf(vec![0.5, -0.1]);
    }

    #[test]
    #[should_panic(expected = "outside support")]
    fn point_mass_outside_support_rejected() {
        DiscreteDist::point_mass(6, 5);
    }
}
