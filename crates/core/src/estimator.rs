//! On-line estimation of the per-site densities `f_i(v)` (§4.2).
//!
//! Exact computation of `f_i` is #P-complete in general graphs, but each
//! site can approximate its own density from observation: "periodically,
//! each site `s_i` queries every site with which it can communicate,
//! recording the total number of votes possessed by all the sites in its
//! component" — or simply piggy-backs on the vote collection it already
//! performs for consistency control. [`SiteEstimators`] is that bank of
//! per-site histograms, generic over the forgetting policy
//! ([`quorum_stats::CountingHistogram`] or
//! [`quorum_stats::DecayedHistogram`]). The replica simulators feed it
//! through their access observer.
//!
//! Footnote 4 of the paper: because a *down* site records nothing,
//! densities estimated this way condition on the submitting site being up,
//! yielding `A' = A / p`. The argmax over `q_r` is unchanged, so the
//! optimizer can run directly on these estimates. A simulator, unlike a
//! real site, *can* observe its own down state: it records a down site as
//! a zero-vote observation, and the bank then estimates `A` directly.

use crate::availability::AvailabilityModel;
use quorum_stats::{CountingHistogram, DecayedHistogram, DiscreteDist, VoteHistogram};

/// A bank of per-site `f_i` estimators.
///
/// # Examples
/// ```
/// use quorum_core::SiteEstimators;
///
/// let mut est = SiteEstimators::counting(2, 5);
/// est.record(0, 5); // site 0 saw the full component
/// est.record(0, 5);
/// est.record(1, 2); // site 1 was partitioned off
/// est.record(1, 0); // ...and later down
/// let f0 = est.density(0);
/// assert_eq!(f0.pmf(5), 1.0);
/// let model = est.model_uniform();
/// assert!(model.read_availability(2) > 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct SiteEstimators<H: VoteHistogram> {
    sites: Vec<H>,
}

impl SiteEstimators<CountingHistogram> {
    /// Counting (never-forgetting) estimators — fastest convergence in a
    /// stationary system.
    pub fn counting(n_sites: usize, total_votes: usize) -> Self {
        Self {
            sites: (0..n_sites)
                .map(|_| CountingHistogram::new(total_votes))
                .collect(),
        }
    }
}

impl SiteEstimators<DecayedHistogram> {
    /// Exponentially-decayed estimators — track regime changes, suitable
    /// for driving the dynamic QR protocol (§4.3).
    pub fn decayed(n_sites: usize, total_votes: usize, decay: f64) -> Self {
        Self {
            sites: (0..n_sites)
                .map(|_| DecayedHistogram::new(total_votes, decay))
                .collect(),
        }
    }
}

impl<H: VoteHistogram> SiteEstimators<H> {
    /// Records that `site` observed `votes` reachable votes (0 if it is
    /// down, when the recorder can tell).
    pub fn record(&mut self, site: usize, votes: u64) {
        self.sites[site].record(votes as usize);
    }

    /// (Weighted) observation count at `site`.
    pub fn weight(&self, site: usize) -> f64 {
        self.sites[site].weight()
    }

    /// Current `f̂_i` for one site.
    ///
    /// # Panics
    /// Panics if the site has no observations yet.
    pub fn density(&self, site: usize) -> DiscreteDist {
        self.sites[site].estimate()
    }

    /// All per-site densities.
    pub fn densities(&self) -> Vec<DiscreteDist> {
        self.sites.iter().map(|h| h.estimate()).collect()
    }

    /// Builds the availability model for given access distributions
    /// (`r_i`, `w_i`), i.e. steps 1–3 of Figure 1 with estimated `f_i`.
    pub fn model(&self, read_frac: &[f64], write_frac: &[f64]) -> AvailabilityModel {
        AvailabilityModel::from_site_densities(&self.densities(), read_frac, write_frac)
    }

    /// Model under uniform access (`r_i = w_i = 1/n`).
    pub fn model_uniform(&self) -> AvailabilityModel {
        AvailabilityModel::uniform_access(&self.densities())
    }
}

#[cfg(test)]
impl SiteEstimators<CountingHistogram> {
    /// Merges another bank's observations (e.g. from a parallel batch).
    ///
    /// # Panics
    /// Panics if dimensions differ.
    fn merge(&mut self, other: &SiteEstimators<CountingHistogram>) {
        assert_eq!(self.sites.len(), other.sites.len(), "site counts differ");
        for (a, b) in self.sites.iter_mut().zip(&other.sites) {
            a.merge(b);
        }
    }
}

#[cfg(test)]
impl<H: VoteHistogram> SiteEstimators<H> {
    /// Records that `site` was down (a zero-vote component, §5.2's
    /// convention). Only a simulator or an external observer can log this;
    /// see the module docs on `A` vs `A'`.
    fn record_down(&mut self, site: usize) {
        self.record(site, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::{optimal_quorum, SearchStrategy};

    #[test]
    fn record_and_estimate_roundtrip() {
        let mut est = SiteEstimators::counting(3, 10);
        est.record(0, 10);
        est.record(0, 10);
        est.record(0, 5);
        let d = est.density(0);
        assert!((d.pmf(10) - 2.0 / 3.0).abs() < 1e-12);
        assert!((d.pmf(5) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(est.weight(0), 3.0);
    }

    #[test]
    fn record_down_adds_zero_mass() {
        let mut est = SiteEstimators::counting(1, 4);
        est.record(0, 4);
        est.record_down(0);
        let d = est.density(0);
        assert!((d.pmf(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn estimated_model_recovers_known_density() {
        // Feed samples from a known distribution; the estimated optimizer
        // must agree with the true one.
        use quorum_stats::rng::rng_from_seed;
        use rand::Rng;
        let truth = DiscreteDist::from_pmf(vec![0.04, 0.1, 0.2, 0.3, 0.2, 0.1, 0.03, 0.03]);
        let mut est = SiteEstimators::counting(2, 7);
        let mut rng = rng_from_seed(8);
        for _ in 0..60_000 {
            // Inverse-CDF sample.
            let u: f64 = rng.random();
            let mut acc = 0.0;
            let mut v = 0usize;
            for k in 0..=7 {
                acc += truth.pmf(k);
                if u < acc {
                    v = k;
                    break;
                }
            }
            est.record(0, v as u64);
            est.record(1, v as u64);
        }
        let true_model = AvailabilityModel::from_mixtures(&truth, &truth);
        let est_model = est.model_uniform();
        for alpha in [0.0, 0.5, 1.0] {
            let a = optimal_quorum(&true_model, alpha, SearchStrategy::Exhaustive);
            let b = optimal_quorum(&est_model, alpha, SearchStrategy::Exhaustive);
            assert_eq!(a.spec.q_r(), b.spec.q_r(), "α = {alpha}");
            assert!((a.availability - b.availability).abs() < 0.02);
        }
    }

    #[test]
    fn decayed_estimators_adapt() {
        let mut est = SiteEstimators::decayed(1, 10, 0.95);
        for _ in 0..500 {
            est.record(0, 2);
        }
        for _ in 0..500 {
            est.record(0, 9);
        }
        let d = est.density(0);
        assert!(d.pmf(9) > 0.99, "recent regime dominates: {}", d.pmf(9));
    }

    #[test]
    fn per_site_densities_are_independent() {
        let mut est = SiteEstimators::counting(2, 5);
        est.record(0, 5);
        est.record(1, 1);
        assert!((est.density(0).pmf(5) - 1.0).abs() < 1e-12);
        assert!((est.density(1).pmf(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn model_with_skewed_access() {
        let mut est = SiteEstimators::counting(2, 4);
        est.record(0, 4); // site 0 always sees everything
        est.record(1, 1); // site 1 always isolated
        let m = est.model(&[1.0, 0.0], &[0.0, 1.0]);
        assert_eq!(m.read_availability(4), 1.0);
        assert_eq!(m.write_availability(4), 0.0);
    }

    #[test]
    #[should_panic(expected = "no observations")]
    fn empty_site_density_panics() {
        SiteEstimators::counting(2, 4).density(0);
    }

    #[test]
    fn merge_combines_observations() {
        let mut a = SiteEstimators::counting(2, 4);
        let mut b = SiteEstimators::counting(2, 4);
        a.record(0, 4);
        b.record(0, 2);
        b.record(1, 3);
        a.merge(&b);
        assert_eq!(a.weight(0), 2.0);
        assert_eq!(a.weight(1), 1.0);
        assert!((a.density(0).pmf(4) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "site counts differ")]
    fn merge_dimension_mismatch_panics() {
        let mut a = SiteEstimators::counting(2, 4);
        let b = SiteEstimators::counting(3, 4);
        a.merge(&b);
    }
}
