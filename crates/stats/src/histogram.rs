//! On-line estimators of the component-size density `f_i(v)`.
//!
//! §4.2 of the paper observes that computing `f_i` exactly is #P-complete in
//! general graphs, but that a site can approximate it "based upon past
//! performance": every time site `i` communicates with its component it
//! records the total number of votes it can reach, and the empirical
//! histogram of those observations approaches `f_i(v)`.
//!
//! Two estimators are provided:
//!
//! * [`CountingHistogram`] — plain event counting; converges fastest in a
//!   stationary system.
//! * [`DecayedHistogram`] — exponentially-decayed counting; tracks
//!   *temporal* changes (shifting access patterns, periodic failures) and is
//!   the natural estimator for the dynamic quorum-reassignment protocol of
//!   §4.3, which wants recent history to dominate.

use crate::discrete::DiscreteDist;

/// Common interface of the `f_i(v)` estimators.
pub trait VoteHistogram {
    /// Records one observation: the site saw `votes` reachable votes.
    fn record(&mut self, votes: usize);

    /// Number of (possibly weighted) observations recorded so far.
    fn weight(&self) -> f64;

    /// Current estimate of `f_i` as a normalized distribution.
    ///
    /// # Panics
    /// Panics if nothing has been recorded yet.
    fn estimate(&self) -> DiscreteDist;
}

/// Plain counting estimator of `f_i(v)`.
#[derive(Debug, Clone)]
pub struct CountingHistogram {
    counts: Vec<u64>,
    observations: u64,
}

impl CountingHistogram {
    /// Creates an empty histogram over vote counts `0..=total_votes`.
    pub fn new(total_votes: usize) -> Self {
        Self {
            counts: vec![0; total_votes + 1],
            observations: 0,
        }
    }

    /// Number of observations.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Merges another histogram over the same support into this one.
    ///
    /// Used when aggregating per-batch histograms collected on worker
    /// threads.
    ///
    /// # Panics
    /// Panics if the supports differ.
    pub fn merge(&mut self, other: &CountingHistogram) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram supports must match"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.observations += other.observations;
    }
}

impl VoteHistogram for CountingHistogram {
    fn record(&mut self, votes: usize) {
        assert!(
            votes < self.counts.len(),
            "observation {votes} outside support 0..{}",
            self.counts.len()
        );
        self.counts[votes] += 1;
        self.observations += 1;
    }

    fn weight(&self) -> f64 {
        self.observations as f64
    }

    fn estimate(&self) -> DiscreteDist {
        assert!(self.observations > 0, "no observations recorded");
        let n = self.observations as f64;
        DiscreteDist::from_pmf(self.counts.iter().map(|&c| c as f64 / n).collect())
    }
}

/// Exponentially-decayed estimator of `f_i(v)`.
///
/// Each recorded observation first multiplies all existing mass by the decay
/// factor `λ ∈ (0, 1]`, then adds unit mass at the observed vote count. The
/// effective memory is `1/(1 − λ)` observations; `λ = 1` degenerates to
/// plain counting.
#[derive(Debug, Clone)]
pub struct DecayedHistogram {
    mass: Vec<f64>,
    total: f64,
    decay: f64,
}

impl DecayedHistogram {
    /// Creates an empty decayed histogram with decay factor `decay`.
    ///
    /// # Panics
    /// Panics unless `0 < decay <= 1`.
    pub fn new(total_votes: usize, decay: f64) -> Self {
        assert!(
            decay > 0.0 && decay <= 1.0,
            "decay must lie in (0, 1], got {decay}"
        );
        Self {
            mass: vec![0.0; total_votes + 1],
            total: 0.0,
            decay,
        }
    }
}

impl VoteHistogram for DecayedHistogram {
    fn record(&mut self, votes: usize) {
        assert!(
            votes < self.mass.len(),
            "observation {votes} outside support 0..{}",
            self.mass.len()
        );
        if self.decay < 1.0 {
            for m in &mut self.mass {
                *m *= self.decay;
            }
            self.total *= self.decay;
        }
        self.mass[votes] += 1.0;
        self.total += 1.0;
    }

    fn weight(&self) -> f64 {
        self.total
    }

    fn estimate(&self) -> DiscreteDist {
        assert!(self.total > 0.0, "no observations recorded");
        DiscreteDist::from_pmf(self.mass.iter().map(|&m| m / self.total).collect())
    }
}

#[cfg(test)]
impl CountingHistogram {
    /// Raw counts per vote value.
    fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
impl DecayedHistogram {
    /// Effective number of remembered observations, `1/(1−λ)` in the limit.
    fn effective_window(&self) -> f64 {
        if self.decay >= 1.0 {
            f64::INFINITY
        } else {
            1.0 / (1.0 - self.decay)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_estimate_matches_frequencies() {
        let mut h = CountingHistogram::new(4);
        for v in [0, 1, 1, 2, 2, 2, 4, 4] {
            h.record(v);
        }
        let d = h.estimate();
        assert!((d.pmf(0) - 1.0 / 8.0).abs() < 1e-12);
        assert!((d.pmf(1) - 2.0 / 8.0).abs() < 1e-12);
        assert!((d.pmf(2) - 3.0 / 8.0).abs() < 1e-12);
        assert!((d.pmf(3) - 0.0).abs() < 1e-12);
        assert!((d.pmf(4) - 2.0 / 8.0).abs() < 1e-12);
        assert!((d.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counting_merge_adds_counts() {
        let mut a = CountingHistogram::new(3);
        let mut b = CountingHistogram::new(3);
        a.record(1);
        a.record(2);
        b.record(2);
        b.record(3);
        a.merge(&b);
        assert_eq!(a.observations(), 4);
        assert_eq!(a.counts(), &[0, 1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "no observations")]
    fn empty_counting_estimate_panics() {
        CountingHistogram::new(3).estimate();
    }

    #[test]
    fn decay_one_equals_counting() {
        let mut c = CountingHistogram::new(5);
        let mut d = DecayedHistogram::new(5, 1.0);
        for v in [5, 0, 3, 3, 2] {
            c.record(v);
            d.record(v);
        }
        assert!(c.estimate().max_abs_diff(&d.estimate()) < 1e-12);
    }

    #[test]
    fn decayed_histogram_forgets_old_regime() {
        let mut h = DecayedHistogram::new(10, 0.9);
        // Old regime: always 2 votes.
        for _ in 0..200 {
            h.record(2);
        }
        // New regime: always 8 votes.
        for _ in 0..200 {
            h.record(8);
        }
        let d = h.estimate();
        assert!(
            d.pmf(8) > 0.999,
            "new regime should dominate, got P[8] = {}",
            d.pmf(8)
        );
    }

    #[test]
    fn counting_histogram_never_forgets() {
        let mut h = CountingHistogram::new(10);
        for _ in 0..200 {
            h.record(2);
        }
        for _ in 0..200 {
            h.record(8);
        }
        let d = h.estimate();
        assert!((d.pmf(2) - 0.5).abs() < 1e-12);
        assert!((d.pmf(8) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn effective_window() {
        assert!((DecayedHistogram::new(1, 0.99).effective_window() - 100.0).abs() < 1e-9);
        assert!(DecayedHistogram::new(1, 1.0)
            .effective_window()
            .is_infinite());
    }

    #[test]
    #[should_panic(expected = "decay must lie")]
    fn zero_decay_rejected() {
        DecayedHistogram::new(3, 0.0);
    }

    #[test]
    #[should_panic(expected = "outside support")]
    fn out_of_range_observation_rejected() {
        let mut h = CountingHistogram::new(3);
        h.record(4);
    }
}
