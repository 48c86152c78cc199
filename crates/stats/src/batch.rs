//! Batch-means output analysis.
//!
//! The paper's simulator (§5.2) reports each availability figure as the
//! average over 5–18 independent batches of one million accesses each,
//! choosing the batch count so that a 95 % confidence interval has
//! half-width at most ±0.5 %. [`BatchMeans`] implements exactly that
//! accumulate-batches-until-tight loop; [`RunningStats`] is the underlying
//! Welford accumulator.

use crate::ci::ConfidenceInterval;

/// Numerically-stable running mean/variance accumulator (Welford's method).
#[derive(Debug, Clone, Default)]
pub(crate) struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub(crate) fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub(crate) fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub(crate) fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub(crate) fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub(crate) fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }
}

/// Lag-1 sample autocorrelation of a series.
///
/// Batch-means analysis assumes batches are (nearly) independent; this
/// diagnostic lets tests verify that derived-seed batches show no serial
/// correlation. Returns 0 for fewer than 3 samples or zero variance.
pub fn lag1_autocorrelation(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 3 {
        return 0.0;
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum();
    if var <= 0.0 {
        return 0.0;
    }
    let cov: f64 = samples
        .windows(2)
        .map(|w| (w[0] - mean) * (w[1] - mean))
        .sum();
    cov / var
}

/// Batch-means estimator with a target confidence-interval half-width.
///
/// Mirrors the paper's §5.2 methodology: keep adding independent batches
/// until the `confidence`-level Student-t interval around the mean has
/// half-width at most `target_half_width` (and at least `min_batches`
/// batches have been seen).
#[derive(Debug, Clone)]
pub struct BatchMeans {
    stats: RunningStats,
    confidence: f64,
    target_half_width: f64,
    min_batches: u64,
}

impl BatchMeans {
    /// Creates a batch-means estimator.
    ///
    /// # Panics
    /// Panics unless `0 < confidence < 1`, `target_half_width > 0`, and
    /// `min_batches >= 2`.
    pub fn new(confidence: f64, target_half_width: f64, min_batches: u64) -> Self {
        assert!(confidence > 0.0 && confidence < 1.0);
        assert!(target_half_width > 0.0);
        assert!(min_batches >= 2, "need at least two batches for a CI");
        Self {
            stats: RunningStats::new(),
            confidence,
            target_half_width,
            min_batches,
        }
    }

    /// Records one batch mean.
    pub fn push_batch(&mut self, batch_mean: f64) {
        self.stats.push(batch_mean);
    }

    /// Number of batches recorded.
    pub(crate) fn batches(&self) -> u64 {
        self.stats.count()
    }

    /// Point estimate (mean over batches).
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Current confidence interval (`None` with fewer than two batches).
    pub fn interval(&self) -> Option<ConfidenceInterval> {
        ConfidenceInterval::from_stats(&self.stats, self.confidence)
    }

    /// Whether the stopping rule is satisfied.
    pub fn is_converged(&self) -> bool {
        if self.stats.count() < self.min_batches {
            return false;
        }
        match self.interval() {
            Some(ci) => ci.half_width <= self.target_half_width,
            None => false,
        }
    }
}

#[cfg(test)]
impl RunningStats {
    /// Merges another accumulator (parallel Welford combination).
    fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_direct_formulas() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = RunningStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let data = [1.0, 2.5, -3.0, 4.0, 0.0, 8.5, 2.0];
        let mut all = RunningStats::new();
        for &x in &data {
            all.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &data[..3] {
            a.push(x);
        }
        for &x in &data[3..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&RunningStats::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));

        let mut empty = RunningStats::new();
        let mut b = RunningStats::new();
        b.push(1.0);
        b.push(3.0);
        empty.merge(&b);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn batch_means_converges_on_identical_batches() {
        let mut bm = BatchMeans::new(0.95, 0.005, 5);
        assert!(!bm.is_converged());
        for _ in 0..5 {
            bm.push_batch(0.75);
        }
        // Zero variance => zero half-width => converged at min_batches.
        assert!(bm.is_converged());
        assert!((bm.mean() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn batch_means_not_converged_with_wild_variance() {
        let mut bm = BatchMeans::new(0.95, 0.005, 2);
        bm.push_batch(0.1);
        bm.push_batch(0.9);
        assert!(!bm.is_converged());
    }

    #[test]
    fn batch_means_requires_min_batches() {
        let mut bm = BatchMeans::new(0.95, 1.0, 4);
        bm.push_batch(0.5);
        bm.push_batch(0.5);
        bm.push_batch(0.5);
        // Half-width target trivially met, but only 3 < 4 batches.
        assert!(!bm.is_converged());
        bm.push_batch(0.5);
        assert!(bm.is_converged());
    }

    #[test]
    fn autocorrelation_of_alternating_series_is_negative() {
        let series: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let r = lag1_autocorrelation(&series);
        assert!(r < -0.9, "alternating series should be anticorrelated: {r}");
    }

    #[test]
    fn autocorrelation_of_trend_is_positive() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let r = lag1_autocorrelation(&series);
        assert!(r > 0.9, "trend should be autocorrelated: {r}");
    }

    #[test]
    fn autocorrelation_edge_cases() {
        assert_eq!(lag1_autocorrelation(&[]), 0.0);
        assert_eq!(lag1_autocorrelation(&[1.0, 2.0]), 0.0);
        assert_eq!(lag1_autocorrelation(&[5.0; 10]), 0.0, "zero variance");
    }

    #[test]
    fn std_error_shrinks_with_samples() {
        let mut s = RunningStats::new();
        for i in 0..10 {
            s.push(if i % 2 == 0 { 0.0 } else { 1.0 });
        }
        let few = s.std_error();
        for i in 0..990 {
            s.push(if i % 2 == 0 { 0.0 } else { 1.0 });
        }
        assert!(s.std_error() < few);
    }
}
