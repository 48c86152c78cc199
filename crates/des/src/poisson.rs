//! Poisson arrival processes.

use quorum_stats::rng::exponential;
use rand::Rng;

/// A homogeneous Poisson process: exponential inter-arrival times with the
/// given rate (`rate = 1/μ` where `μ` is the mean inter-arrival time).
///
/// The paper models per-site access submission as Poisson with mean
/// `μ_t = 1` (§5.2), i.e. `rate = 1`.
#[derive(Debug, Clone, Copy)]
pub struct PoissonProcess {
    rate: f64,
}

impl PoissonProcess {
    /// Creates a process with the given arrival `rate`.
    ///
    /// # Panics
    /// Panics unless `rate` is positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        Self { rate }
    }

    /// Samples the next inter-arrival gap.
    pub fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        exponential(rng, self.rate)
    }
}

#[cfg(test)]
impl PoissonProcess {
    /// Arrival rate.
    fn rate(&self) -> f64 {
        self.rate
    }

    /// Mean inter-arrival time.
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_stats::rng::rng_from_seed;

    #[test]
    fn mean_and_rate_are_inverse() {
        let p = PoissonProcess::new(0.25);
        assert!((p.rate() - 0.25).abs() < 1e-12);
        assert!((p.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_mean_gap() {
        let p = PoissonProcess::new(2.0);
        let mut rng = rng_from_seed(11);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng)).sum();
        assert!((total / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn count_in_unit_interval_is_poisson_distributed() {
        // Mean number of arrivals in [0, 1) should be ≈ rate; variance too.
        let p = PoissonProcess::new(3.0);
        let mut rng = rng_from_seed(5);
        let trials = 20_000;
        let mut counts = Vec::with_capacity(trials);
        for _ in 0..trials {
            let mut t = 0.0;
            let mut c = 0u32;
            loop {
                t += p.next_gap(&mut rng);
                if t >= 1.0 {
                    break;
                }
                c += 1;
            }
            counts.push(c as f64);
        }
        let mean: f64 = counts.iter().sum::<f64>() / trials as f64;
        let var: f64 = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (trials - 1) as f64;
        assert!((mean - 3.0).abs() < 0.06, "mean {mean}");
        assert!((var - 3.0).abs() < 0.15, "variance {var}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_rate_rejected() {
        PoissonProcess::new(0.0);
    }
}
