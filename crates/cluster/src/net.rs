//! The link model: per-message latency distributions and loss.
//!
//! Delivery semantics: a message sent at time `t` is subjected to a
//! Bernoulli loss draw at the sender; survivors are scheduled for
//! delivery at `t + latency` and are delivered **iff the endpoints are
//! up and mutually reachable at the delivery instant** — a partition
//! that forms while a message is in flight swallows it. With
//! [`NetConfig::ideal`] (zero latency, zero loss) the model degenerates
//! to the paper's instantaneous world.

use rand::Rng;

/// Per-message latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyDist {
    /// Every message takes exactly this long (0 = instantaneous).
    Constant(f64),
    /// Uniform over `[min, max)`.
    Uniform {
        /// Lower bound (inclusive).
        min: f64,
        /// Upper bound (exclusive).
        max: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean latency.
        mean: f64,
    },
}

impl LatencyDist {
    /// Draws one latency. Constant latencies consume no randomness, so an
    /// ideal network leaves the network RNG stream untouched.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            LatencyDist::Constant(c) => c,
            LatencyDist::Uniform { min, max } => min + rng.random::<f64>() * (max - min),
            LatencyDist::Exponential { mean } => {
                let u: f64 = rng.random();
                -mean * (1.0 - u).ln()
            }
        }
    }

    /// Checks the parameters (non-negative, ordered bounds), returning
    /// the violated rule.
    pub fn check(&self) -> Result<(), String> {
        let (ok, rule) = match *self {
            LatencyDist::Constant(c) => (c >= 0.0, "latency must be non-negative"),
            LatencyDist::Uniform { min, max } => (
                min >= 0.0 && max >= min,
                "uniform bounds must be 0 <= min <= max",
            ),
            LatencyDist::Exponential { mean } => (mean >= 0.0, "mean latency must be non-negative"),
        };
        if ok {
            Ok(())
        } else {
            Err(rule.to_string())
        }
    }
}

/// The network configuration shared by every site pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Per-message delivery latency.
    pub latency: LatencyDist,
    /// Independent per-message loss probability in `[0, 1)`.
    pub loss: f64,
}

impl NetConfig {
    /// The degenerate network: zero latency, zero loss. Under it the
    /// cluster engine reproduces the instantaneous simulator exactly.
    pub fn ideal() -> Self {
        Self {
            latency: LatencyDist::Constant(0.0),
            loss: 0.0,
        }
    }

    /// Checks the latency and that `loss` lies in `[0, 1)`, returning
    /// the violated rule.
    pub fn check(&self) -> Result<(), String> {
        self.latency.check()?;
        if (0.0..1.0).contains(&self.loss) {
            Ok(())
        } else {
            Err("loss probability must lie in [0, 1)".to_string())
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::ideal()
    }
}

#[cfg(test)]
impl LatencyDist {
    /// Mean of the distribution.
    fn mean(&self) -> f64 {
        match *self {
            LatencyDist::Constant(c) => c,
            LatencyDist::Uniform { min, max } => 0.5 * (min + max),
            LatencyDist::Exponential { mean } => mean,
        }
    }
}

#[cfg(test)]
impl NetConfig {
    /// Validates parameters (see [`NetConfig::check`]).
    ///
    /// # Panics
    /// Panics if `loss` is outside `[0, 1)` or the latency is invalid.
    fn validate(&self) {
        if let Err(rule) = self.check() {
            panic!("{rule}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_stats::rng::rng_from_seed;

    #[test]
    fn constant_latency_consumes_no_randomness() {
        let mut a = rng_from_seed(1);
        let mut b = rng_from_seed(1);
        let d = LatencyDist::Constant(0.25);
        for _ in 0..5 {
            assert_eq!(d.sample(&mut a), 0.25);
        }
        // Untouched stream still matches a fresh clone.
        assert_eq!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn samples_respect_distribution_shape() {
        let mut rng = rng_from_seed(7);
        let u = LatencyDist::Uniform { min: 0.1, max: 0.3 };
        let mut sum = 0.0;
        for _ in 0..4_000 {
            let x = u.sample(&mut rng);
            assert!((0.1..0.3).contains(&x));
            sum += x;
        }
        assert!((sum / 4_000.0 - u.mean()).abs() < 0.01);

        let e = LatencyDist::Exponential { mean: 0.5 };
        let mean: f64 = (0..4_000).map(|_| e.sample(&mut rng)).sum::<f64>() / 4_000.0;
        assert!((mean - 0.5).abs() < 0.05, "exponential mean {mean}");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn loss_of_one_rejected() {
        NetConfig {
            latency: LatencyDist::Constant(0.0),
            loss: 1.0,
        }
        .validate();
    }
}
