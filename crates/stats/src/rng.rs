//! Deterministic RNG helpers for the simulator.
//!
//! Every stochastic element of the simulation (access submissions, site and
//! link failures and recoveries — all Poisson, §5.2) draws exponential
//! inter-event times. We sample them by inversion from `rand`'s uniform
//! source, and derive independent per-stream seeds with SplitMix64 so that
//! batches and event streams are reproducible and statistically decoupled.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// SplitMix64 step: maps a seed to a well-mixed 64-bit value.
///
/// Used to derive independent seeds for sub-streams (one per site, link,
/// and batch) from a single master seed.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the `index`-th child seed from `master`.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    let mut s = master ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(index.wrapping_add(1));
    let a = splitmix64(&mut s);
    let b = splitmix64(&mut s);
    a ^ b.rotate_left(32)
}

/// Creates a seeded [`StdRng`] from a 64-bit seed.
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A counter-based SplitMix64 stream: draw `k` of stream `seed` is the
/// pure function `CounterRng::value_at(seed, k)` — no hidden state
/// beyond the counter itself.
///
/// Two properties make this the hot-path generator for the shard walk
/// (ChaCha12 [`StdRng`] stays the default everywhere else):
///
/// * **Cheap**: one draw is one 64-bit add, two multiplies, and three
///   xor-shifts — the SplitMix64 finalizer — versus ~12 ARX rounds per
///   ChaCha block. Draws have no sequential dependency on each other,
///   so one object's draws can be computed in any order.
/// * **Positional**: a stream can be entered at any counter
///   ([`CounterRng::uniform_at`] takes it as an argument), so batched and one-at-a-time consumers of
///   the same `(seed, counter)` contract produce bit-identical draws.
///
/// The sequence is exactly what repeated `splitmix64` calls starting
/// from `seed` produce (pinned by a test), so `derive_seed`-style
/// decorrelation arguments carry over unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    seed: u64,
    counter: u64,
}

impl CounterRng {
    /// Draw `counter` of stream `seed`: the SplitMix64 finalizer applied
    /// to the counter-advanced state. Stateless, so batched samplers can
    /// compute many draws of one stream without threading a borrow.
    #[inline]
    pub(crate) fn value_at(seed: u64, counter: u64) -> u64 {
        let mut z = seed.wrapping_add(counter.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draw `counter` of stream `seed` as a uniform `f64` in `[0, 1)`
    /// (top 53 bits, the same convention `rate_of`-style hashes use).
    #[inline]
    pub fn uniform_at(seed: u64, counter: u64) -> f64 {
        (Self::value_at(seed, counter) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Exponential inversion from an already-drawn uniform, parameterized by
/// the **reciprocal** rate: `-ln(1 − u) · (1/rate)`.
///
/// The hot-path form of [`exponential`]: callers validate the rate once
/// (positive, finite) when preparing a walk, precompute `1/rate`, and
/// sample gaps with no per-draw branch. Batched and sequential engines
/// sharing one `inv_rate` value get bit-identical gaps.
#[inline]
pub fn exponential_from_uniform(u: f64, inv_rate: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&u), "u must lie in [0,1)");
    debug_assert!(inv_rate > 0.0 && inv_rate.is_finite());
    -(1.0 - u).ln() * inv_rate
}

/// Samples an exponential variate with the given `rate` (mean `1/rate`) by
/// inversion: `-ln(1 − U) / rate`.
///
/// # Panics
/// Panics if `rate <= 0` or is non-finite.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
    let u: f64 = rng.random::<f64>();
    // u ∈ [0, 1); 1 − u ∈ (0, 1] so ln is finite.
    -(1.0 - u).ln() / rate
}

/// Samples true with probability `p`.
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "p must lie in [0,1]");
    rng.random::<f64>() < p
}

#[cfg(test)]
impl CounterRng {
    /// Stream `seed` positioned at its first draw.
    fn new(seed: u64) -> Self {
        Self { seed, counter: 0 }
    }

    /// Stream `seed` positioned so the next draw is draw `counter`.
    fn at(seed: u64, counter: u64) -> Self {
        Self { seed, counter }
    }

    /// Number of draws consumed so far (the index of the next draw).
    fn position(&self) -> u64 {
        self.counter
    }

    /// Next 64-bit draw.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let v = Self::value_at(self.seed, self.counter);
        self.counter += 1;
        v
    }

    /// Next uniform `f64` in `[0, 1)`.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        let v = Self::uniform_at(self.seed, self.counter);
        self.counter += 1;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_deterministic_and_spread() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 0);
        assert_eq!(a, b);
        let c = derive_seed(42, 1);
        assert_ne!(a, c);
        let d = derive_seed(43, 0);
        assert_ne!(a, d);
    }

    #[test]
    fn derived_seeds_unique_over_many_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(derive_seed(7, i)), "collision at {i}");
        }
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = rng_from_seed(1);
        let rate = 4.0;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, rate)).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.01,
            "mean {mean} vs {}",
            1.0 / rate
        );
    }

    #[test]
    fn exponential_is_positive_and_finite() {
        let mut rng = rng_from_seed(2);
        for _ in 0..10_000 {
            let x = exponential(&mut rng, 0.5);
            assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = rng_from_seed(3);
        let hits = (0..100_000).filter(|_| bernoulli(&mut rng, 0.96)).count();
        let f = hits as f64 / 100_000.0;
        assert!((f - 0.96).abs() < 0.005, "frequency {f}");
    }

    #[test]
    fn seeded_rng_reproducible() {
        let mut a = rng_from_seed(99);
        let mut b = rng_from_seed(99);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let mut rng = rng_from_seed(0);
        exponential(&mut rng, 0.0);
    }

    #[test]
    fn counter_rng_matches_sequential_splitmix() {
        let seed = 0xDEAD_BEEF_u64;
        let mut state = seed;
        let mut rng = CounterRng::new(seed);
        for k in 0..1000u64 {
            let sequential = splitmix64(&mut state);
            assert_eq!(CounterRng::value_at(seed, k), sequential);
            assert_eq!(rng.next_u64(), sequential);
        }
        assert_eq!(rng.position(), 1000);
    }

    #[test]
    fn counter_rng_resumes_at_any_position() {
        let mut a = CounterRng::new(7);
        for _ in 0..17 {
            a.next_f64();
        }
        let mut b = CounterRng::at(7, a.position());
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a.next_f64().to_bits(), b.next_f64().to_bits());
    }

    #[test]
    fn counter_rng_uniforms_are_in_unit_interval_with_half_mean() {
        let mut rng = CounterRng::new(3);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn counter_streams_decorrelate_across_seeds() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..100u64 {
            for k in 0..100u64 {
                assert!(
                    seen.insert(CounterRng::value_at(derive_seed(11, seed), k)),
                    "collision at seed {seed} draw {k}"
                );
            }
        }
    }

    #[test]
    fn exponential_from_uniform_matches_inversion_shape() {
        // Same inversion formula as `exponential`, up to the
        // multiply-by-reciprocal vs divide difference the hot path
        // accepts; the distribution must still have mean 1/rate.
        let mut rng = CounterRng::new(5);
        let rate = 2.5;
        let inv = 1.0 / rate;
        let n = 200_000;
        let mean: f64 = (0..n)
            .map(|_| exponential_from_uniform(rng.next_f64(), inv))
            .sum::<f64>()
            / n as f64;
        assert!((mean - inv).abs() < 0.01, "mean {mean} vs {inv}");
    }
}
