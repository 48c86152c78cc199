//! Simulation timestamps.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A simulation timestamp in abstract time units (the paper's unit is the
/// mean inter-access time `μ_t = 1`).
///
/// Wraps `f64` but is totally ordered: construction rejects NaN and
/// negative values and folds −0.0 to +0.0. On what is left, the
/// non-negative `f64`s, the IEEE bit patterns sort as the values do, so
/// `Ord` compares `to_bits()` and the derived `==` is exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a timestamp. −0.0 becomes +0.0, so equal timestamps have
    /// equal bit patterns.
    ///
    /// # Panics
    /// Panics if `t` is NaN or negative.
    pub fn new(t: f64) -> Self {
        assert!(!t.is_nan(), "SimTime cannot be NaN");
        assert!(t >= 0.0, "SimTime cannot be negative, got {t}");
        // `t` is +0.0, −0.0 or positive here; `abs` maps −0.0 to +0.0
        // and leaves the rest as they are.
        Self(t.abs())
    }

    /// The raw value.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// The value's bit pattern, ordered as the timestamps are.
    pub(crate) fn to_bits(self) -> u64 {
        self.0.to_bits()
    }

    /// Inverse of [`SimTime::to_bits`], for bits taken from a timestamp.
    pub(crate) fn from_bits(bits: u64) -> Self {
        Self(f64::from_bits(bits))
    }
}

impl Eq for SimTime {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Non-negative, non-NaN and never −0.0 by construction, so the
        // bit patterns sort as the values do.
        self.to_bits().cmp(&other.to_bits())
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    fn add(self, dt: f64) -> SimTime {
        SimTime::new(self.0 + dt)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, dt: f64) {
        *self = *self + dt;
    }
}

impl Sub for SimTime {
    type Output = f64;
    fn sub(self, other: SimTime) -> f64 {
        self.0 - other.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering() {
        assert!(SimTime::new(1.0) < SimTime::new(2.0));
        assert!(SimTime::ZERO <= SimTime::new(0.0));
        assert_eq!(SimTime::new(3.5).max(SimTime::new(2.0)), SimTime::new(3.5));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::new(1.5) + 2.5;
        assert_eq!(t.as_f64(), 4.0);
        assert_eq!(t - SimTime::new(1.0), 3.0);
        let mut u = SimTime::ZERO;
        u += 0.25;
        assert_eq!(u.as_f64(), 0.25);
    }

    #[test]
    fn negative_zero_is_zero() {
        let z = SimTime::new(-0.0);
        assert_eq!(z, SimTime::ZERO);
        assert_eq!(z.to_bits(), SimTime::ZERO.to_bits());
        assert_eq!(z.cmp(&SimTime::ZERO), Ordering::Equal);
    }

    #[test]
    fn bit_order_agrees_with_partial_cmp() {
        use quorum_stats::rng::rng_from_seed;
        use rand::Rng;

        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut rng = rng_from_seed(3);
        // Uniform draws on [0, 1e6), and random bit patterns with the
        // sign bit clear, which spread over every exponent (NaNs
        // dropped).
        let random = (0..2_000).flat_map(|_| {
            let u: f64 = rng.random();
            let bits: u64 = rng.random();
            [u * 1e6, f64::from_bits(bits >> 1)]
        });
        let values: Vec<f64> = edges
            .into_iter()
            .chain(random)
            .filter(|v| !v.is_nan())
            .collect();
        for &a in &values {
            for &b in values.iter().step_by(7) {
                let want = a.partial_cmp(&b).expect("no NaN");
                let (ta, tb) = (SimTime::new(a), SimTime::new(b));
                assert_eq!(ta.cmp(&tb), want, "{a:e} vs {b:e}");
                assert_eq!(ta == tb, want == Ordering::Equal, "{a:e} vs {b:e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_rejected() {
        SimTime::new(-0.1);
    }
}
