//! Student-t confidence intervals.
//!
//! The paper reports availabilities "with a 95 % confidence interval with an
//! interval half-size of at most ±0.5 %" (§5.2). With 5–18 batches the
//! normal approximation is too loose, so we use Student-t critical values.

use crate::batch::RunningStats;

/// A two-sided confidence interval `mean ± half_width`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub(crate) mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
    /// Confidence level, e.g. `0.95`.
    pub(crate) confidence: f64,
}

impl ConfidenceInterval {
    /// Builds the interval from an accumulator of batch means.
    ///
    /// Returns `None` with fewer than two samples (no variance estimate).
    pub(crate) fn from_stats(stats: &RunningStats, confidence: f64) -> Option<Self> {
        let n = stats.count();
        if n < 2 {
            return None;
        }
        let t = t_critical(confidence, n - 1);
        Some(Self {
            mean: stats.mean(),
            half_width: t * stats.std_error(),
            confidence,
        })
    }

    /// Lower endpoint.
    pub(crate) fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint.
    pub(crate) fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Whether `x` lies within the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }
}

/// Two-sided Student-t critical value `t_{(1+confidence)/2, df}`.
///
/// Supports the 90 %, 95 % and 99 % levels exactly (tabulated) and falls
/// back to the normal quantile for other levels or very large `df`.
///
/// # Panics
/// Panics if `df == 0` or `confidence` is outside `(0, 1)`.
pub(crate) fn t_critical(confidence: f64, df: u64) -> f64 {
    assert!(df > 0, "degrees of freedom must be positive");
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must lie in (0,1)"
    );
    // Standard two-sided critical values, df = 1..=30.
    const T90: [f64; 30] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812, 1.796, 1.782, 1.771,
        1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714, 1.711, 1.708, 1.706,
        1.703, 1.701, 1.699, 1.697,
    ];
    const T95: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    const T99: [f64; 30] = [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
        2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
        2.771, 2.763, 2.756, 2.750,
    ];
    let table: Option<&[f64; 30]> = if (confidence - 0.90).abs() < 1e-9 {
        Some(&T90)
    } else if (confidence - 0.95).abs() < 1e-9 {
        Some(&T95)
    } else if (confidence - 0.99).abs() < 1e-9 {
        Some(&T99)
    } else {
        None
    };
    match table {
        Some(t) if df <= 30 => t[(df - 1) as usize],
        Some(t) if df <= 120 => {
            // Linear interpolation in 1/df between df=30 and the asymptote.
            let z = normal_quantile(0.5 + confidence / 2.0);
            let t30 = t[29];
            let frac = (1.0 / df as f64) / (1.0 / 30.0);
            z + (t30 - z) * frac
        }
        _ => normal_quantile(0.5 + confidence / 2.0),
    }
}

/// Standard normal quantile via the Acklam rational approximation
/// (|relative error| < 1.15e-9 on (0,1)).
pub(crate) fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must lie in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.95) - 1.644854).abs() < 1e-4);
        assert!(normal_quantile(0.5).abs() < 1e-9);
        assert!((normal_quantile(0.025) + 1.959964).abs() < 1e-4);
    }

    #[test]
    fn t_critical_tabulated_values() {
        assert!((t_critical(0.95, 1) - 12.706).abs() < 1e-9);
        assert!((t_critical(0.95, 4) - 2.776).abs() < 1e-9);
        assert!((t_critical(0.95, 17) - 2.110).abs() < 1e-9);
        assert!((t_critical(0.99, 9) - 3.250).abs() < 1e-9);
        assert!((t_critical(0.90, 10) - 1.812).abs() < 1e-9);
    }

    #[test]
    fn t_critical_approaches_normal_for_large_df() {
        let z = normal_quantile(0.975);
        assert!((t_critical(0.95, 10_000) - z).abs() < 1e-9);
        // Interpolated region decreases toward z.
        let t40 = t_critical(0.95, 40);
        let t100 = t_critical(0.95, 100);
        assert!(t40 > t100 && t100 > z);
        assert!(t40 < t_critical(0.95, 30));
    }

    #[test]
    fn interval_from_stats() {
        let mut s = RunningStats::new();
        // Five batches with mean .5, sd computable by hand.
        for x in [0.48, 0.49, 0.50, 0.51, 0.52] {
            s.push(x);
        }
        let ci = ConfidenceInterval::from_stats(&s, 0.95).unwrap();
        assert!((ci.mean - 0.50).abs() < 1e-12);
        // sd = sqrt(2.5e-4) ≈ 0.015811, se = sd/sqrt(5) ≈ 0.0070711,
        // t(.95, 4) = 2.776 → half-width ≈ 0.019629.
        assert!((ci.half_width - 0.019629).abs() < 1e-4);
        assert!(ci.contains(0.5));
        assert!(!ci.contains(0.6));
        assert!((ci.hi() - ci.lo() - 2.0 * ci.half_width).abs() < 1e-12);
    }

    #[test]
    fn interval_needs_two_samples() {
        let mut s = RunningStats::new();
        assert!(ConfidenceInterval::from_stats(&s, 0.95).is_none());
        s.push(1.0);
        assert!(ConfidenceInterval::from_stats(&s, 0.95).is_none());
        s.push(2.0);
        assert!(ConfidenceInterval::from_stats(&s, 0.95).is_some());
    }
}
