//! Access-request generation.
//!
//! §5.2: each site submits accesses as a Poisson process with mean
//! inter-access time `μ_t = 1`; a fraction `α` of all accesses are reads.
//! The paper's experiments use uniform submission (`r_i = w_i = 1/n`), but
//! the Figure-1 algorithm supports arbitrary `r_i`, `w_i`, so the workload
//! does too.

use quorum_core::Access;
use rand::Rng;

/// Generates `(kind, submitting site)` pairs.
#[derive(Debug, Clone)]
pub struct Workload {
    alpha: f64,
    read_cdf: Vec<f64>,
    write_cdf: Vec<f64>,
    read_frac: Vec<f64>,
    write_frac: Vec<f64>,
}

fn build_cdf(weights: &[f64]) -> (Vec<f64>, Vec<f64>) {
    assert!(!weights.is_empty(), "need at least one site");
    let sum: f64 = weights.iter().sum();
    assert!(sum > 0.0, "weights must have positive mass");
    for &w in weights {
        assert!(w >= 0.0 && w.is_finite(), "weights must be non-negative");
    }
    let frac: Vec<f64> = weights.iter().map(|w| w / sum).collect();
    let mut cdf = Vec::with_capacity(frac.len());
    let mut acc = 0.0;
    for &f in &frac {
        acc += f;
        cdf.push(acc);
    }
    // Guard against rounding: the last entry must cover u → 1.
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    (cdf, frac)
}

fn sample_cdf<R: Rng + ?Sized>(cdf: &[f64], rng: &mut R) -> usize {
    let u: f64 = rng.random();
    match cdf.binary_search_by(|x| x.partial_cmp(&u).expect("finite cdf")) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
    .min(cdf.len() - 1)
}

impl Workload {
    /// Uniform submission over `n` sites with read fraction `alpha`.
    pub fn uniform(n: usize, alpha: f64) -> Self {
        Self::weighted(alpha, &vec![1.0; n], &vec![1.0; n])
    }

    /// Zipf-skewed submission: site `i` gets weight `1/(i+1)^s` (site 0 is
    /// the hot spot). Models the skewed access patterns whose drift the
    /// paper's on-line estimation is designed to follow.
    pub fn zipf(n: usize, alpha: f64, s: f64) -> Self {
        assert!(s >= 0.0, "zipf exponent must be non-negative");
        let w: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        Self::weighted(alpha, &w, &w)
    }

    /// Checks a read fraction, returning the violated rule.
    pub fn check_alpha(alpha: f64) -> Result<(), String> {
        if (0.0..=1.0).contains(&alpha) {
            Ok(())
        } else {
            Err("α must lie in [0,1]".to_string())
        }
    }

    /// Arbitrary (unnormalized) read/write site weights.
    ///
    /// # Panics
    /// Panics if `alpha ∉ [0,1]`, lengths differ, or weights are invalid.
    pub fn weighted(alpha: f64, read_weights: &[f64], write_weights: &[f64]) -> Self {
        if let Err(rule) = Self::check_alpha(alpha) {
            panic!("{rule}");
        }
        assert_eq!(
            read_weights.len(),
            write_weights.len(),
            "per-site weight lists must align"
        );
        let (read_cdf, read_frac) = build_cdf(read_weights);
        let (write_cdf, write_frac) = build_cdf(write_weights);
        Self {
            alpha,
            read_cdf,
            write_cdf,
            read_frac,
            write_frac,
        }
    }

    /// The read fraction `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Changes `α` (used by shifting-workload experiments).
    pub fn set_alpha(&mut self, alpha: f64) {
        if let Err(rule) = Self::check_alpha(alpha) {
            panic!("{rule}");
        }
        self.alpha = alpha;
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.read_cdf.len()
    }

    /// Normalized per-site read fractions `r_i`.
    pub fn read_frac(&self) -> &[f64] {
        &self.read_frac
    }

    /// Normalized per-site write fractions `w_i`.
    pub fn write_frac(&self) -> &[f64] {
        &self.write_frac
    }

    /// True if `r_i = w_i` for all sites (then `r(v) = w(v)`, §4.1).
    pub fn is_symmetric(&self) -> bool {
        self.read_frac
            .iter()
            .zip(&self.write_frac)
            .all(|(a, b)| (a - b).abs() < 1e-12)
    }

    /// Samples the next access.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (Access, usize) {
        let is_read = rng.random::<f64>() < self.alpha;
        if is_read {
            (Access::Read, sample_cdf(&self.read_cdf, rng))
        } else {
            (Access::Write, sample_cdf(&self.write_cdf, rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_stats::rng::rng_from_seed;

    #[test]
    fn uniform_alpha_frequencies() {
        let w = Workload::uniform(10, 0.75);
        let mut rng = rng_from_seed(1);
        let n = 100_000;
        let reads = (0..n)
            .filter(|_| matches!(w.sample(&mut rng).0, Access::Read))
            .count();
        let f = reads as f64 / n as f64;
        assert!((f - 0.75).abs() < 0.01, "read fraction {f}");
    }

    #[test]
    fn uniform_sites_equally_likely() {
        let w = Workload::uniform(5, 0.5);
        let mut rng = rng_from_seed(2);
        let mut counts = [0u64; 5];
        for _ in 0..100_000 {
            counts[w.sample(&mut rng).1] += 1;
        }
        for &c in &counts {
            let f = c as f64 / 100_000.0;
            assert!((f - 0.2).abs() < 0.01, "site frequency {f}");
        }
    }

    #[test]
    fn weighted_sites_follow_weights() {
        let w = Workload::weighted(1.0, &[1.0, 3.0], &[1.0, 1.0]);
        let mut rng = rng_from_seed(3);
        let mut hits = [0u64; 2];
        for _ in 0..100_000 {
            let (kind, site) = w.sample(&mut rng);
            assert_eq!(kind, Access::Read);
            hits[site] += 1;
        }
        let f1 = hits[1] as f64 / 100_000.0;
        assert!((f1 - 0.75).abs() < 0.01, "site 1 frequency {f1}");
    }

    #[test]
    fn zipf_concentrates_on_low_sites() {
        let w = Workload::zipf(10, 0.5, 1.0);
        let mut rng = rng_from_seed(6);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[w.sample(&mut rng).1] += 1;
        }
        assert!(counts[0] > counts[4] && counts[4] > counts[9]);
        // Harmonic weights: site 0 should get ≈ 1/H_10 ≈ 34%.
        let f0 = counts[0] as f64 / 100_000.0;
        assert!((f0 - 0.3414).abs() < 0.01, "hot-spot share {f0}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Workload::zipf(5, 0.5, 0.0);
        assert_eq!(z.read_frac(), &[0.2; 5]);
    }

    #[test]
    fn alpha_extremes() {
        let mut rng = rng_from_seed(4);
        let all_reads = Workload::uniform(3, 1.0);
        let all_writes = Workload::uniform(3, 0.0);
        for _ in 0..1000 {
            assert_eq!(all_reads.sample(&mut rng).0, Access::Read);
            assert_eq!(all_writes.sample(&mut rng).0, Access::Write);
        }
    }

    #[test]
    fn symmetric_detection() {
        assert!(Workload::uniform(4, 0.5).is_symmetric());
        assert!(!Workload::weighted(0.5, &[1.0, 2.0], &[2.0, 1.0]).is_symmetric());
    }

    #[test]
    fn fractions_normalized() {
        let w = Workload::weighted(0.5, &[2.0, 2.0], &[1.0, 3.0]);
        assert_eq!(w.read_frac(), &[0.5, 0.5]);
        assert_eq!(w.write_frac(), &[0.25, 0.75]);
    }

    #[test]
    fn set_alpha_updates() {
        let mut w = Workload::uniform(3, 0.1);
        w.set_alpha(0.9);
        assert_eq!(w.alpha(), 0.9);
    }

    #[test]
    #[should_panic(expected = "α must lie")]
    fn bad_alpha_rejected() {
        Workload::uniform(3, 1.1);
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn zero_weights_rejected() {
        Workload::weighted(0.5, &[0.0, 0.0], &[1.0, 1.0]);
    }
}
