//! Access-request generation.
//!
//! §5.2: each site submits accesses as a Poisson process with mean
//! inter-access time `μ_t = 1`; a fraction `α` of all accesses are reads.
//! The paper's experiments use uniform submission (`r_i = w_i = 1/n`), but
//! the Figure-1 algorithm supports arbitrary `r_i`, `w_i`, so the workload
//! does too.
//!
//! A site is drawn by inverting the per-site CDF at a uniform `u`, using a
//! guide table (Chen and Asau's indexed search) built once per workload:
//! the draw reads the bucket `⌊u·n⌋` and finishes with a search over the
//! few CDF entries that bucket can reach, instead of a binary search over
//! all `n`. Every `u` gets the same site as the full search.

use quorum_core::Access;
use rand::Rng;
use std::sync::Arc;

/// Generates `(kind, submitting site)` pairs.
///
/// The per-site tables never change after construction, so clones of a
/// workload share them, and so do its two kinds when their weights are
/// equal: a clone allocates nothing.
#[derive(Debug, Clone)]
pub struct Workload {
    alpha: f64,
    read_sites: Arc<SiteCdf>,
    write_sites: Arc<SiteCdf>,
}

/// One kind's per-site fractions, their CDF and its guide table.
///
/// The draw for `u ∈ [0, 1)` is `cdf.partition_point(|&c| c <= u)`: the
/// first site whose entry exceeds `u`. Write `J(x)` for the bucket of `x`,
/// `(x·n) as usize` in floating point, which never decreases as `x` grows.
/// `guide[j]` counts the entries with `J(c) < j`. For `u` in bucket `j`,
/// an entry with `J(c) < j` lies below `u` and one with `J(c) > j` lies
/// above it, so the answer lies in `guide[j]..=guide[j + 1]`. The bounds
/// come from the same rounding as the draw, so they hold exactly, not
/// just up to a margin.
#[derive(Debug)]
struct SiteCdf {
    frac: Vec<f64>,
    cdf: Vec<f64>,
    /// `n + 1` entries, as `u32` so a 101-site table takes 408 bytes.
    guide: Vec<u32>,
}

/// The guide bucket of `x` for `n` sites.
fn bucket(x: f64, n: usize) -> usize {
    (x * n as f64) as usize
}

impl SiteCdf {
    /// Normalizes `weights` into per-site fractions, and builds their CDF
    /// and its guide table.
    fn build(weights: &[f64]) -> Self {
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
        // Guard against rounding: the running sum can end just below 1.0,
        // so every entry from the last positive-weight site on is pinned to
        // 1.0. Pinning only the last entry would hand a trailing zero-weight
        // site every u at or above that sum.
        let last = weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("positive mass");
        cdf[last..].fill(1.0);
        // One pass: site `i` is the first with `J(c) ≥ j` for every bucket
        // `j` past the previous site's bucket, up to its own. The last
        // entry is 1.0, in bucket `n`, so all `n + 1` buckets get filled.
        let n = cdf.len();
        let mut guide = Vec::with_capacity(n + 1);
        for (site, &c) in cdf.iter().enumerate() {
            let through = bucket(c, n) + 1;
            if through > guide.len() {
                let first = u32::try_from(site).expect("site count fits in u32");
                guide.resize(through, first);
            }
        }
        Self { frac, cdf, guide }
    }

    /// The site for `u ∈ [0, 1)`. Every such `u` has `u·n` rounding below
    /// `n`, and the last entry is 1.0, so the result is at most `n − 1`.
    fn draw(&self, u: f64) -> usize {
        let j = bucket(u, self.cdf.len());
        let lo = self.guide[j] as usize;
        let hi = self.guide[j + 1] as usize;
        lo + self.cdf[lo..hi].partition_point(|&c| c <= u)
    }
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
        let read_sites = Arc::new(SiteCdf::build(read_weights));
        let write_sites = if write_weights == read_weights {
            Arc::clone(&read_sites)
        } else {
            Arc::new(SiteCdf::build(write_weights))
        };
        Self {
            alpha,
            read_sites,
            write_sites,
        }
    }

    /// The read fraction `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.read_sites.cdf.len()
    }

    /// Normalized per-site read fractions `r_i`.
    pub fn read_frac(&self) -> &[f64] {
        &self.read_sites.frac
    }

    /// Normalized per-site write fractions `w_i`.
    pub fn write_frac(&self) -> &[f64] {
        &self.write_sites.frac
    }

    /// Samples the next access: one `f64` from `rng` picks the kind (a
    /// read with probability `α`), a second picks the submitting site by
    /// inverting that kind's CDF through the guide table. A site with zero
    /// weight is never drawn.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (Access, usize) {
        let is_read = rng.random::<f64>() < self.alpha;
        if is_read {
            (Access::Read, self.read_sites.draw(rng.random()))
        } else {
            (Access::Write, self.write_sites.draw(rng.random()))
        }
    }
}

#[cfg(test)]
impl Workload {
    /// Changes `α` (used by shifting-workload experiments).
    fn set_alpha(&mut self, alpha: f64) {
        if let Err(rule) = Self::check_alpha(alpha) {
            panic!("{rule}");
        }
        self.alpha = alpha;
    }

    /// True if `r_i = w_i` for all sites (then `r(v) = w(v)`, §4.1).
    fn is_symmetric(&self) -> bool {
        self.read_frac()
            .iter()
            .zip(self.write_frac())
            .all(|(a, b)| (a - b).abs() < 1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use quorum_stats::rng::rng_from_seed;
    use rand::RngCore;

    /// The full search the guide table replaces: the first site whose CDF
    /// entry exceeds `u`, capped at the last site.
    fn oracle(cdf: &[f64], u: f64) -> usize {
        cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
    }

    /// Every CDF entry and bucket edge `j/n` with its two neighbours, plus
    /// 0 and the largest `u < 1`: the points where rounding could put a
    /// draw on the wrong side of an entry or a bucket.
    fn edge_points(cdf: &[f64]) -> Vec<f64> {
        let n = cdf.len();
        let edges = (0..=n).map(|j| j as f64 / n as f64);
        cdf.iter()
            .copied()
            .chain(edges)
            .flat_map(|x| [x.next_down(), x, x.next_up()])
            .chain([0.0, 1.0f64.next_down()])
            .filter(|u| (0.0..1.0).contains(u))
            .collect()
    }

    /// Yields `1 − 2⁻⁵³`, the largest `u` a draw can see, for every `f64`.
    struct MaxRng;

    impl RngCore for MaxRng {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn trailing_zero_weight_site_is_never_drawn() {
        // Ten 0.1s sum to exactly 1 − 2⁻⁵³, so site 9's entry equals the
        // largest u; only the pinned 1.0 keeps site 10 out of reach.
        let mut w = vec![1.0; 10];
        w.push(0.0);
        let workload = Workload::weighted(1.0, &w, &w);
        assert_eq!(workload.sample(&mut MaxRng), (Access::Read, 9));
    }

    proptest! {
        #[test]
        fn guide_table_matches_the_full_search(
            lead in 0usize..4,
            body in prop::collection::vec((0u8..4, 0.0f64..1.0, 0i32..40), 1..121),
            trail in 0usize..4,
            random_us in prop::collection::vec(0.0f64..1.0, 64),
        ) {
            // Zero weights leading, interior (one in four) and trailing;
            // the rest span twelve orders of magnitude, so some buckets
            // hold many entries.
            let mut weights = vec![0.0; lead];
            weights.extend(body.iter().map(|&(k, x, e)| {
                if k == 0 { 0.0 } else { x * 2f64.powi(-e) }
            }));
            weights.extend(std::iter::repeat_n(0.0, trail));
            if weights.iter().all(|&w| w == 0.0) {
                weights[lead] = 1.0;
            }
            let sites = SiteCdf::build(&weights);
            for u in edge_points(&sites.cdf).into_iter().chain(random_us) {
                let site = sites.draw(u);
                prop_assert_eq!(site, oracle(&sites.cdf, u), "u = {}", u);
                prop_assert!(weights[site] > 0.0, "zero-weight site {} at u = {}", site, u);
            }
        }
    }

    #[test]
    fn guide_table_is_exact_on_uniform_and_zipf_edges() {
        // Equal weights put CDF entries on or next to the bucket edges
        // j/n, where a guide taken from the answer at j/n instead of the
        // draw's own rounding goes wrong (n = 12 is the first such n).
        for n in 1..=128 {
            for s in [0.0, 1.0] {
                let weights: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-s)).collect();
                let sites = SiteCdf::build(&weights);
                for u in edge_points(&sites.cdf) {
                    assert_eq!(
                        sites.draw(u),
                        oracle(&sites.cdf, u),
                        "n = {n}, s = {s}, u = {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn sample_stream_matches_the_full_search() {
        let mut hub = vec![1.0; 101];
        hub[0] = 0.0;
        let workloads = [
            Workload::uniform(101, 0.5),
            Workload::uniform(9, 0.7),
            Workload::zipf(101, 0.5, 1.0),
            Workload::weighted(0.7, &hub, &hub),
        ];
        for (seed, workload) in (0u64..).zip(&workloads) {
            let mut rng = rng_from_seed(seed);
            let mut oracle_rng = rng_from_seed(seed);
            for _ in 0..1_000_000 {
                let want = if oracle_rng.random::<f64>() < workload.alpha {
                    (
                        Access::Read,
                        oracle(&workload.read_sites.cdf, oracle_rng.random()),
                    )
                } else {
                    (
                        Access::Write,
                        oracle(&workload.write_sites.cdf, oracle_rng.random()),
                    )
                };
                let got = workload.sample(&mut rng);
                assert_eq!(got, want, "seed {seed}");
                let frac = match got.0 {
                    Access::Read => workload.read_frac(),
                    Access::Write => workload.write_frac(),
                };
                assert!(frac[got.1] > 0.0, "zero-weight site {} drawn", got.1);
            }
            assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "draws consumed");
        }
    }

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
