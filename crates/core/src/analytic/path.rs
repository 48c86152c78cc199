//! Path (line) network densities — a second asymmetric extension of §4.2.
//!
//! A path of `n` sites (links `(i, i+1)`) is the ring with one link
//! removed; its component containing site `i` is the maximal run of up
//! sites and up links around `i`, but unlike the ring the density depends
//! on `i`'s distance to the ends. For the run `[a, b] ∋ i`:
//!
//! * the `b − a + 1` sites are up and the `b − a` internal links are up;
//! * the left boundary is blocked unless `a = 0` (site `a−1` down, or the
//!   link into it down): factor `1 − p·r`;
//! * symmetrically on the right unless `b = n−1`.
//!
//! Summing over the `O(n²)` runs gives an exact `O(n²)` per-site density —
//! cheap, and a useful validation case because `f_i` differs by site.

use super::check_prob;
use quorum_stats::DiscreteDist;

/// Exact `f_i(v)` for site `site` of an `n`-site path.
pub(crate) fn path_density(n: usize, p: f64, r: f64, site: usize) -> DiscreteDist {
    assert!(n >= 2, "a path needs at least 2 sites");
    assert!(site < n, "site {site} out of range");
    check_prob("site reliability p", p);
    check_prob("link reliability r", r);
    let block = 1.0 - p * r;
    let mut pmf = vec![0.0; n + 1];
    pmf[0] = 1.0 - p;
    for a in 0..=site {
        for b in site..n {
            let len = b - a + 1;
            let mut prob = p.powi(len as i32) * r.powi((len - 1) as i32);
            if a > 0 {
                prob *= block;
            }
            if b < n - 1 {
                prob *= block;
            }
            pmf[len] += prob;
        }
    }
    DiscreteDist::from_pmf(pmf)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_for_every_site() {
        for &(n, p, r) in &[(2usize, 0.9, 0.8), (7, 0.96, 0.96), (25, 0.5, 0.7)] {
            for site in 0..n {
                let d = path_density(n, p, r, site);
                let s = d.total_mass();
                assert!((s - 1.0).abs() < 1e-9, "path({n},{p},{r}) site {site}: {s}");
            }
        }
    }

    #[test]
    fn symmetric_sites_have_equal_densities() {
        let n = 9;
        for site in 0..n {
            let a = path_density(n, 0.9, 0.8, site);
            let b = path_density(n, 0.9, 0.8, n - 1 - site);
            assert!(a.max_abs_diff(&b) < 1e-12, "site {site} vs mirror");
        }
    }

    #[test]
    fn middle_site_sees_larger_components_than_endpoint() {
        let n = 15;
        let end = path_density(n, 0.9, 0.9, 0);
        let mid = path_density(n, 0.9, 0.9, n / 2);
        assert!(mid.mean() > end.mean(), "{} vs {}", mid.mean(), end.mean());
    }

    #[test]
    fn perfect_path_is_point_mass() {
        let d = path_density(8, 1.0, 1.0, 3);
        assert!((d.pmf(8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_site_path_by_hand() {
        // Site 0 of a 2-path: v=2 iff both up and the link up; v=1 iff up
        // and (other down or link down); v=0 iff down.
        let (p, r) = (0.8, 0.7);
        let d = path_density(2, p, r, 0);
        assert!((d.pmf(2) - p * p * r).abs() < 1e-12);
        assert!((d.pmf(1) - p * (1.0 - p * r)).abs() < 1e-12);
        assert!((d.pmf(0) - (1.0 - p)).abs() < 1e-12);
    }

    #[test]
    fn matches_monte_carlo() {
        use quorum_stats::rng::{bernoulli, rng_from_seed};
        let (n, p, r, site) = (6usize, 0.85, 0.75, 2usize);
        let analytic = path_density(n, p, r, site);
        let mut rng = rng_from_seed(99);
        let trials = 300_000;
        let mut counts = vec![0u64; n + 1];
        for _ in 0..trials {
            let sites: Vec<bool> = (0..n).map(|_| bernoulli(&mut rng, p)).collect();
            let links: Vec<bool> = (0..n - 1).map(|_| bernoulli(&mut rng, r)).collect();
            let v = if !sites[site] {
                0
            } else {
                let mut lo = site;
                while lo > 0 && links[lo - 1] && sites[lo - 1] {
                    lo -= 1;
                }
                let mut hi = site;
                while hi + 1 < n && links[hi] && sites[hi + 1] {
                    hi += 1;
                }
                hi - lo + 1
            };
            counts[v] += 1;
        }
        for v in 0..=n {
            let emp = counts[v] as f64 / trials as f64;
            assert!(
                (emp - analytic.pmf(v)).abs() < 0.005,
                "v={v}: {emp} vs {}",
                analytic.pmf(v)
            );
        }
    }

    #[test]
    fn path_density_below_ring_density() {
        // Removing the wrap link can only shrink components: the ring's
        // tail dominates the path's for every site and threshold.
        let n = 11;
        let ring = crate::analytic::ring_density(n, 0.9, 0.9);
        for site in 0..n {
            let path = path_density(n, 0.9, 0.9, site);
            for v in 1..=n {
                assert!(
                    ring.tail_sum(v) >= path.tail_sum(v) - 1e-12,
                    "site {site}, v {v}"
                );
            }
        }
    }
}
