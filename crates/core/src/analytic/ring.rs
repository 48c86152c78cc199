//! Ring density (§4.2).
//!
//! For a ring of `n` sites with one copy and one vote per site
//! (`T = n`), with site reliability `p` and link reliability `r`:
//!
//! ```text
//! f_i(v) = ⎧ v p^v r^{v−1} (1−r) + p^v r^v                      v = n = T
//!          ⎨ v p^v r^{v−1} ((1−p) + p (1−r)²)                   v = T − 1
//!          ⎨ v p^v r^{v−1} (1 − p r)²                           0 < v < T − 1
//!          ⎩ 1 − p                                              v = 0
//! ```
//!
//! Intuition: a component of `v < n` consecutive sites containing site `i`
//! can start at `v` positions; its `v` sites are up (`p^v`), its `v−1`
//! internal links up (`r^{v−1}`), and each of its two boundaries is blocked
//! by a down neighbor site or a down link (`1 − p r` each). The `v = T−1`
//! and `v = T` cases account for the shared excluded site / the wrap.

use super::{check_prob, enforce};
use quorum_stats::DiscreteDist;

/// Checks the site count of [`ring_density`], returning the violated rule.
pub fn check_ring_sites(n: usize) -> Result<(), String> {
    if n >= 3 {
        Ok(())
    } else {
        Err("a ring needs at least 3 sites".to_string())
    }
}

/// Exact `f_i(v)` for a ring (any site — the ring is vertex-transitive).
///
/// # Panics
/// Panics if `n < 3` or probabilities are outside `[0, 1]`.
#[allow(clippy::needless_range_loop)] // indexing pmf[v] mirrors the paper's piecewise formula
pub fn ring_density(n: usize, p: f64, r: f64) -> DiscreteDist {
    enforce(check_ring_sites(n));
    check_prob("site reliability p", p);
    check_prob("link reliability r", r);
    let mut pmf = vec![0.0; n + 1];
    pmf[0] = 1.0 - p;
    for v in 1..=n {
        let vf = v as f64;
        let base = vf * p.powi(v as i32) * r.powi(v as i32 - 1);
        pmf[v] = if v == n {
            base * (1.0 - r) + p.powi(n as i32) * r.powi(n as i32)
        } else if v == n - 1 {
            base * ((1.0 - p) + p * (1.0 - r) * (1.0 - r))
        } else {
            base * (1.0 - p * r) * (1.0 - p * r)
        };
    }
    DiscreteDist::from_pmf(pmf)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_to_one() {
        for &(n, p, r) in &[
            (3usize, 0.9, 0.9),
            (5, 0.96, 0.96),
            (10, 0.5, 0.7),
            (101, 0.96, 0.96),
            (7, 1.0, 0.5),
            (7, 0.5, 1.0),
        ] {
            let d = ring_density(n, p, r);
            let s = d.total_mass();
            assert!((s - 1.0).abs() < 1e-9, "ring({n}, {p}, {r}) mass = {s}");
        }
    }

    #[test]
    fn perfect_components_give_full_ring() {
        let d = ring_density(8, 1.0, 1.0);
        assert!((d.pmf(8) - 1.0).abs() < 1e-12);
        assert_eq!(d.pmf(0), 0.0);
    }

    #[test]
    fn perfect_links_reduce_to_site_runs() {
        // r = 1: component = maximal run of up sites around site i.
        // For v < n: f(v) = v p^v (1-p)^2; v = n: p^n (+ n p^n (1-1) = 0).
        let (n, p) = (6usize, 0.8);
        let d = ring_density(n, p, 1.0);
        for v in 1..n - 1 {
            let expect = v as f64 * p.powi(v as i32) * (1.0 - p) * (1.0 - p);
            assert!((d.pmf(v) - expect).abs() < 1e-12, "v = {v}");
        }
        assert!((d.pmf(n) - p.powi(n as i32)).abs() < 1e-12);
    }

    #[test]
    fn down_probability_is_one_minus_p() {
        let d = ring_density(5, 0.96, 0.5);
        assert!((d.pmf(0) - 0.04).abs() < 1e-12);
    }

    #[test]
    fn matches_monte_carlo() {
        // Cross-validate the closed form against direct sampling of a
        // 7-ring with p = 0.9, r = 0.8.
        use quorum_stats::rng::{bernoulli, rng_from_seed};
        let (n, p, r) = (7usize, 0.9, 0.8);
        let analytic = ring_density(n, p, r);
        let mut rng = rng_from_seed(12345);
        let trials = 400_000;
        let mut counts = vec![0u64; n + 1];
        for _ in 0..trials {
            let sites: Vec<bool> = (0..n).map(|_| bernoulli(&mut rng, p)).collect();
            let links: Vec<bool> = (0..n).map(|_| bernoulli(&mut rng, r)).collect();
            // Component of site 0 (link j connects j and j+1 mod n).
            let v = if !sites[0] {
                0
            } else {
                let mut members = vec![false; n];
                members[0] = true;
                let mut stack = vec![0usize];
                while let Some(s) = stack.pop() {
                    let fwd = (s + 1) % n;
                    if links[s] && sites[fwd] && !members[fwd] {
                        members[fwd] = true;
                        stack.push(fwd);
                    }
                    let back = (s + n - 1) % n;
                    if links[back] && sites[back] && !members[back] {
                        members[back] = true;
                        stack.push(back);
                    }
                }
                members.iter().filter(|&&m| m).count()
            };
            counts[v] += 1;
        }
        for v in 0..=n {
            let emp = counts[v] as f64 / trials as f64;
            assert!(
                (emp - analytic.pmf(v)).abs() < 0.004,
                "v = {v}: empirical {emp} vs analytic {}",
                analytic.pmf(v)
            );
        }
    }

    #[test]
    fn mean_component_size_reasonable() {
        // 96%-reliable everything on a 101-ring: failures scattered around
        // the ring chop it into short runs, so the mean reachable size is
        // far below n.
        let d = ring_density(101, 0.96, 0.96);
        let m = d.mean();
        assert!(m > 5.0 && m < 40.0, "mean = {m}");
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_rejected() {
        ring_density(2, 0.9, 0.9);
    }
}
