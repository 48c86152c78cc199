//! Fully-connected density via Gilbert's recursion (§4.2).
//!
//! `Rel(m, r)` is the probability that all `m` sites of a complete graph
//! with perfectly reliable sites and link reliability `r` can mutually
//! communicate. Gilbert (1959):
//!
//! ```text
//! Rel(m, r) = 1 − Σ_{i=1}^{m−1} C(m−1, i−1) (1−r)^{i(m−i)} Rel(i, r)
//! ```
//!
//! (the subtracted terms partition the failure event by the component
//! containing site 1). With site reliability `p` the density is
//!
//! ```text
//! f_i(v) = C(n−1, v−1) p^v ((1−p) + p(1−r)^v)^{n−v} Rel(v, r),   v ≥ 1
//! f_i(0) = 1 − p
//! ```
//!
//! — choose the `v−1` companions of site `i`, all `v` up and mutually
//! connected, and every outside site either down or with all `v` of its
//! links into the component down.

use super::{check_prob, check_sites, choose, enforce};
use quorum_stats::DiscreteDist;

/// Computes `Rel(1..=m, r)` in one O(m²) pass; `out[k] = Rel(k, r)`.
/// Index 0 is unused (`Rel(0)` set to 1 by convention).
#[allow(clippy::needless_range_loop)] // rel[i] indexing mirrors Gilbert's recursion
pub(crate) fn gilbert_rel_table(m: usize, r: f64) -> Vec<f64> {
    check_prob("link reliability r", r);
    let q = 1.0 - r;
    let mut rel = vec![1.0; m + 1];
    for k in 2..=m {
        let mut sum = 0.0;
        for i in 1..k {
            sum += choose(k - 1, i - 1) * q.powi((i * (k - i)) as i32) * rel[i];
        }
        rel[k] = (1.0 - sum).clamp(0.0, 1.0);
    }
    rel
}

/// `Rel(m, r)`: probability a complete graph of `m` perfectly-reliable
/// sites with link reliability `r` is connected.
pub fn gilbert_rel(m: usize, r: f64) -> f64 {
    assert!(m >= 1, "Rel needs at least one site");
    gilbert_rel_table(m, r)[m]
}

/// Exact `f_i(v)` for a fully-connected network of `n` sites (site
/// reliability `p`, link reliability `r`, one vote per site).
#[allow(clippy::needless_range_loop)] // indexing pmf[v] mirrors the formula
pub fn fully_connected_density(n: usize, p: f64, r: f64) -> DiscreteDist {
    enforce(check_sites(n));
    check_prob("site reliability p", p);
    check_prob("link reliability r", r);
    let rel = gilbert_rel_table(n, r);
    let q = 1.0 - r;
    let mut pmf = vec![0.0; n + 1];
    pmf[0] = 1.0 - p;
    for v in 1..=n {
        let outside = (1.0 - p) + p * q.powi(v as i32);
        pmf[v] = choose(n - 1, v - 1) * p.powi(v as i32) * outside.powi((n - v) as i32) * rel[v];
    }
    // Tiny negative clamps can arise from Rel clamping; renormalize the
    // residual rounding (sum deviates from 1 only at ~1e-12 scale).
    DiscreteDist::from_pmf(pmf)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn rel_base_cases() {
        assert_eq!(gilbert_rel(1, 0.5), 1.0);
        // Two sites: connected iff the single link is up.
        assert!((gilbert_rel(2, 0.7) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn rel_three_sites_manual() {
        // Three links; connected iff ≥ 2 links up... plus all 3.
        // P = 3 r² (1−r) + r³  (exactly two up: any pair keeps connectivity)
        let r = 0.8;
        let expect = 3.0 * r * r * (1.0 - r) + r * r * r;
        assert!((gilbert_rel(3, r) - expect).abs() < 1e-12);
    }

    #[test]
    fn rel_extremes() {
        for m in 1..=20 {
            assert!((gilbert_rel(m, 1.0) - 1.0).abs() < 1e-12);
            if m >= 2 {
                assert!(gilbert_rel(m, 0.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rel_monotone_in_r() {
        for m in [2usize, 5, 10, 25] {
            let mut prev = 0.0;
            for step in 0..=10 {
                let r = step as f64 / 10.0;
                let rel = gilbert_rel(m, r);
                assert!(rel >= prev - 1e-12, "Rel({m}, {r}) decreased");
                assert!((0.0..=1.0).contains(&rel));
                prev = rel;
            }
        }
    }

    #[test]
    fn rel_increases_with_m_for_high_r() {
        // With reliable links, bigger complete graphs are better connected
        // (more redundant paths).
        let r = 0.9;
        assert!(gilbert_rel(10, r) > gilbert_rel(3, r));
    }

    #[test]
    fn rel_matches_monte_carlo() {
        use quorum_stats::rng::{bernoulli, rng_from_seed};
        let (m, r) = (6usize, 0.6);
        let analytic = gilbert_rel(m, r);
        let mut rng = rng_from_seed(99);
        let trials = 200_000;
        let mut connected = 0u64;
        for _ in 0..trials {
            // Sample each of the C(6,2)=15 links.
            let mut adj = [[false; 6]; 6];
            for a in 0..m {
                for b in a + 1..m {
                    if bernoulli(&mut rng, r) {
                        adj[a][b] = true;
                        adj[b][a] = true;
                    }
                }
            }
            let mut seen = [false; 6];
            seen[0] = true;
            let mut stack = vec![0usize];
            while let Some(s) = stack.pop() {
                for t in 0..m {
                    if adj[s][t] && !seen[t] {
                        seen[t] = true;
                        stack.push(t);
                    }
                }
            }
            if seen.iter().all(|&x| x) {
                connected += 1;
            }
        }
        let emp = connected as f64 / trials as f64;
        assert!(
            (emp - analytic).abs() < 0.005,
            "empirical {emp} vs Rel {analytic}"
        );
    }

    #[test]
    fn density_normalizes() {
        for &(n, p, r) in &[
            (2usize, 0.9, 0.9),
            (5, 0.96, 0.96),
            (25, 0.96, 0.96),
            (101, 0.96, 0.96),
            (10, 0.5, 0.5),
        ] {
            let d = fully_connected_density(n, p, r);
            let s = d.total_mass();
            assert!((s - 1.0).abs() < 1e-6, "fc({n},{p},{r}) mass = {s}");
        }
    }

    #[test]
    fn density_perfect_network() {
        let d = fully_connected_density(9, 1.0, 1.0);
        assert!((d.pmf(9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_zero_links_isolates_sites() {
        // r = 0: every up site is a singleton.
        let d = fully_connected_density(7, 0.8, 0.0);
        assert!((d.pmf(1) - 0.8).abs() < 1e-12);
        assert!((d.pmf(0) - 0.2).abs() < 1e-12);
        for v in 2..=7 {
            assert_eq!(d.pmf(v), 0.0);
        }
    }

    #[test]
    fn paper_scale_density_concentrates_high() {
        // 101 sites, 96%-reliable components, complete graph: the giant
        // component contains nearly all up sites, so mass concentrates
        // near Binomial(100, .96) ≈ 97.
        let d = fully_connected_density(101, 0.96, 0.96);
        let mean = d.mean();
        assert!(mean > 90.0, "mean = {mean}");
        assert!(d.tail_sum(90) > 0.9, "tail(90) = {}", d.tail_sum(90));
    }

    #[test]
    fn density_matches_monte_carlo_small() {
        use quorum_stats::rng::{bernoulli, rng_from_seed};
        let (n, p, r) = (5usize, 0.85, 0.7);
        let analytic = fully_connected_density(n, p, r);
        let mut rng = rng_from_seed(7);
        let trials = 300_000;
        let mut counts = vec![0u64; n + 1];
        for _ in 0..trials {
            let sites: Vec<bool> = (0..n).map(|_| bernoulli(&mut rng, p)).collect();
            let mut adj = vec![vec![false; n]; n];
            for a in 0..n {
                for b in a + 1..n {
                    if bernoulli(&mut rng, r) {
                        adj[a][b] = true;
                        adj[b][a] = true;
                    }
                }
            }
            let v = if !sites[0] {
                0
            } else {
                let mut seen = vec![false; n];
                seen[0] = true;
                let mut stack = vec![0usize];
                let mut count = 1;
                while let Some(s) = stack.pop() {
                    for t in 0..n {
                        if adj[s][t] && sites[t] && !seen[t] {
                            seen[t] = true;
                            count += 1;
                            stack.push(t);
                        }
                    }
                }
                count
            };
            counts[v] += 1;
        }
        for v in 0..=n {
            let emp = counts[v] as f64 / trials as f64;
            assert!(
                (emp - analytic.pmf(v)).abs() < 0.005,
                "v = {v}: {emp} vs {}",
                analytic.pmf(v)
            );
        }
    }
}
