//! Single-bus densities (§4.2).
//!
//! `n` sites share one bus of reliability `r`; sites have reliability `p`.
//! When the bus is up, the up sites form one component (size Binomial);
//! when it is down the two architectural variants differ:
//!
//! * **Sites fail with the bus** — no site functions without the bus:
//!   `f_i(v) = C(n−1, v−1) r p^v (1−p)^{n−v}` for `v ≥ 1`, and the
//!   remaining mass `1 − r p` at `v = 0`.
//! * **Sites independent** — an up site survives a bus failure as a
//!   singleton component. The paper abbreviates this case's `v = 1` entry
//!   to "`p`"; the exact density (which we implement, since it must
//!   normalize) is
//!
//!   ```text
//!   f_i(0) = 1 − p
//!   f_i(1) = p (1 − r) + r p (1−p)^{n−1}
//!   f_i(v) = C(n−1, v−1) r p^v (1−p)^{n−v},     v ≥ 2.
//!   ```
//!
//!   The deviation from the paper's piecewise display is recorded in
//!   DESIGN.md (their `f(1) = p` cannot be literal: the sum would exceed
//!   one).

use super::{check_prob, check_sites, choose, enforce};
use quorum_stats::DiscreteDist;

fn binomial_term(n: usize, v: usize, p: f64) -> f64 {
    choose(n - 1, v - 1) * p.powi(v as i32) * (1.0 - p).powi((n - v) as i32)
}

/// Density for the "no site functions when the bus is down" design.
#[allow(clippy::needless_range_loop)] // indexing pmf[v] mirrors the formulas
pub fn bus_density_sites_fail(n: usize, p: f64, r: f64) -> DiscreteDist {
    enforce(check_sites(n));
    check_prob("site reliability p", p);
    check_prob("bus reliability r", r);
    let mut pmf = vec![0.0; n + 1];
    for v in 1..=n {
        pmf[v] = r * binomial_term(n, v, p);
    }
    pmf[0] = 1.0 - r * p;
    DiscreteDist::from_pmf(pmf)
}

/// Density for the "sites survive a bus failure as singletons" design.
#[allow(clippy::needless_range_loop)] // indexing pmf[v] mirrors the formulas
pub fn bus_density_sites_independent(n: usize, p: f64, r: f64) -> DiscreteDist {
    enforce(check_sites(n));
    check_prob("site reliability p", p);
    check_prob("bus reliability r", r);
    let mut pmf = vec![0.0; n + 1];
    pmf[0] = 1.0 - p;
    for v in 2..=n {
        pmf[v] = r * binomial_term(n, v, p);
    }
    pmf[1] = p * (1.0 - r)
        + if n >= 1 {
            r * binomial_term(n, 1, p)
        } else {
            0.0
        };
    DiscreteDist::from_pmf(pmf)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn both_variants_normalize() {
        for &(n, p, r) in &[
            (1usize, 0.9, 0.8),
            (5, 0.96, 0.96),
            (20, 0.5, 0.5),
            (101, 0.96, 0.96),
        ] {
            for (name, d) in [
                ("fail", bus_density_sites_fail(n, p, r)),
                ("indep", bus_density_sites_independent(n, p, r)),
            ] {
                let s = d.total_mass();
                assert!((s - 1.0).abs() < 1e-9, "bus-{name}({n},{p},{r}) = {s}");
            }
        }
    }

    #[test]
    fn sites_fail_variant_zero_mass() {
        let d = bus_density_sites_fail(10, 0.9, 0.8);
        // Down ⟺ bus down or own site down: 1 − 0.72.
        assert!((d.pmf(0) - (1.0 - 0.72)).abs() < 1e-12);
    }

    #[test]
    fn independent_variant_down_only_when_site_down() {
        let d = bus_density_sites_independent(10, 0.9, 0.8);
        assert!((d.pmf(0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn independent_singleton_includes_bus_failure() {
        let (n, p, r) = (6usize, 0.9, 0.7);
        let d = bus_density_sites_independent(n, p, r);
        let expect = p * (1.0 - r) + r * p * (1.0 - p).powi((n - 1) as i32);
        assert!((d.pmf(1) - expect).abs() < 1e-12);
    }

    #[test]
    fn perfect_bus_makes_variants_agree() {
        let a = bus_density_sites_fail(8, 0.85, 1.0);
        let b = bus_density_sites_independent(8, 0.85, 1.0);
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn perfect_everything_is_point_mass() {
        let d = bus_density_sites_fail(12, 1.0, 1.0);
        assert!((d.pmf(12) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bus_up_component_is_binomial() {
        // Conditional on bus up and site i up, |component| − 1 ~
        // Binomial(n−1, p). Check one interior value.
        let (n, p, r) = (5usize, 0.6, 0.9);
        let d = bus_density_sites_fail(n, p, r);
        let v = 3;
        let expect = r * choose(4, 2) * p.powi(3) * (1.0 - p).powi(2);
        assert!((d.pmf(v) - expect).abs() < 1e-12);
    }

    #[test]
    fn matches_monte_carlo_independent() {
        use quorum_stats::rng::{bernoulli, rng_from_seed};
        let (n, p, r) = (5usize, 0.8, 0.6);
        let analytic = bus_density_sites_independent(n, p, r);
        let mut rng = rng_from_seed(314);
        let trials = 300_000;
        let mut counts = vec![0u64; n + 1];
        for _ in 0..trials {
            let bus = bernoulli(&mut rng, r);
            let sites: Vec<bool> = (0..n).map(|_| bernoulli(&mut rng, p)).collect();
            let v = if !sites[0] {
                0
            } else if bus {
                sites.iter().filter(|&&s| s).count()
            } else {
                1
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
