//! Star-network densities (an asymmetric extension of §4.2).
//!
//! The paper's closed forms (ring, fully-connected, bus) are all
//! vertex-transitive: every site shares one `f`. A star — hub site `0`,
//! `n−1` leaves, each leaf attached by its own link of reliability `r` —
//! is the simplest topology where the densities *differ by site*, so it
//! exercises the full step-2 mixture `r(v) = Σ r_i f_i(v)` of Figure 1:
//!
//! * **hub**: down with probability `1−p`; otherwise its component is
//!   itself plus `Binomial(n−1, p·r)` attached leaves;
//! * **leaf**: down with probability `1−p`; isolated (`v = 1`) when its
//!   link or the hub is down; otherwise itself + hub +
//!   `Binomial(n−2, p·r)` other leaves.

use super::{check_prob, choose};
use quorum_stats::DiscreteDist;

fn binomial_pmf(n: usize, k: usize, p: f64) -> f64 {
    choose(n, k) * p.powi(k as i32) * (1.0 - p).powi((n - k) as i32)
}

/// Exact `f_hub(v)` for the hub of an `n`-site star.
pub(crate) fn star_hub_density(n: usize, p: f64, r: f64) -> DiscreteDist {
    assert!(n >= 2, "a star needs at least 2 sites");
    check_prob("site reliability p", p);
    check_prob("link reliability r", r);
    let mut pmf = vec![0.0; n + 1];
    pmf[0] = 1.0 - p;
    let attach = p * r; // a given leaf is up and its link is up
    for k in 0..n {
        // k attached leaves → component size k + 1.
        pmf[k + 1] = p * binomial_pmf(n - 1, k, attach);
    }
    DiscreteDist::from_pmf(pmf)
}

/// Exact `f_leaf(v)` for any leaf of an `n`-site star.
pub(crate) fn star_leaf_density(n: usize, p: f64, r: f64) -> DiscreteDist {
    assert!(n >= 2, "a star needs at least 2 sites");
    check_prob("site reliability p", p);
    check_prob("link reliability r", r);
    let mut pmf = vec![0.0; n + 1];
    pmf[0] = 1.0 - p;
    let attach = p * r;
    // Up but isolated: own link down, or hub down.
    pmf[1] = p * (1.0 - r * p);
    // Connected through the hub: self + hub + k of the n−2 other leaves.
    for k in 0..n.saturating_sub(1) {
        if n >= 2 {
            pmf[k + 2] += p * r * p * binomial_pmf(n - 2, k, attach);
        }
    }
    DiscreteDist::from_pmf(pmf)
}

/// The per-site density list for a star (`site 0` = hub), ready for
/// [`crate::availability::AvailabilityModel::from_site_densities`].
pub fn star_densities(n: usize, p: f64, r: f64) -> Vec<DiscreteDist> {
    let hub = star_hub_density(n, p, r);
    let leaf = star_leaf_density(n, p, r);
    let mut out = Vec::with_capacity(n);
    out.push(hub);
    for _ in 1..n {
        out.push(leaf.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_densities_normalize() {
        for &(n, p, r) in &[
            (2usize, 0.9, 0.9),
            (5, 0.96, 0.96),
            (25, 0.5, 0.7),
            (101, 0.96, 0.96),
        ] {
            for (name, d) in [
                ("hub", star_hub_density(n, p, r)),
                ("leaf", star_leaf_density(n, p, r)),
            ] {
                let s = d.total_mass();
                assert!((s - 1.0).abs() < 1e-9, "{name}({n},{p},{r}) mass = {s}");
            }
        }
    }

    #[test]
    fn perfect_star_is_point_mass() {
        let hub = star_hub_density(7, 1.0, 1.0);
        let leaf = star_leaf_density(7, 1.0, 1.0);
        assert!((hub.pmf(7) - 1.0).abs() < 1e-12);
        assert!((leaf.pmf(7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hub_sees_larger_components_than_leaves() {
        let hub = star_hub_density(15, 0.9, 0.9);
        let leaf = star_leaf_density(15, 0.9, 0.9);
        assert!(
            hub.mean() > leaf.mean(),
            "{} vs {}",
            hub.mean(),
            leaf.mean()
        );
    }

    #[test]
    fn leaf_isolation_probability() {
        let (n, p, r) = (9usize, 0.9, 0.8);
        let leaf = star_leaf_density(n, p, r);
        // Up but isolated: link down OR (link up, hub down).
        let expect = p * ((1.0 - r) + r * (1.0 - p));
        assert!((leaf.pmf(1) - expect).abs() < 1e-12);
        // Hub isolated: all n−1 leaves unattached.
        let hub = star_hub_density(n, p, r);
        let expect_hub = p * (1.0 - p * r).powi((n - 1) as i32);
        assert!((hub.pmf(1) - expect_hub).abs() < 1e-12);
    }

    #[test]
    fn matches_monte_carlo() {
        use quorum_stats::rng::{bernoulli, rng_from_seed};
        let (n, p, r) = (6usize, 0.85, 0.75);
        let hub_analytic = star_hub_density(n, p, r);
        let leaf_analytic = star_leaf_density(n, p, r);
        let mut rng = rng_from_seed(2718);
        let trials = 300_000;
        let mut hub_counts = vec![0u64; n + 1];
        let mut leaf_counts = vec![0u64; n + 1];
        for _ in 0..trials {
            let sites: Vec<bool> = (0..n).map(|_| bernoulli(&mut rng, p)).collect();
            let links: Vec<bool> = (0..n - 1).map(|_| bernoulli(&mut rng, r)).collect();
            // Component sizes: hub (site 0) and leaf (site 1; its link is
            // links[0]).
            let attached = |i: usize| sites[i] && links[i - 1] && sites[0];
            let comp_hub = if !sites[0] {
                0
            } else {
                1 + (1..n).filter(|&i| attached(i)).count()
            };
            let comp_leaf = if !sites[1] {
                0
            } else if !links[0] || !sites[0] {
                1
            } else {
                comp_hub
            };
            hub_counts[comp_hub] += 1;
            leaf_counts[comp_leaf] += 1;
        }
        for v in 0..=n {
            let h = hub_counts[v] as f64 / trials as f64;
            let l = leaf_counts[v] as f64 / trials as f64;
            assert!(
                (h - hub_analytic.pmf(v)).abs() < 0.005,
                "hub v={v}: {h} vs {}",
                hub_analytic.pmf(v)
            );
            assert!(
                (l - leaf_analytic.pmf(v)).abs() < 0.005,
                "leaf v={v}: {l} vs {}",
                leaf_analytic.pmf(v)
            );
        }
    }

    #[test]
    fn densities_list_shape() {
        let ds = star_densities(5, 0.9, 0.9);
        assert_eq!(ds.len(), 5);
        assert_eq!(ds[0], star_hub_density(5, 0.9, 0.9));
        assert_eq!(ds[1], ds[4]);
    }

    #[test]
    fn hub_weighted_access_changes_optimum() {
        // The point of an asymmetric density: where accesses originate
        // matters. All traffic at the hub sees bigger components than all
        // traffic at a leaf, so read availability at any quorum dominates.
        use crate::availability::AvailabilityModel;
        let n = 11;
        let ds = star_densities(n, 0.9, 0.8);
        let mut hub_only = vec![0.0; n];
        hub_only[0] = 1.0;
        let mut leaf_only = vec![0.0; n];
        leaf_only[1] = 1.0;
        let hub_model = AvailabilityModel::from_site_densities(&ds, &hub_only, &hub_only);
        let leaf_model = AvailabilityModel::from_site_densities(&ds, &leaf_only, &leaf_only);
        for q in 2..=5u64 {
            assert!(
                hub_model.read_availability(q) > leaf_model.read_availability(q),
                "q = {q}"
            );
        }
    }
}
