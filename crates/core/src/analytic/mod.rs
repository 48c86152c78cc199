//! Closed-form component-vote densities `f_i(v)` for symmetric topologies
//! (§4.2 of the paper).
//!
//! For a ring, a fully-connected network, and a single bus, `f_i(v)` — the
//! probability that site `i` lies in a component holding exactly `v` votes
//! (one vote per site, so `v` is also the component's site count) — has a
//! closed form. For general graphs the computation is #P-complete (the
//! paper, citing its companion \[14\]); [`crate::SiteEstimators`]
//! provides the on-line approximation used instead.
//!
//! All functions here assume uniform one-vote-per-site assignments and
//! i.i.d. site reliability `p` and link reliability `r`, matching the
//! paper's formulas.

mod bus;
mod fully_connected;
mod ring;
mod star;

pub use bus::{bus_density_sites_fail, bus_density_sites_independent};
pub use fully_connected::{fully_connected_density, gilbert_rel};
pub use ring::{check_ring_sites, ring_density};
pub use star::star_densities;

/// Checks a site or link reliability, returning the violated rule.
pub fn check_reliability(x: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&x) {
        Ok(())
    } else {
        Err("reliability must lie in [0,1]".to_string())
    }
}

/// Checks the site count of [`fully_connected_density`] and of both bus
/// densities (at least one site), returning the violated rule.
pub fn check_sites(n: usize) -> Result<(), String> {
    if n >= 1 {
        Ok(())
    } else {
        Err("need at least one site".to_string())
    }
}

/// Panics with the violated rule, if any.
pub(crate) fn enforce(check: Result<(), String>) {
    if let Err(rule) = check {
        panic!("{rule}");
    }
}

/// Validates a probability parameter.
pub(crate) fn check_prob(name: &str, x: f64) {
    if let Err(rule) = check_reliability(x) {
        panic!("{name} = {x}: {rule}");
    }
}

/// `ln C(n, k)` via `ln Γ`; exact enough for the moderate `n` used here.
pub(crate) fn ln_choose(n: usize, k: usize) -> f64 {
    assert!(k <= n, "C({n},{k}) undefined");
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// `ln n!` by direct summation (cached would be overkill: `n ≤` a few
/// hundred in every caller, and callers precompute tables anyway).
pub(crate) fn ln_factorial(n: usize) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

/// Binomial coefficient as `f64` (overflow-safe via logs for large args).
pub(crate) fn choose(n: usize, k: usize) -> f64 {
    if k > n {
        return 0.0;
    }
    if n <= 60 {
        // Exact integer path.
        let mut acc = 1f64;
        let k = k.min(n - k);
        for i in 0..k {
            acc = acc * (n - i) as f64 / (i + 1) as f64;
        }
        acc
    } else {
        ln_choose(n, k).exp()
    }
}

// Exact path-network densities; only the tests use them.
#[cfg(test)]
mod path;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choose_small_values() {
        assert_eq!(choose(5, 2), 10.0);
        assert_eq!(choose(10, 0), 1.0);
        assert_eq!(choose(10, 10), 1.0);
        assert_eq!(choose(4, 5), 0.0);
    }

    #[test]
    fn choose_large_values_match_logs() {
        let direct = choose(100, 50);
        // C(100,50) ≈ 1.0089134e29.
        assert!((direct / 1.008_913_4e29 - 1.0).abs() < 1e-5, "{direct}");
    }

    #[test]
    fn pascal_identity() {
        for n in 1..80 {
            for k in 1..n {
                let lhs = choose(n, k);
                let rhs = choose(n - 1, k - 1) + choose(n - 1, k);
                assert!(
                    ((lhs - rhs) / rhs).abs() < 1e-10,
                    "C({n},{k}): {lhs} vs {rhs}"
                );
            }
        }
    }

    #[test]
    fn ln_factorial_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must lie in [0,1]")]
    fn check_prob_rejects() {
        check_prob("p", 1.2);
    }
}
