//! Alternating up/down renewal processes for sites and links.
//!
//! §5.1–5.2: components are fail-stop with exponential time-to-failure
//! (mean `μ_f`) and exponential time-to-repair (mean `μ_r`); "each component
//! is 96 % reliable", i.e. `μ_f / (μ_f + μ_r) = 0.96`. The long-run
//! fraction of time up for such an alternating renewal process is exactly
//! that ratio.

use quorum_stats::rng::exponential;
use rand::Rng;

/// An alternating up/down renewal process.
#[derive(Debug, Clone, Copy)]
pub struct OnOffProcess {
    /// Mean up duration (time-to-failure).
    mu_fail: f64,
    /// Mean down duration (time-to-repair).
    mu_repair: f64,
    /// Current state.
    up: bool,
}

impl OnOffProcess {
    /// Creates a process that starts up.
    ///
    /// # Panics
    /// Panics unless both means are positive and finite.
    pub(crate) fn new(mu_fail: f64, mu_repair: f64) -> Self {
        assert!(mu_fail > 0.0 && mu_fail.is_finite(), "μ_f must be positive");
        assert!(
            mu_repair > 0.0 && mu_repair.is_finite(),
            "μ_r must be positive"
        );
        Self {
            mu_fail,
            mu_repair,
            up: true,
        }
    }

    /// Creates a process from a target long-run `reliability` and a mean
    /// time-to-failure, solving `μ_r = μ_f (1 − rel) / rel`.
    ///
    /// # Panics
    /// Panics unless `0 < reliability < 1`.
    pub fn from_reliability(reliability: f64, mu_fail: f64) -> Self {
        assert!(
            reliability > 0.0 && reliability < 1.0,
            "reliability must lie in (0,1), got {reliability}"
        );
        let mu_repair = mu_fail * (1.0 - reliability) / reliability;
        Self::new(mu_fail, mu_repair)
    }

    /// Whether the process is currently up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Long-run fraction of time up.
    pub fn reliability(&self) -> f64 {
        self.mu_fail / (self.mu_fail + self.mu_repair)
    }

    /// Samples the time until the next transition from the current state,
    /// then toggles the state. Returns `(gap, new_state_is_up)`.
    pub fn next_transition<R: Rng + ?Sized>(&mut self, rng: &mut R) -> (f64, bool) {
        let mean = if self.up {
            self.mu_fail
        } else {
            self.mu_repair
        };
        let gap = exponential(rng, 1.0 / mean);
        self.up = !self.up;
        (gap, self.up)
    }
}

#[cfg(test)]
impl OnOffProcess {
    /// Mean time-to-repair.
    fn mu_repair(&self) -> f64 {
        self.mu_repair
    }

    /// Resets to the up state (start of a fresh batch).
    fn reset_up(&mut self) {
        self.up = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_stats::rng::rng_from_seed;

    #[test]
    fn from_reliability_solves_mu_repair() {
        let p = OnOffProcess::from_reliability(0.96, 128.0);
        assert!((p.mu_repair() - 128.0 * 0.04 / 0.96).abs() < 1e-9);
        assert!((p.reliability() - 0.96).abs() < 1e-12);
    }

    #[test]
    fn transitions_alternate() {
        let mut p = OnOffProcess::new(10.0, 1.0);
        let mut rng = rng_from_seed(3);
        assert!(p.is_up());
        let (_, s1) = p.next_transition(&mut rng);
        assert!(!s1);
        let (_, s2) = p.next_transition(&mut rng);
        assert!(s2);
    }

    #[test]
    fn long_run_up_fraction_matches_reliability() {
        let mut p = OnOffProcess::from_reliability(0.96, 128.0);
        let mut rng = rng_from_seed(17);
        let mut t_up = 0.0;
        let mut t_total = 0.0;
        for _ in 0..200_000 {
            let was_up = p.is_up();
            let (gap, _) = p.next_transition(&mut rng);
            if was_up {
                t_up += gap;
            }
            t_total += gap;
        }
        let frac = t_up / t_total;
        assert!((frac - 0.96).abs() < 0.005, "up fraction {frac}");
    }

    #[test]
    fn reset_restores_up() {
        let mut p = OnOffProcess::new(1.0, 1.0);
        let mut rng = rng_from_seed(0);
        p.next_transition(&mut rng);
        assert!(!p.is_up());
        p.reset_up();
        assert!(p.is_up());
    }

    #[test]
    #[should_panic(expected = "reliability must lie")]
    fn bad_reliability_rejected() {
        OnOffProcess::from_reliability(1.0, 10.0);
    }
}
