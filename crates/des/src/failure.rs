//! Alternating up/down renewal processes for sites and links.
//!
//! §5.1–5.2: components are fail-stop with exponential time-to-failure
//! (mean `μ_f`) and exponential time-to-repair (mean `μ_r`); "each component
//! is 96 % reliable", i.e. `μ_f / (μ_f + μ_r) = 0.96`. The long-run
//! fraction of time up for such an alternating renewal process is exactly
//! that ratio.

use quorum_stats::rng::exponential;
use rand::Rng;

/// Shape of an up- or down-duration distribution (mean fixed by the
/// process).
///
/// The paper's model is all-exponential (§5.2); the alternatives support
/// the sensitivity ablation in DESIGN.md — how much do the availability
/// conclusions depend on the memoryless assumption?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurationDist {
    /// Exponential (the paper's Poisson model).
    Exponential,
    /// Deterministic: every duration equals the mean.
    Fixed,
    /// Uniform on `[0, 2·mean]` (same mean, lower variance than
    /// exponential).
    Uniform,
}

impl DurationDist {
    fn sample<R: Rng + ?Sized>(self, rng: &mut R, mean: f64) -> f64 {
        match self {
            DurationDist::Exponential => exponential(rng, 1.0 / mean),
            DurationDist::Fixed => mean,
            DurationDist::Uniform => 2.0 * mean * rng.random::<f64>(),
        }
    }
}

/// An alternating up/down renewal process.
#[derive(Debug, Clone, Copy)]
pub struct OnOffProcess {
    /// Mean up duration (time-to-failure).
    mu_fail: f64,
    /// Mean down duration (time-to-repair).
    mu_repair: f64,
    /// Up-duration distribution shape.
    fail_dist: DurationDist,
    /// Down-duration distribution shape.
    repair_dist: DurationDist,
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
            fail_dist: DurationDist::Exponential,
            repair_dist: DurationDist::Exponential,
            up: true,
        }
    }

    /// Overrides the duration distribution shapes (means unchanged, so the
    /// long-run reliability is unchanged too — the renewal-reward ratio
    /// depends only on the means).
    pub fn with_distributions(mut self, fail: DurationDist, repair: DurationDist) -> Self {
        self.fail_dist = fail;
        self.repair_dist = repair;
        self
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
        let gap = if self.up {
            self.fail_dist.sample(rng, self.mu_fail)
        } else {
            self.repair_dist.sample(rng, self.mu_repair)
        };
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

    #[test]
    fn fixed_durations_are_deterministic() {
        let mut p = OnOffProcess::new(10.0, 2.0)
            .with_distributions(DurationDist::Fixed, DurationDist::Fixed);
        let mut rng = rng_from_seed(1);
        assert_eq!(p.next_transition(&mut rng), (10.0, false));
        assert_eq!(p.next_transition(&mut rng), (2.0, true));
        assert_eq!(p.next_transition(&mut rng), (10.0, false));
    }

    #[test]
    fn alternative_distributions_preserve_reliability() {
        // Long-run up fraction depends only on the means (renewal-reward),
        // so every shape must land at 96%.
        for (fd, rd) in [
            (DurationDist::Fixed, DurationDist::Exponential),
            (DurationDist::Uniform, DurationDist::Uniform),
            (DurationDist::Exponential, DurationDist::Fixed),
        ] {
            let mut p = OnOffProcess::from_reliability(0.96, 128.0).with_distributions(fd, rd);
            let mut rng = rng_from_seed(33);
            let mut t_up = 0.0;
            let mut t_total = 0.0;
            for _ in 0..100_000 {
                let was_up = p.is_up();
                let (gap, _) = p.next_transition(&mut rng);
                if was_up {
                    t_up += gap;
                }
                t_total += gap;
            }
            let frac = t_up / t_total;
            assert!((frac - 0.96).abs() < 0.005, "{fd:?}/{rd:?}: {frac}");
        }
    }

    #[test]
    fn uniform_durations_have_matching_mean() {
        let mut p = OnOffProcess::new(8.0, 8.0)
            .with_distributions(DurationDist::Uniform, DurationDist::Uniform);
        let mut rng = rng_from_seed(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| p.next_transition(&mut rng).0).sum::<f64>() / n as f64;
        assert!((mean - 8.0).abs() < 0.05, "mean {mean}");
    }
}
