//! The paper's simulation parameter set (§5.2).

/// Parameters of the stochastic system model.
///
/// Defaults reproduce §5.2 exactly:
///
/// * per-site access submission: Poisson, mean `μ_t = 1`;
/// * `ρ = μ_t / μ_f = 1/128`, so `μ_f = 128` for every site and link;
/// * component reliability `μ_f / (μ_f + μ_r) = 0.96`;
/// * 100 000-access warm-up, 1 000 000-access measurement batches;
/// * batches added (5 to 18) until the 95 % CI half-width is ≤ 0.5 %.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Mean time between accesses submitted by one site (`μ_t`).
    pub mu_access: f64,
    /// Ratio of mean time-to-next-access to mean time-to-next-failure (`ρ`).
    pub rho: f64,
    /// Long-run fraction of time each site/link is up.
    pub reliability: f64,
    /// Accesses discarded before measurement begins.
    pub warmup_accesses: u64,
    /// Accesses measured per batch.
    pub batch_accesses: u64,
    /// Minimum number of batches.
    pub min_batches: u64,
    /// Maximum number of batches (paper used 5–18).
    pub max_batches: u64,
    /// Confidence level for the availability interval.
    pub confidence: f64,
    /// Target CI half-width.
    pub ci_half_width: f64,
}

impl SimParams {
    /// The paper's full-scale parameters.
    pub fn paper() -> Self {
        Self {
            mu_access: 1.0,
            rho: 1.0 / 128.0,
            reliability: 0.96,
            warmup_accesses: 100_000,
            batch_accesses: 1_000_000,
            min_batches: 5,
            max_batches: 18,
            confidence: 0.95,
            ci_half_width: 0.005,
        }
    }

    /// A reduced-scale variant for fast tests/CI: same stochastic model,
    /// shorter batches.
    pub fn quick() -> Self {
        Self {
            warmup_accesses: 5_000,
            batch_accesses: 30_000,
            min_batches: 3,
            max_batches: 6,
            ci_half_width: 0.02,
            ..Self::paper()
        }
    }

    /// Mean time-to-failure `μ_f = μ_t / ρ`.
    pub fn mu_fail(&self) -> f64 {
        self.mu_access / self.rho
    }

    /// The shared batch-orchestrator configuration these parameters
    /// imply: same stopping rule (§5.2), `threads` workers.
    pub fn converge_params(&self, threads: usize) -> quorum_stats::ConvergeParams {
        quorum_stats::ConvergeParams {
            confidence: self.confidence,
            target_half_width: self.ci_half_width,
            min_batches: self.min_batches,
            max_batches: self.max_batches,
            threads,
        }
    }

    /// Checks a batch's measured-access count, returning the violated
    /// rule.
    pub fn check_batch_accesses(accesses: u64) -> Result<(), String> {
        if accesses > 0 {
            Ok(())
        } else {
            Err("batches must measure at least one access".to_string())
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics on invalid parameter combinations.
    pub fn validate(&self) {
        assert!(self.mu_access > 0.0, "μ_t must be positive");
        assert!(self.rho > 0.0, "ρ must be positive");
        assert!(
            self.reliability > 0.0 && self.reliability < 1.0,
            "reliability must lie in (0,1)"
        );
        if let Err(rule) = Self::check_batch_accesses(self.batch_accesses) {
            panic!("{rule}");
        }
        assert!(
            self.min_batches >= 2 && self.min_batches <= self.max_batches,
            "need 2 <= min_batches <= max_batches"
        );
        assert!(self.confidence > 0.0 && self.confidence < 1.0);
        assert!(self.ci_half_width > 0.0);
    }
}

impl Default for SimParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Converts a [`quorum_stats::converge()`] trace into the manifest's
/// [`quorum_obs::CiPoint`] form (both runners record per-round points).
pub fn ci_points(trace: &[quorum_stats::TracePoint]) -> Vec<quorum_obs::CiPoint> {
    trace
        .iter()
        .map(|p| quorum_obs::CiPoint {
            batches: p.batches,
            mean: p.mean,
            half_width: p.half_width,
        })
        .collect()
}

#[cfg(test)]
impl SimParams {
    /// Mean time-to-repair `μ_r = μ_f (1 − rel) / rel`.
    fn mu_repair(&self) -> f64 {
        self.mu_fail() * (1.0 - self.reliability) / self.reliability
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_derived_values() {
        let p = SimParams::paper();
        p.validate();
        assert!((p.mu_fail() - 128.0).abs() < 1e-12);
        // μ_r = 128 * 0.04 / 0.96 = 16/3.
        assert!((p.mu_repair() - 16.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn quick_is_valid_and_same_model() {
        let q = SimParams::quick();
        q.validate();
        assert_eq!(q.mu_access, SimParams::paper().mu_access);
        assert_eq!(q.rho, SimParams::paper().rho);
        assert_eq!(q.reliability, SimParams::paper().reliability);
        assert!(q.batch_accesses < SimParams::paper().batch_accesses);
    }

    #[test]
    fn reliability_identity_holds() {
        let p = SimParams::paper();
        let rel = p.mu_fail() / (p.mu_fail() + p.mu_repair());
        assert!((rel - p.reliability).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reliability")]
    fn invalid_reliability_caught() {
        let mut p = SimParams::paper();
        p.reliability = 1.5;
        p.validate();
    }
}
