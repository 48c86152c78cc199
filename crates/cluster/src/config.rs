//! Cluster engine configuration: timeouts, retries, network model, and
//! the scripted §2.2 reassignment schedule.

use crate::net::NetConfig;
use quorum_core::QuorumSpec;
use quorum_des::SimParams;

/// One scripted quorum reassignment: at simulation time `at`, site
/// `origin` (if up) installs `spec` locally and broadcasts
/// [`crate::message::Payload::Install`] to every other site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstallStep {
    /// Simulation time of the installation.
    pub at: f64,
    /// Site initiating the install.
    pub origin: usize,
    /// The new quorum spec.
    pub spec: QuorumSpec,
}

/// Are two specs *jointly safe*: does every read quorum of one intersect
/// every write quorum of the other (both directions)?
///
/// The paper's §2.2 QR protocol makes an install safe by gathering
/// `max(q_w_old, q_w_new)` votes and refreshing the value. In a message
/// world that refresh can itself be lost mid-flight, so this engine
/// instead restricts scripted installs to pairwise jointly-safe specs:
/// then *any* mix of sites running old and new assignments still
/// guarantees read/write intersection, and no lock or refresh is needed.
/// This is a deliberate extension/simplification relative to the paper.
pub fn jointly_safe(a: QuorumSpec, b: QuorumSpec) -> bool {
    a.total() == b.total() && a.q_r() + b.q_w() > a.total() && b.q_r() + a.q_w() > a.total()
}

/// Full configuration of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Scale and failure parameters (shared with the instantaneous
    /// simulator — same batch sizes, same reliability model).
    pub params: SimParams,
    /// Latency/loss model of every link.
    pub net: NetConfig,
    /// Base per-round session timeout (simulated time units; the access
    /// inter-arrival mean is 1.0).
    pub session_timeout: f64,
    /// Retry rounds after the first timeout (0 = fail on first timeout).
    pub max_retries: u32,
    /// Exponential backoff multiplier: round `r` waits
    /// `session_timeout · backoff^r`, capped by `max_backoff_factor`.
    pub retry_backoff: f64,
    /// Cap on the backoff multiplier.
    pub max_backoff_factor: f64,
    /// Scripted reassignments (validated pairwise jointly safe).
    pub installs: Vec<InstallStep>,
    /// UNSAFE ablation: declare writes committed as soon as phase-1
    /// grants reach `q_w`, without waiting for commit acks. Exists so
    /// tests can demonstrate that the freshness checker catches the
    /// resulting stale reads under message loss.
    pub commit_on_grant: bool,
    /// UNSAFE ablation: let pledges gathered under one assignment epoch
    /// keep counting after a retry adopts a different epoch, and accept
    /// late pledges tagged with a mismatched epoch — the pre-fix
    /// behavior of `session_timeout`/`vote_received`. Exists so the
    /// `quorum-mc` model checker can demonstrate that it *finds* the
    /// cross-epoch mixing bug (negative control, in the style of
    /// [`ClusterConfig::commit_on_grant`]).
    pub mix_epoch_votes: bool,
    /// Record the per-access outcome sequence (used by the degeneracy
    /// test to compare against the instantaneous simulator).
    pub record_outcomes: bool,
    /// Upper bucket edges of the session-latency histograms.
    pub latency_bounds: Vec<f64>,
}

impl ClusterConfig {
    /// Default latency histogram bucket edges (simulated time units).
    pub(crate) fn default_latency_bounds() -> Vec<f64> {
        vec![0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0]
    }

    /// A realistic-network starting point: small constant latency, no
    /// loss, three retries with doubling backoff.
    pub fn new(params: SimParams) -> Self {
        Self {
            params,
            net: NetConfig {
                latency: crate::net::LatencyDist::Constant(0.01),
                loss: 0.0,
            },
            session_timeout: 0.25,
            max_retries: 3,
            retry_backoff: 2.0,
            max_backoff_factor: 8.0,
            installs: Vec::new(),
            commit_on_grant: false,
            mix_epoch_votes: false,
            record_outcomes: false,
            latency_bounds: Self::default_latency_bounds(),
        }
    }

    /// The degenerate configuration: ideal network, no retries. Decisions
    /// then match the instantaneous simulator access-for-access.
    pub fn ideal(params: SimParams) -> Self {
        Self {
            net: NetConfig::ideal(),
            max_retries: 0,
            ..Self::new(params)
        }
    }

    /// The timeout of retry round `round` (0 = first attempt).
    pub(crate) fn timeout_for(&self, round: u32) -> f64 {
        let factor = self
            .retry_backoff
            .powi(round.min(64) as i32)
            .min(self.max_backoff_factor);
        self.session_timeout * factor
    }

    /// Checks the network parameters, timeout positivity, the backoff
    /// settings and the latency-histogram bounds, returning the violated
    /// rule. These are the checks that need neither the quorum spec nor
    /// the site count.
    pub fn check(&self) -> Result<(), String> {
        self.net.check()?;
        let rules = [
            (
                self.session_timeout > 0.0,
                "session timeout must be positive",
            ),
            (
                self.retry_backoff >= 1.0,
                "backoff must not shrink timeouts",
            ),
            (self.max_backoff_factor >= 1.0, "backoff cap must be >= 1"),
            (
                self.latency_bounds.windows(2).all(|w| w[0] < w[1]),
                "latency bounds must be strictly increasing",
            ),
        ];
        match rules.iter().find(|(ok, _)| !ok) {
            Some((_, rule)) => Err(rule.to_string()),
            None => Ok(()),
        }
    }

    /// Validates the configuration against the initial spec and the
    /// number of sites: the simulation parameters, everything
    /// [`ClusterConfig::check`] covers, install origins in range, and
    /// pairwise joint safety across the initial spec and every scripted
    /// spec (see [`jointly_safe`]).
    ///
    /// # Panics
    /// Panics on any violated constraint.
    pub fn validate(&self, initial: QuorumSpec, num_sites: usize) {
        self.params.validate();
        if let Err(rule) = self.check() {
            panic!("{rule}");
        }
        let mut specs = vec![initial];
        for step in &self.installs {
            assert!(step.origin < num_sites, "install origin out of range");
            assert!(step.at >= 0.0, "install time must be non-negative");
            specs.push(step.spec);
        }
        for (i, &a) in specs.iter().enumerate() {
            for &b in &specs[i + 1..] {
                assert!(
                    jointly_safe(a, b),
                    "specs {a} and {b} are not jointly safe: a mixed-epoch \
                     cluster could lose read/write intersection"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joint_safety_examples() {
        let t = 10;
        let majority = QuorumSpec::majority(t); // (5, 6)
        let tilted = QuorumSpec::new(4, 7, t).unwrap();
        // 5+7 > 10 and 4+6 <= 10: NOT jointly safe.
        assert!(!jointly_safe(majority, tilted));
        let safe = QuorumSpec::new(5, 7, t).unwrap();
        assert!(jointly_safe(majority, safe));
        // A spec is always jointly safe with itself (conditions 1+2).
        assert!(jointly_safe(majority, majority));
        // Different totals never mix.
        assert!(!jointly_safe(majority, QuorumSpec::majority(11)));
    }

    #[test]
    fn backoff_grows_then_caps() {
        let mut c = ClusterConfig::new(SimParams::quick());
        c.session_timeout = 1.0;
        c.retry_backoff = 2.0;
        c.max_backoff_factor = 4.0;
        assert_eq!(c.timeout_for(0), 1.0);
        assert_eq!(c.timeout_for(1), 2.0);
        assert_eq!(c.timeout_for(2), 4.0);
        assert_eq!(c.timeout_for(3), 4.0, "capped");
        assert_eq!(c.timeout_for(60), 4.0, "still capped far out");
    }

    #[test]
    #[should_panic(expected = "not jointly safe")]
    fn unsafe_install_script_rejected() {
        let mut c = ClusterConfig::ideal(SimParams::quick());
        c.installs.push(InstallStep {
            at: 10.0,
            origin: 0,
            spec: QuorumSpec::new(4, 7, 10).unwrap(),
        });
        c.validate(QuorumSpec::majority(10), 10);
    }

    #[test]
    fn safe_install_script_accepted() {
        let mut c = ClusterConfig::ideal(SimParams::quick());
        c.installs.push(InstallStep {
            at: 10.0,
            origin: 0,
            spec: QuorumSpec::new(5, 7, 10).unwrap(),
        });
        c.validate(QuorumSpec::majority(10), 10);
    }
}
