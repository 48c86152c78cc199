//! Small, fully scripted worlds for bounded exhaustive exploration.
//!
//! A [`Universe`] replaces the engine's stochastic environment with an
//! enumerable one: a fixed list of accesses (each dispatch is a choice),
//! a fixed install script (each execution is a choice), and a finite set
//! of network *modes* (partitions of the site set) the explorer may
//! toggle between a bounded number of times. Everything else — votes,
//! specs, retry budget — maps directly onto the engine's
//! [`ClusterConfig`], so the explored protocol is exactly the shipped
//! one.

use quorum_cluster::{ClusterConfig, InstallStep};
use quorum_core::{Access, QuorumSpec, VoteAssignment};
use quorum_des::SimParams;

/// One bounded world for the model checker.
#[derive(Debug, Clone)]
pub struct Universe {
    /// Human-readable name (manifest label).
    pub name: &'static str,
    /// Per-site vote weights (defines the site count).
    pub votes: VoteAssignment,
    /// Quorum spec installed at epoch 0 on every site.
    pub initial_spec: QuorumSpec,
    /// Scripted accesses as `(origin, kind)`; the explorer dispatches
    /// them in order, at every possible point of the interleaving.
    pub accesses: Vec<(usize, Access)>,
    /// Scripted installs as `(origin, spec)`; step `i` installs epoch
    /// `i + 1`, again at every possible point.
    pub installs: Vec<(usize, QuorumSpec)>,
    /// Network modes: each mode partitions the sites into mutually
    /// unreachable groups. Mode 0 is the initial mode; a message is
    /// deliverable iff its endpoints share a group in the *current*
    /// mode (delivery into a partition is a drop, matching the engine).
    pub modes: Vec<Vec<Vec<usize>>>,
    /// How many mode switches the explorer may perform in one run.
    pub max_net_changes: u32,
    /// Retry rounds per session (mirrors [`ClusterConfig::max_retries`]).
    pub max_retries: u32,
    /// Default BFS depth bound (overridable per exploration).
    pub(crate) max_depth: u32,
    /// Default explored-state cap (overridable per exploration).
    pub(crate) max_states: u64,
}

impl Universe {
    /// The standard bug-hunting world: 3 uniform-vote sites under spec
    /// `(2,3,3)` — writes need *all* votes, so a single missing grant
    /// forces the retry path — with one jointly-safe install to `(2,2,3)`
    /// from site 2, a write from site 0 racing a read from site 1, and
    /// one optional partition that can isolate either coordinator.
    ///
    /// This is the smallest world in which the cross-epoch mixing bug is
    /// reachable through both of its channels (timeout adoption and late
    /// pledges), and in which the one-write-quorum-component invariant
    /// is non-vacuous.
    pub fn standard() -> Self {
        Self {
            name: "standard",
            votes: VoteAssignment::uniform(3),
            initial_spec: QuorumSpec::new(2, 3, 3).expect("valid spec"),
            accesses: vec![(0, Access::Write), (1, Access::Read)],
            installs: vec![(2, QuorumSpec::new(2, 2, 3).expect("valid spec"))],
            modes: vec![
                vec![vec![0, 1, 2]],
                vec![vec![0, 1], vec![2]],
                vec![vec![0], vec![1, 2]],
            ],
            max_net_changes: 2,
            max_retries: 1,
            max_depth: 48,
            max_states: 4_000_000,
        }
    }

    /// A deliberately symmetric world: sites 1 and 2 are interchangeable
    /// (same votes, never a scripted origin, kept together by every
    /// mode), so the symmetry quotient is non-trivial. Used to pin that
    /// canonicalization actually shrinks the state count.
    pub fn symmetric() -> Self {
        Self {
            name: "symmetric",
            votes: VoteAssignment::uniform(3),
            initial_spec: QuorumSpec::majority(3),
            accesses: vec![(0, Access::Write)],
            installs: Vec::new(),
            modes: vec![vec![vec![0, 1, 2]], vec![vec![0], vec![1, 2]]],
            max_net_changes: 1,
            max_retries: 1,
            max_depth: 32,
            max_states: 1_000_000,
        }
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.votes.num_sites()
    }

    /// Builds the engine configuration this universe explores. The
    /// install times are placeholders (the explorer fires installs as
    /// choices, not at clock times); they exist so
    /// [`ClusterConfig::validate`] checks the script's joint safety.
    pub fn config(&self, mix_epoch_votes: bool) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(SimParams::quick());
        cfg.max_retries = self.max_retries;
        cfg.mix_epoch_votes = mix_epoch_votes;
        cfg.installs = self
            .installs
            .iter()
            .enumerate()
            .map(|(i, &(origin, spec))| InstallStep {
                at: (i + 1) as f64,
                origin,
                spec,
            })
            .collect();
        cfg
    }

    /// Checks that every value the explorer's canonical state key stores
    /// in one byte fits in it. Site indices, the access and install
    /// script positions, the mode index, the mode-switch count and the
    /// retry round are bounded here directly. So are the vote total,
    /// which bounds every vote count a session or message carries, and
    /// the largest `q_r` and `q_w` of the initial spec and of every
    /// install. The other key fields follow: versions and session ids
    /// are at most the access count (each access opens one session and
    /// commits at most one version), and epochs at most the install
    /// count. Past 255 two distinct states would share a key and the
    /// search would skip one of them. The error names the field.
    pub fn check_key_widths(&self) -> Result<(), String> {
        let specs = || {
            std::iter::once(self.initial_spec).chain(self.installs.iter().map(|&(_, spec)| spec))
        };
        let fields = [
            ("sites", self.num_sites() as u64),
            ("accesses", self.accesses.len() as u64),
            ("installs", self.installs.len() as u64),
            ("modes", self.modes.len() as u64),
            ("max_net_changes", u64::from(self.max_net_changes)),
            ("max_retries", u64::from(self.max_retries)),
            ("votes", self.votes.total()),
            ("q_r", specs().map(|spec| spec.q_r()).fold(0, u64::max)),
            ("q_w", specs().map(|spec| spec.q_w()).fold(0, u64::max)),
        ];
        for (field, value) in fields {
            if value > 255 {
                return Err(format!(
                    "universe {:?}: {field} = {value} exceeds 255, the largest value a model-checker state key holds in one byte (accesses also bound versions and session ids, installs bound epochs, and votes bound every vote count)",
                    self.name
                ));
            }
        }
        Ok(())
    }

    /// Checks the universe's internal consistency: every byte-wide key
    /// field in range ([`Universe::check_key_widths`]), scripted origins
    /// in range, every mode a partition of the site set, and the spec/
    /// install script jointly safe (via [`ClusterConfig::validate`]).
    ///
    /// # Panics
    /// Panics on any violated constraint.
    pub fn validate(&self) {
        let n = self.num_sites();
        assert!(n > 0, "universe needs at least one site");
        if let Err(msg) = self.check_key_widths() {
            panic!("{msg}");
        }
        assert!(!self.modes.is_empty(), "universe needs an initial mode");
        for &(origin, _) in &self.accesses {
            assert!(origin < n, "access origin out of range");
        }
        for (m, groups) in self.modes.iter().enumerate() {
            let mut seen = vec![false; n];
            for group in groups {
                for &s in group {
                    assert!(s < n, "mode {m} names site {s} out of range");
                    assert!(!seen[s], "mode {m} lists site {s} twice");
                    seen[s] = true;
                }
            }
            assert!(
                seen.iter().all(|&b| b),
                "mode {m} is not a partition of all sites"
            );
        }
        self.config(false).validate(self.initial_spec, n);
        assert_eq!(
            self.initial_spec.total(),
            self.votes.total(),
            "spec total must match the vote total"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_universes_validate() {
        Universe::standard().validate();
        Universe::symmetric().validate();
    }

    #[test]
    fn config_carries_ablation_flag_and_installs() {
        let u = Universe::standard();
        let fixed = u.config(false);
        let ablated = u.config(true);
        assert!(!fixed.mix_epoch_votes);
        assert!(ablated.mix_epoch_votes);
        assert_eq!(fixed.installs.len(), 1);
        assert_eq!(fixed.max_retries, 1);
    }

    #[test]
    #[should_panic(expected = "not a partition")]
    fn incomplete_mode_is_rejected() {
        let mut u = Universe::standard();
        u.modes.push(vec![vec![0, 1]]);
        u.validate();
    }

    #[test]
    fn key_widths_name_the_field_past_255() {
        let u = Universe::standard();
        assert_eq!(u.check_key_widths(), Ok(()));
        let mut edge = u.clone();
        edge.max_net_changes = 255;
        edge.max_retries = 255;
        edge.votes = VoteAssignment::weighted(vec![85, 85, 85]);
        edge.installs = vec![(2, QuorumSpec::new(255, 255, 255).unwrap())];
        assert_eq!(edge.check_key_widths(), Ok(()));

        let mut nc = u.clone();
        nc.max_net_changes = 256;
        let mut retries = u.clone();
        retries.max_retries = 300;
        let mut accesses = u.clone();
        accesses.accesses = vec![(0, Access::Read); 256];
        let mut installs = u.clone();
        installs.installs = vec![(2, QuorumSpec::new(2, 2, 3).unwrap()); 256];
        let mut modes = u.clone();
        modes.modes = vec![vec![vec![0, 1, 2]]; 256];
        let mut votes = u.clone();
        votes.votes = VoteAssignment::weighted(vec![100, 100, 100]);
        let mut q_w = u.clone();
        q_w.installs = vec![(2, QuorumSpec::new(2, 300, 300).unwrap())];
        let mut q_r = u.clone();
        q_r.initial_spec = QuorumSpec::new(260, 200, 300).unwrap();
        let mut sites = u;
        sites.votes = VoteAssignment::uniform(256);
        for (bad, field) in [
            (nc, "max_net_changes = 256"),
            (retries, "max_retries = 300"),
            (accesses, "accesses = 256"),
            (installs, "installs = 256"),
            (modes, "modes = 256"),
            (sites, "sites = 256"),
            (votes, "votes = 300"),
            (q_w, "q_w = 300"),
            (q_r, "q_r = 260"),
        ] {
            let err = bad.check_key_widths().unwrap_err();
            assert!(err.contains(field), "{err:?} should name {field:?}");
        }
    }

    #[test]
    #[should_panic(expected = "max_net_changes = 256 exceeds 255")]
    fn wide_net_change_budget_is_rejected() {
        let mut u = Universe::standard();
        u.max_net_changes = 256;
        u.validate();
    }

    #[test]
    #[should_panic(expected = "not jointly safe")]
    fn unsafe_install_script_is_rejected() {
        let mut u = Universe::standard();
        // A different vote total can never be jointly safe.
        u.installs.push((0, QuorumSpec::majority(5)));
        u.validate();
    }
}
