//! The dynamic quorum reassignment (QR) protocol (§2.2, §4.3).
//!
//! Each site carries a quorum assignment and a *version number* (initially
//! 1). The assignment in effect for an access submitted to site `x` is the
//! one held by the highest-versioned site in `x`'s component. Assignments
//! may be changed only inside a component holding at least a write quorum
//! of votes *under the old assignment*; the change bumps the version.
//!
//! Safety argument (reproduced from the paper, and enforced by the property
//! tests): the installing component `C₁` holds `q_w` votes under the old
//! assignment, and since `q_r + q_w > T` it is the *only* component with
//! `q_r` or more votes. Hence no other component can access the item until
//! some site of `C₁` joins it — at which point the join propagates the new
//! assignment. No access is ever granted under a stale assignment.
//!
//! **Correctness addendum (deviation from the paper's literal rule).** The
//! old-write-quorum requirement alone is *not* sufficient for one-copy
//! serializability: after a read-loosening install (say majority →
//! read-one/write-all), the current value lives on only `q_w(old)` votes
//! worth of sites, while a new read needs just `q_r(new)` votes —
//! `q_r(new) + q_w(old)` may be ≤ `T`, so the read can miss every current
//! copy (our simulator demonstrates exactly this; see
//! [`QrProtocol::try_reassign_paper_rule`] and the stale-read tests).
//! [`QrProtocol::try_reassign`] therefore requires the installing
//! component to hold `max(q_w(old), q_w(new))` votes **and** refreshes the
//! current value onto every member (always possible: any two write
//! quorums intersect, so a current copy is present). The value then rests
//! on ≥ `q_w(new)` votes, which every new read and write provably
//! intersects — the same joint-quorum shape used by the dynamic-voting
//! literature the paper cites [4, 5, 12, 13, 17].

use crate::protocol::{Access, ConsistencyProtocol, Decision};
use crate::quorum::QuorumSpec;
use crate::votes::VoteAssignment;
use std::fmt;

/// Why a reassignment attempt was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReassignError {
    /// The component lacks a write quorum under the *old* assignment.
    InsufficientVotes {
        /// Votes present in the component.
        have: u64,
        /// Old write quorum required.
        need: u64,
    },
    /// The proposed spec is for a different vote total.
    TotalMismatch {
        /// Total of the proposed spec.
        proposed: u64,
        /// Total of the system.
        system: u64,
    },
    /// The component is empty (submitting site down).
    EmptyComponent,
}

impl fmt::Display for ReassignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ReassignError::InsufficientVotes { have, need } => write!(
                f,
                "component holds {have} votes but the install requires {need} \
                 (the larger of the old and new write quorums)"
            ),
            ReassignError::TotalMismatch { proposed, system } => {
                write!(
                    f,
                    "proposed spec totals {proposed} votes, system has {system}"
                )
            }
            ReassignError::EmptyComponent => write!(f, "no operational site in component"),
        }
    }
}

impl std::error::Error for ReassignError {}

/// Per-site replicated state of the QR protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteAssignment {
    /// Version number of the assignment this site knows.
    pub version: u64,
    /// The quorum assignment itself.
    pub spec: QuorumSpec,
}

/// The dynamic quorum reassignment protocol.
///
/// # Examples
/// ```
/// use quorum_core::{QrProtocol, QuorumSpec, VoteAssignment};
///
/// let mut qr = QrProtocol::new(VoteAssignment::uniform(5), QuorumSpec::majority(5));
/// // Installing (q_r=2, q_w=4) needs max(q_w_old, q_w_new) = 4 votes.
/// let new = QuorumSpec::from_read_quorum(2, 5).unwrap();
/// assert!(qr.try_reassign(&[0, 1, 2], new).is_err());
/// let v = qr.try_reassign(&[0, 1, 2, 3], new).unwrap();
/// assert_eq!(v, 2);
/// // Joins propagate the new assignment.
/// qr.sync(&[3, 4]);
/// assert_eq!(qr.site(4).version, 2);
/// ```
#[derive(Debug, Clone)]
pub struct QrProtocol {
    votes: VoteAssignment,
    sites: Vec<SiteAssignment>,
    reassignments: u64,
    /// Components whose data copies were refreshed by an installation and
    /// not yet drained by the environment (see
    /// [`ConsistencyProtocol::drain_refreshes`]).
    pending_refreshes: Vec<Vec<usize>>,
}

impl QrProtocol {
    /// Initializes every site with `initial` at version 1.
    ///
    /// # Panics
    /// Panics if `initial.total()` differs from the assignment total.
    pub fn new(votes: VoteAssignment, initial: QuorumSpec) -> Self {
        assert_eq!(
            votes.total(),
            initial.total(),
            "spec total must match vote total"
        );
        let n = votes.num_sites();
        Self {
            votes,
            sites: vec![
                SiteAssignment {
                    version: 1,
                    spec: initial,
                };
                n
            ],
            reassignments: 0,
            pending_refreshes: Vec::new(),
        }
    }

    /// State of one site.
    pub fn site(&self, site: usize) -> SiteAssignment {
        self.sites[site]
    }

    /// Highest version across all sites (the authoritative assignment).
    pub fn global_max_version(&self) -> u64 {
        self.sites.iter().map(|s| s.version).max().unwrap_or(0)
    }

    /// The assignment in effect for a component with the given members:
    /// the one held by the highest-versioned member.
    ///
    /// Returns `None` for an empty component.
    pub fn effective(&self, members: &[usize]) -> Option<SiteAssignment> {
        members
            .iter()
            .map(|&s| self.sites[s])
            .max_by_key(|a| a.version)
    }

    /// The quorum specification governing a component with the given
    /// members: that of [`QrProtocol::effective`], or site 0's for an
    /// empty component.
    pub fn effective_spec(&self, members: &[usize]) -> QuorumSpec {
        self.effective(members)
            .map(|a| a.spec)
            .unwrap_or_else(|| self.sites[0].spec)
    }

    /// Models the version-number exchange among communicating sites: every
    /// member adopts the highest-versioned assignment in the component.
    /// Returns that assignment.
    ///
    /// The paper performs this implicitly whenever sites communicate (vote
    /// collection, joins); the simulator calls it on every access and on
    /// every membership observation.
    pub fn sync(&mut self, members: &[usize]) -> Option<SiteAssignment> {
        let best = self.effective(members)?;
        for &s in members {
            if self.sites[s].version < best.version {
                self.sites[s] = best;
            }
        }
        Some(best)
    }

    /// Attempts to install `new_spec` from within the component `members`.
    ///
    /// Succeeds iff the component holds at least
    /// `max(q_w(old), q_w(new))` votes — the old write quorum makes the
    /// change exclusive (the paper's rule); the new write quorum makes the
    /// refreshed copies reachable by every future access (the correctness
    /// addendum in the module docs). On success every member adopts the
    /// new assignment at version `old_version + 1`, the current value is
    /// refreshed onto all members, and the new version is returned.
    pub fn try_reassign(
        &mut self,
        members: &[usize],
        new_spec: QuorumSpec,
    ) -> Result<u64, ReassignError> {
        self.reassign_with_requirement(members, new_spec, true)
    }

    /// The paper's §2.2 rule verbatim: only the *old* write quorum is
    /// required. **Unsafe for read-loosening changes** — retained so tests
    /// and experiments can demonstrate the stale reads it admits.
    pub fn try_reassign_paper_rule(
        &mut self,
        members: &[usize],
        new_spec: QuorumSpec,
    ) -> Result<u64, ReassignError> {
        self.reassign_with_requirement(members, new_spec, false)
    }

    fn reassign_with_requirement(
        &mut self,
        members: &[usize],
        new_spec: QuorumSpec,
        require_new_quorum: bool,
    ) -> Result<u64, ReassignError> {
        if new_spec.total() != self.votes.total() {
            return Err(ReassignError::TotalMismatch {
                proposed: new_spec.total(),
                system: self.votes.total(),
            });
        }
        let current = self.sync(members).ok_or(ReassignError::EmptyComponent)?;
        let have = self.votes.votes_in(members.iter().copied());
        let need = if require_new_quorum {
            current.spec.q_w().max(new_spec.q_w())
        } else {
            current.spec.q_w()
        };
        if have < need {
            return Err(ReassignError::InsufficientVotes { have, need });
        }
        let new_version = current.version + 1;
        for &s in members {
            self.sites[s] = SiteAssignment {
                version: new_version,
                spec: new_spec,
            };
        }
        self.reassignments += 1;
        // Installation copies the current value to every member: the
        // component holds a write quorum under the old assignment, and any
        // two write quorums intersect, so a current copy is present. This
        // is what keeps reads correct after a *loosening* reassignment
        // (the new q_r need not intersect the old q_w).
        self.pending_refreshes.push(members.to_vec());
        Ok(new_version)
    }
}

impl ConsistencyProtocol for QrProtocol {
    fn can_grant(&self, kind: Access, members: &[usize], votes: u64) -> bool {
        let Some(current) = self.effective(members) else {
            return false;
        };
        match kind {
            Access::Read => current.spec.read_granted(votes),
            Access::Write => current.spec.write_granted(votes),
        }
    }

    fn drain_refreshes(&mut self) -> Vec<Vec<usize>> {
        std::mem::take(&mut self.pending_refreshes)
    }

    fn decide(&mut self, kind: Access, members: &[usize], votes: u64) -> Decision {
        let Some(current) = self.sync(members) else {
            return Decision::Denied;
        };
        let granted = match kind {
            Access::Read => current.spec.read_granted(votes),
            Access::Write => current.spec.write_granted(votes),
        };
        if granted {
            Decision::Granted
        } else {
            Decision::Denied
        }
    }

    fn total_votes(&self) -> u64 {
        self.votes.total()
    }
}

#[cfg(test)]
impl QrProtocol {
    /// Number of successful reassignments so far.
    fn reassignments(&self) -> u64 {
        self.reassignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(v: std::ops::Range<usize>) -> Vec<usize> {
        v.collect()
    }

    #[test]
    fn initial_state_is_version_one_everywhere() {
        let qr = QrProtocol::new(VoteAssignment::uniform(5), QuorumSpec::majority(5));
        for s in 0..5 {
            assert_eq!(qr.site(s).version, 1);
        }
        assert_eq!(qr.global_max_version(), 1);
    }

    #[test]
    fn reassign_in_joint_quorum_component() {
        let mut qr = QrProtocol::new(VoteAssignment::uniform(5), QuorumSpec::majority(5));
        // Installing (2,4) needs max(q_w_old=3, q_w_new=4) = 4 votes.
        let new = QuorumSpec::from_read_quorum(2, 5).unwrap();
        let v = qr.try_reassign(&members(0..4), new).unwrap();
        assert_eq!(v, 2);
        assert_eq!(qr.site(0).spec, new);
        assert_eq!(qr.site(4).version, 1, "outside component keeps old");
        assert_eq!(qr.reassignments(), 1);
    }

    #[test]
    fn reassign_refused_without_write_quorum() {
        let mut qr = QrProtocol::new(VoteAssignment::uniform(5), QuorumSpec::majority(5));
        let err = qr
            .try_reassign(&members(0..2), QuorumSpec::majority(5))
            .unwrap_err();
        assert_eq!(err, ReassignError::InsufficientVotes { have: 2, need: 3 });
    }

    #[test]
    fn loosening_reads_requires_new_write_quorum() {
        // Installing ROWA means the refreshed copies must cover q_w(new) =
        // 5 votes — a 3-vote component may NOT do it (the paper's literal
        // rule would allow it, and stale reads follow; see the replica
        // crate's demonstration test).
        let mut qr = QrProtocol::new(VoteAssignment::uniform(5), QuorumSpec::majority(5));
        let err = qr
            .try_reassign(&members(0..3), QuorumSpec::read_one_write_all(5))
            .unwrap_err();
        assert_eq!(err, ReassignError::InsufficientVotes { have: 3, need: 5 });
        // The full network can.
        assert!(qr
            .try_reassign(&members(0..5), QuorumSpec::read_one_write_all(5))
            .is_ok());
        // Tightening reads back only needs the (now large) old q_w... and
        // the new one: max(5, 3) = 5.
        let err = qr
            .try_reassign(&members(0..4), QuorumSpec::majority(5))
            .unwrap_err();
        assert_eq!(err, ReassignError::InsufficientVotes { have: 4, need: 5 });
    }

    #[test]
    fn paper_rule_allows_what_the_safe_rule_refuses() {
        let mut qr = QrProtocol::new(VoteAssignment::uniform(5), QuorumSpec::majority(5));
        // Old rule: only q_w(old) = 3 votes required, even for ROWA.
        let v = qr
            .try_reassign_paper_rule(&members(0..3), QuorumSpec::read_one_write_all(5))
            .unwrap();
        assert_eq!(v, 2);
    }

    #[test]
    fn join_propagates_new_assignment() {
        let mut qr = QrProtocol::new(VoteAssignment::uniform(5), QuorumSpec::majority(5));
        let new = QuorumSpec::from_read_quorum(2, 5).unwrap();
        qr.try_reassign(&members(0..4), new).unwrap();
        // Site 0 joins {4}: sync spreads version 2.
        qr.sync(&[0, 4]);
        assert_eq!(qr.site(4).version, 2);
        assert_eq!(qr.site(4).spec, new);
    }

    #[test]
    fn stale_component_cannot_access() {
        // After {0,1,2,3} installs version 2, the stale remainder {4}
        // holds 1 vote < q_r(old) = 3 (majority(5) = (3,3)), so the stale
        // component can grant nothing — the paper's §2.2 safety argument
        // in miniature.
        let mut qr = QrProtocol::new(VoteAssignment::uniform(5), QuorumSpec::majority(5));
        qr.try_reassign(&members(0..4), QuorumSpec::from_read_quorum(2, 5).unwrap())
            .unwrap();
        let eff = qr.effective(&[4]).unwrap();
        assert_eq!(eff.version, 1);
        assert!(
            !eff.spec.read_granted(1),
            "stale component must not reach a read quorum"
        );
        assert_eq!(
            qr.decide(Access::Read, &[4], 1),
            Decision::Denied,
            "stale component denied"
        );
    }

    #[test]
    fn granted_access_always_sees_latest_version() {
        // Randomized schedule: partitions evolve, reassignments happen
        // opportunistically; any granted access must be under the global
        // max version (the paper's safety claim).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let n = 9;
        let mut qr = QrProtocol::new(VoteAssignment::uniform(n), QuorumSpec::majority(n as u64));
        for step in 0..500 {
            // Random partition of 0..n into two blocks (plus down sites).
            let mut comp_a = Vec::new();
            let mut comp_b = Vec::new();
            for s in 0..n {
                match rng.random_range(0..3) {
                    0 => comp_a.push(s),
                    1 => comp_b.push(s),
                    _ => {} // down
                }
            }
            for comp in [&comp_a, &comp_b] {
                if comp.is_empty() {
                    continue;
                }
                let votes = comp.len() as u64;
                // Occasionally attempt a reassignment to a random spec.
                if rng.random_range(0..4) == 0 {
                    let q_r = rng.random_range(1..=(n as u64) / 2);
                    let spec = QuorumSpec::from_read_quorum(q_r, n as u64).unwrap();
                    let _ = qr.try_reassign(comp, spec);
                }
                let kind = if rng.random_range(0..2) == 0 {
                    Access::Read
                } else {
                    Access::Write
                };
                let decision = qr.decide(kind, comp, votes);
                if decision.is_granted() {
                    let eff = qr.effective(comp).unwrap();
                    assert_eq!(
                        eff.version,
                        qr.global_max_version(),
                        "step {step}: access granted under stale version"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_component_denied() {
        let mut qr = QrProtocol::new(VoteAssignment::uniform(3), QuorumSpec::majority(3));
        assert_eq!(qr.decide(Access::Read, &[], 0), Decision::Denied);
        assert_eq!(
            qr.try_reassign(&[], QuorumSpec::majority(3)).unwrap_err(),
            ReassignError::EmptyComponent
        );
    }

    #[test]
    fn total_mismatch_rejected() {
        let mut qr = QrProtocol::new(VoteAssignment::uniform(5), QuorumSpec::majority(5));
        let err = qr
            .try_reassign(&[0, 1, 2], QuorumSpec::majority(7))
            .unwrap_err();
        assert!(matches!(err, ReassignError::TotalMismatch { .. }));
    }
}
