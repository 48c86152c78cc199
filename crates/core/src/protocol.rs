//! The quorum consensus protocol (Gifford \[9\], §2.1) and the protocol
//! abstraction shared with the dynamic QR protocol.

use crate::quorum::QuorumSpec;
use crate::votes::VoteAssignment;

/// The two access kinds the protocol distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A read transaction.
    Read,
    /// A write transaction.
    Write,
}

/// Outcome of submitting an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The required quorum of votes was collected.
    Granted,
    /// The component lacked the required votes.
    Denied,
}

impl Decision {
    /// True if granted.
    pub fn is_granted(self) -> bool {
        self == Decision::Granted
    }
}

/// Common interface of the consistency-control protocols the simulator can
/// drive (static quorum consensus, dynamic quorum reassignment).
///
/// `members` is the set of sites in the component of the submitting site
/// (empty when that site is down); implementations that don't need
/// membership (static protocols) may ignore it and use only the vote total.
pub trait ConsistencyProtocol {
    /// Decides an access submitted to a site whose component contains
    /// `members` holding `votes` total votes.
    fn decide(&mut self, kind: Access, members: &[usize], votes: u64) -> Decision;

    /// Drains the component-membership lists whose data copies were
    /// refreshed by protocol-internal actions since the last call
    /// (quorum *reassignments* must copy the current value to the whole
    /// installing component — see `QrProtocol`). Static protocols never
    /// refresh; the default returns nothing.
    fn drain_refreshes(&mut self) -> Vec<Vec<usize>> {
        Vec::new()
    }

    /// Non-mutating decision probe: *would* an access of this kind be
    /// granted in a component with these members/votes? Used by the
    /// simulator's SURV instrumentation, which must ask the question of
    /// every component without perturbing protocol state.
    fn can_grant(&self, kind: Access, members: &[usize], votes: u64) -> bool;

    /// Total votes in the system.
    fn total_votes(&self) -> u64;
}

/// The static quorum consensus protocol: fixed vote and quorum assignment.
///
/// When an access is submitted to a site, the site collects the votes of
/// every site in its component and grants the access iff they reach the
/// relevant quorum (§2.1).
#[derive(Debug, Clone)]
pub struct QuorumConsensus {
    votes: VoteAssignment,
    spec: QuorumSpec,
}

impl QuorumConsensus {
    /// Creates the protocol from a vote assignment and quorum spec.
    ///
    /// # Panics
    /// Panics if the spec's `T` differs from the assignment's total.
    pub fn new(votes: VoteAssignment, spec: QuorumSpec) -> Self {
        assert_eq!(
            votes.total(),
            spec.total(),
            "quorum spec is for {} votes but assignment totals {}",
            spec.total(),
            votes.total()
        );
        Self { votes, spec }
    }

    /// Uniform votes + majority quorums (the majority consensus protocol
    /// [Thomas 79]).
    pub fn majority(n_sites: usize) -> Self {
        let votes = VoteAssignment::uniform(n_sites);
        let spec = QuorumSpec::majority(votes.total());
        Self::new(votes, spec)
    }

    /// Uniform votes + read-one/write-all quorums.
    pub fn read_one_write_all(n_sites: usize) -> Self {
        let votes = VoteAssignment::uniform(n_sites);
        let spec = QuorumSpec::read_one_write_all(votes.total());
        Self::new(votes, spec)
    }

    /// The primary copy protocol [Alsberg-Day 76] as a quorum consensus
    /// instance: all votes at `primary`, `q_r = q_w = 1`.
    pub fn primary_copy(n_sites: usize, primary: usize) -> Self {
        let votes = VoteAssignment::primary_copy(n_sites, primary);
        let spec = QuorumSpec::new(1, 1, 1).expect("valid for T=1");
        Self::new(votes, spec)
    }

    /// Pure decision function on a vote total.
    pub(crate) fn decide_votes(&self, kind: Access, votes: u64) -> Decision {
        let granted = match kind {
            Access::Read => self.spec.read_granted(votes),
            Access::Write => self.spec.write_granted(votes),
        };
        if granted {
            Decision::Granted
        } else {
            Decision::Denied
        }
    }
}

impl ConsistencyProtocol for QuorumConsensus {
    fn decide(&mut self, kind: Access, _members: &[usize], votes: u64) -> Decision {
        self.decide_votes(kind, votes)
    }

    fn can_grant(&self, kind: Access, _members: &[usize], votes: u64) -> bool {
        self.decide_votes(kind, votes).is_granted()
    }

    fn total_votes(&self) -> u64 {
        self.votes.total()
    }
}

#[cfg(test)]
impl QuorumConsensus {
    /// The vote assignment.
    fn votes(&self) -> &VoteAssignment {
        &self.votes
    }

    /// Replaces the quorum specification (used by off-line re-optimization;
    /// the *on-line* path goes through [`crate::reassign::QrProtocol`]).
    ///
    /// # Panics
    /// Panics if the totals disagree.
    fn set_spec(&mut self, spec: QuorumSpec) {
        assert_eq!(spec.total(), self.votes.total(), "total votes mismatch");
        self.spec = spec;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_grants_in_majority_component() {
        // Valid majority for odd T = 101 is q_r = q_w = 51 (see
        // QuorumSpec::majority for why the paper's (50, 51) is unsafe).
        let mut p = QuorumConsensus::majority(101);
        assert_eq!(p.decide(Access::Read, &[], 51), Decision::Granted);
        assert_eq!(p.decide(Access::Read, &[], 50), Decision::Denied);
        assert_eq!(p.decide(Access::Write, &[], 51), Decision::Granted);
        assert_eq!(p.decide(Access::Write, &[], 50), Decision::Denied);
    }

    #[test]
    fn rowa_read_anywhere_write_everywhere() {
        let mut p = QuorumConsensus::read_one_write_all(10);
        assert_eq!(p.decide(Access::Read, &[], 1), Decision::Granted);
        assert_eq!(p.decide(Access::Write, &[], 9), Decision::Denied);
        assert_eq!(p.decide(Access::Write, &[], 10), Decision::Granted);
    }

    #[test]
    fn rowa_denies_read_at_down_site() {
        let mut p = QuorumConsensus::read_one_write_all(10);
        // Down site = component of zero votes (§5.2).
        assert_eq!(p.decide(Access::Read, &[], 0), Decision::Denied);
    }

    #[test]
    fn primary_copy_depends_only_on_primary() {
        let p = QuorumConsensus::primary_copy(5, 3);
        assert_eq!(p.votes().votes_of(3), 1);
        assert_eq!(p.votes().total(), 1);
        // Component containing the primary has 1 vote; any other has 0.
        assert!(p.decide_votes(Access::Read, 1).is_granted());
        assert!(!p.decide_votes(Access::Write, 0).is_granted());
    }

    #[test]
    fn set_spec_swaps_quorums() {
        let mut p = QuorumConsensus::majority(11);
        p.set_spec(QuorumSpec::read_one_write_all(11));
        assert!(p.decide_votes(Access::Read, 1).is_granted());
        assert!(!p.decide_votes(Access::Write, 10).is_granted());
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn set_spec_total_mismatch_panics() {
        let mut p = QuorumConsensus::majority(7);
        p.set_spec(QuorumSpec::majority(9));
    }
}
