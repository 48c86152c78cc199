//! Plugging general quorum systems into the simulation machinery.
//!
//! [`AlgebraProtocol`] adapts a [`QuorumSystem`] to the
//! `ConsistencyProtocol` trait, so the replica simulator's grant path —
//! partition reads straight from the `DeltaConnectivity` kernel — drives
//! arbitrary coteries exactly as it drives vote thresholds: the
//! simulator hands the protocol the submitting site's component
//! membership, and the decision is set containment against the
//! minimal-quorum families.

use crate::system::QuorumSystem;
use quorum_core::{Access, ConsistencyProtocol, Decision};

/// `ConsistencyProtocol` driven by a general quorum system instead of
/// vote thresholds. Decisions ignore the vote total and use component
/// *membership*: an access is granted iff the submitter's component
/// contains some quorum of the relevant family.
#[derive(Debug, Clone)]
pub struct AlgebraProtocol {
    system: QuorumSystem,
}

impl AlgebraProtocol {
    /// Wraps a quorum system. Callers should [`QuorumSystem::certify`]
    /// first; the protocol trusts the families it is given.
    pub fn new(system: QuorumSystem) -> Self {
        Self { system }
    }

    fn member_mask(&self, members: &[usize]) -> u64 {
        let mut mask = 0u64;
        for &s in members {
            assert!(s < self.system.n(), "site {s} out of range");
            mask |= 1 << s;
        }
        mask
    }

    fn granted(&self, kind: Access, members: &[usize]) -> bool {
        let mask = self.member_mask(members);
        match kind {
            Access::Read => self.system.read_available(mask),
            Access::Write => self.system.write_available(mask),
        }
    }
}

impl ConsistencyProtocol for AlgebraProtocol {
    fn decide(&mut self, kind: Access, members: &[usize], _votes: u64) -> Decision {
        if self.granted(kind, members) {
            Decision::Granted
        } else {
            Decision::Denied
        }
    }

    fn can_grant(&self, kind: Access, members: &[usize], _votes: u64) -> bool {
        self.granted(kind, members)
    }

    fn total_votes(&self) -> u64 {
        self.system.n() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_graph::{DeltaConnectivity, NetworkState, Topology};

    #[test]
    fn protocol_decides_by_membership() {
        let mut p = AlgebraProtocol::new(QuorumSystem::majority(5, 0));
        assert_eq!(p.decide(Access::Read, &[0, 1, 2], 0), Decision::Granted);
        assert_eq!(p.decide(Access::Write, &[0, 1], 99), Decision::Denied);
        assert!(p.can_grant(Access::Write, &[2, 3, 4], 0));
        assert!(!p.can_grant(Access::Read, &[], 0));
        assert_eq!(p.total_votes(), 5);
    }

    #[test]
    fn partitioned_view_grants_only_in_quorum_side() {
        // A 9-ring cut into {0..4} and {5..8}: the majority side holds
        // a quorum, the minority side does not.
        let topo = Topology::ring(9);
        let mut state = NetworkState::all_up(&topo);
        // Cut links (4,5) and (8,0).
        for (i, (a, b)) in topo.links().iter().enumerate() {
            if (*a == 4 && *b == 5) || (*a == 8 && *b == 0) || (*a == 0 && *b == 8) {
                state.set_link(i, false);
            }
        }
        let partition = DeltaConnectivity::new(&topo, &state, &[1; 9]);
        let sys = QuorumSystem::majority(9, 0);
        let mut p = AlgebraProtocol::new(sys);
        let side = |site| -> Vec<usize> {
            partition
                .slot_members(partition.slot_of(site))
                .iter_ones()
                .collect()
        };
        let (majority_side, minority_side) = (side(0), side(5));
        assert_eq!(majority_side, (0..5).collect::<Vec<_>>());
        assert_eq!(minority_side, (5..9).collect::<Vec<_>>());
        assert!(p.decide(Access::Write, &majority_side, 0).is_granted());
        assert!(!p.decide(Access::Write, &minority_side, 0).is_granted());
    }
}
