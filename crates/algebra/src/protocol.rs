//! Plugging general quorum systems into the simulation machinery.
//!
//! [`AlgebraProtocol`] adapts a [`QuorumSystem`] to the
//! `ConsistencyProtocol` trait, so the replica simulator's
//! `ComponentView`/`DeltaConnectivity` grant path drives arbitrary
//! coteries exactly as it drives vote thresholds: the simulator hands
//! the protocol the submitting site's component membership, and the
//! decision is set containment against the minimal-quorum families.
//! [`view_availability`] is the matching instantaneous evaluator — the
//! probability-free "what fraction of submitters could proceed right
//! now" question asked directly of a partition snapshot.

use crate::system::QuorumSystem;
use quorum_core::protocol::{Access, ConsistencyProtocol, Decision};
use quorum_core::QuorumSpec;
use quorum_graph::ComponentView;

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

    /// The underlying system.
    pub fn system(&self) -> &QuorumSystem {
        &self.system
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

    fn effective_spec(&self, _members: &[usize]) -> QuorumSpec {
        // General systems have no canonical vote threshold; report the
        // loosest consistent pair over one vote per site, for
        // observability.
        QuorumSpec::majority(self.system.n() as u64)
    }

    fn total_votes(&self) -> u64 {
        self.system.n() as u64
    }
}

/// Instantaneous mixed availability of `system` under a concrete
/// partition: the fraction of `submitters` (a site bitmask) that are up
/// and whose component contains a read quorum (weight `alpha`) or a
/// write quorum (weight `1 − alpha`). This is the ACC integrand — the
/// DES computes its time average over the failure/repair process.
///
/// # Panics
/// Panics if `submitters` is empty, `alpha` is outside `[0, 1]`, or
/// the view covers more than 64 sites.
pub fn view_availability(
    system: &QuorumSystem,
    view: &ComponentView,
    alpha: f64,
    submitters: u64,
) -> f64 {
    assert!(submitters != 0, "need at least one submitting site");
    assert!((0.0..=1.0).contains(&alpha), "α must lie in [0,1]");
    let mut granted = 0.0;
    let mut count = 0u32;
    for s in 0..64usize {
        if submitters >> s & 1 == 0 {
            continue;
        }
        count += 1;
        if view.component_of(s) == ComponentView::DOWN {
            continue;
        }
        let mask = view.member_mask(s);
        if system.read_available(mask) {
            granted += alpha;
        }
        if system.write_available(mask) {
            granted += 1.0 - alpha;
        }
    }
    granted / f64::from(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_graph::{NetworkState, Topology};

    fn view_with_down(topo: &Topology, down: &[usize]) -> ComponentView {
        let mut state = NetworkState::all_up(topo);
        for &s in down {
            state.set_site(s, false);
        }
        ComponentView::compute(topo, &state, &vec![1; topo.num_sites()])
    }

    #[test]
    fn protocol_decides_by_membership() {
        let mut p = AlgebraProtocol::new(QuorumSystem::majority(5, 0));
        assert_eq!(p.decide(Access::Read, &[0, 1, 2], 0), Decision::Granted);
        assert_eq!(p.decide(Access::Write, &[0, 1], 99), Decision::Denied);
        assert!(p.can_grant(Access::Write, &[2, 3, 4], 0));
        assert!(!p.can_grant(Access::Read, &[], 0));
        assert_eq!(p.total_votes(), 5);
        assert_eq!(p.effective_spec(&[]), QuorumSpec::majority(5));
    }

    #[test]
    fn grid_protocol_on_fully_connected_view() {
        let topo = Topology::fully_connected(9);
        let view = view_with_down(&topo, &[]);
        let sys = QuorumSystem::grid(3, 3, 0);
        let a = view_availability(&sys, &view, 0.5, (1 << 9) - 1);
        assert!((a - 1.0).abs() < 1e-12, "all up: fully available");
    }

    #[test]
    fn column_failure_blocks_grid_reads_not_writes() {
        // Down column 0 (sites 0, 3, 6) on a full graph: reads need one
        // site *per* column, so they fail; writes can use full column 1
        // plus covers from columns 0... no — covers need column 0 too.
        // Writes also need a site in every column; both fail. Use a
        // single down site instead: reads and writes both survive.
        let topo = Topology::fully_connected(9);
        let sys = QuorumSystem::grid(3, 3, 0);
        let all = (1u64 << 9) - 1;
        let one_down = view_with_down(&topo, &[4]);
        let a = view_availability(&sys, &one_down, 0.5, all);
        // 8 of 9 submitters are up and fully served.
        assert!((a - 8.0 / 9.0).abs() < 1e-12, "got {a}");
        let col_down = view_with_down(&topo, &[0, 3, 6]);
        let b = view_availability(&sys, &col_down, 0.5, all);
        assert!(b.abs() < 1e-12, "whole column down blocks everything");
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
        let view = ComponentView::compute(&topo, &state, &[1; 9]);
        let sys = QuorumSystem::majority(9, 0);
        let mut p = AlgebraProtocol::new(sys);
        let majority_side: Vec<usize> = view.members_of(0).collect();
        let minority_side: Vec<usize> = view.members_of(5).collect();
        assert_eq!(majority_side, (0..5).collect::<Vec<_>>());
        assert_eq!(minority_side, (5..9).collect::<Vec<_>>());
        assert!(p.decide(Access::Write, &majority_side, 0).is_granted());
        assert!(!p.decide(Access::Write, &minority_side, 0).is_granted());
    }

    #[test]
    fn submitter_mask_restricts_the_denominator() {
        // Bus-style: site 0 is the medium and never submits. With the
        // medium down the remaining sites are isolated; with it up they
        // form one component.
        let topo = Topology::star(5); // hub 0, leaves 1..=4
        let sys = QuorumSystem::majority(4, 1);
        let leaves: u64 = 0b11110;
        let up = view_with_down(&topo, &[]);
        let a = view_availability(&sys, &up, 0.5, leaves);
        assert!((a - 1.0).abs() < 1e-12);
        let hub_down = view_with_down(&topo, &[0]);
        let b = view_availability(&sys, &hub_down, 0.5, leaves);
        assert!(b.abs() < 1e-12, "isolated leaves can't reach a quorum");
    }
}
