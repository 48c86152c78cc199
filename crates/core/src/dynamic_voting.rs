//! Dynamic voting (Jajodia & Mutchler [12, 13]).
//!
//! The dynamic protocols the paper repeatedly cites adapt the *electorate*
//! rather than the quorum: an access needs a majority of the sites that
//! participated in the **most recent update**, not of all sites. After a
//! partition shrinks the system to 3 of 5 sites, the next update is owned
//! by those 3 — and a later majority of *them* (2 sites) suffices, where
//! static majority would still demand 3 of the original 5.
//!
//! Per-copy state (following the ToDS '90 presentation):
//!
//! * `vn` — version number of the most recent update this copy knows;
//! * `sc` — *update sites cardinality*: how many sites participated in
//!   that update.
//!
//! A component `C` may access the item iff, with `M = max vn in C`,
//! `I = {i ∈ C : vn_i = M}` and `N = sc` of any member of `I`:
//! `|I| > N/2`. An update then sets `vn = M+1`, `sc = |C|` on every member
//! (all reachable copies are written). Two disjoint components cannot both
//! hold strict majorities of the same update set, and the member with
//! `vn = M` holds the current value, so one-copy serializability follows —
//! the property tests and the DES checker verify both.
//!
//! Availability trade-off (paper §3): dynamic protocols keep a small
//! "distinguished" lineage alive through repeated shrinking — excellent
//! for SURV — but the lineage can contract onto few sites, so an
//! *arbitrary* submitter (ACC) is often outside it. The `dynamic_voting`
//! experiment measures exactly that.

use crate::protocol::{Access, ConsistencyProtocol, Decision};

/// The Jajodia–Mutchler dynamic voting protocol over `n` single-vote
/// copies.
#[derive(Debug, Clone)]
pub struct DynamicVoting {
    vn: Vec<u64>,
    sc: Vec<u32>,
    updates: u64,
}

impl DynamicVoting {
    /// All copies start at version 1 with the full site set as electorate.
    pub fn new(n_sites: usize) -> Self {
        assert!(n_sites > 0, "need at least one site");
        Self {
            vn: vec![1; n_sites],
            sc: vec![n_sites as u32; n_sites],
            updates: 0,
        }
    }

    /// Number of granted updates so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Evaluates the majority-of-last-electorate condition for a
    /// component, returning `(granted, max_vn)`.
    fn evaluate(&self, members: &[usize]) -> (bool, u64) {
        let Some(max_vn) = members.iter().map(|&s| self.vn[s]).max() else {
            return (false, 0);
        };
        let holders: Vec<usize> = members
            .iter()
            .copied()
            .filter(|&s| self.vn[s] == max_vn)
            .collect();
        let electorate = self.sc[holders[0]];
        // Strict majority of the last update's participants.
        let granted = 2 * holders.len() as u32 > electorate;
        (granted, max_vn)
    }
}

impl ConsistencyProtocol for DynamicVoting {
    fn can_grant(&self, _kind: Access, members: &[usize], _votes: u64) -> bool {
        self.evaluate(members).0
    }

    fn decide(&mut self, kind: Access, members: &[usize], _votes: u64) -> Decision {
        let (granted, max_vn) = self.evaluate(members);
        if !granted {
            return Decision::Denied;
        }
        if matches!(kind, Access::Write) {
            // The update installs on every reachable copy and the
            // electorate becomes exactly this component.
            let new_vn = max_vn + 1;
            for &s in members {
                self.vn[s] = new_vn;
                self.sc[s] = members.len() as u32;
            }
            self.updates += 1;
        }
        Decision::Granted
    }

    fn total_votes(&self) -> u64 {
        self.vn.len() as u64
    }
}

#[cfg(test)]
impl DynamicVoting {
    /// `(vn, sc)` of one site.
    fn site(&self, site: usize) -> (u64, u32) {
        (self.vn[site], self.sc[site])
    }

    /// Can this component currently access the item?
    fn can_access(&self, members: &[usize]) -> bool {
        self.evaluate(members).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(r: std::ops::Range<usize>) -> Vec<usize> {
        r.collect()
    }

    #[test]
    fn initial_majority_of_all_sites() {
        let mut dv = DynamicVoting::new(5);
        assert!(dv.can_access(&ids(0..3)), "3 of 5 is a majority");
        assert!(!dv.can_access(&ids(0..2)), "2 of 5 is not");
        assert_eq!(dv.decide(Access::Read, &ids(0..3), 3), Decision::Granted);
    }

    #[test]
    fn electorate_shrinks_with_updates() {
        let mut dv = DynamicVoting::new(5);
        // Update in {0,1,2}: electorate becomes those 3.
        assert_eq!(dv.decide(Access::Write, &ids(0..3), 3), Decision::Granted);
        assert_eq!(dv.site(0), (2, 3));
        // Now 2 of the NEW electorate suffices — static majority would
        // still demand 3 of 5.
        assert!(dv.can_access(&[0, 1]));
        // …while the old minority {3,4} (vn = 1, sc = 5) cannot act.
        assert!(!dv.can_access(&[3, 4]));
    }

    #[test]
    fn lineage_contracts_but_ties_block_it() {
        let mut dv = DynamicVoting::new(5);
        dv.decide(Access::Write, &ids(0..3), 3); // electorate {0,1,2}
        assert_eq!(dv.decide(Access::Write, &ids(0..2), 2), Decision::Granted);
        // Electorate is now {0,1}. A single site holds exactly half —
        // not a STRICT majority, so the lineage cannot contract to one
        // site (the tie weakness Jajodia–Mutchler's distinguished-site
        // extension addresses).
        assert_eq!(dv.site(0), (3, 2));
        assert!(!dv.can_access(&[0]));
        assert!(dv.can_access(&[0, 1]), "both electorate members can act");
        assert!(
            !dv.can_access(&ids(2..5)),
            "the three outsiders together cannot act"
        );
    }

    #[test]
    fn stale_branch_rejoining_defers_to_lineage() {
        let mut dv = DynamicVoting::new(5);
        dv.decide(Access::Write, &ids(0..3), 3);
        // {3,4} rejoin with {2}: component {2,3,4}; max vn = 2 at site 2,
        // electorate 3, holders = {2}: 1 of 3 is not a majority → denied.
        assert!(!dv.can_access(&[2, 3, 4]));
        // With two lineage members present it works: holders {1,2} of 3.
        assert!(dv.can_access(&[1, 2, 3]));
    }

    #[test]
    fn reads_do_not_shrink_the_electorate() {
        let mut dv = DynamicVoting::new(5);
        assert_eq!(dv.decide(Access::Read, &ids(0..3), 3), Decision::Granted);
        assert_eq!(dv.site(0), (1, 5), "read must not install a new epoch");
        assert_eq!(dv.updates(), 0);
    }

    #[test]
    fn no_two_disjoint_components_can_both_write() {
        // Exhaustive: for every reachable (vn, sc) state after a few
        // updates, no two disjoint member sets may both satisfy the
        // condition. Spot-check the adversarial split after a shrink.
        let mut dv = DynamicVoting::new(6);
        dv.decide(Access::Write, &ids(0..4), 4); // electorate {0,1,2,3}
                                                 // Splits of the electorate: {0,1} vs {2,3}: each holds 2 of 4 —
                                                 // NOT a strict majority → neither can act. (This is dynamic
                                                 // voting's known tie weakness; Jajodia-Mutchler break ties by
                                                 // site id in an extension.)
        assert!(!dv.can_access(&[0, 1]));
        assert!(!dv.can_access(&[2, 3]));
        // {0,1,2} vs {3}: only the first acts.
        assert!(dv.can_access(&[0, 1, 2]));
        assert!(!dv.can_access(&[3]));
    }

    #[test]
    fn randomized_disjoint_write_exclusion() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 8;
        let mut dv = DynamicVoting::new(n);
        for _ in 0..500 {
            // Random disjoint pair of groups.
            let mut a = Vec::new();
            let mut b = Vec::new();
            for s in 0..n {
                match rng.random_range(0..3) {
                    0 => a.push(s),
                    1 => b.push(s),
                    _ => {}
                }
            }
            if !a.is_empty() && !b.is_empty() {
                assert!(
                    !(dv.can_access(&a) && dv.can_access(&b)),
                    "disjoint {a:?} and {b:?} both satisfied the condition"
                );
            }
            // Random update to evolve the state.
            let group = if rng.random_range(0..2) == 0 { &a } else { &b };
            if !group.is_empty() {
                let votes = group.len() as u64;
                let _ = dv.decide(Access::Write, group, votes);
            }
        }
    }
}
