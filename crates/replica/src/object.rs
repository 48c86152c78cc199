//! One-copy serializability checking.
//!
//! The whole point of quorum constraints (§2.1) is that "any access to a
//! data item is aware of the most recent update". This checker tracks which
//! physical copies hold the current value: a granted write installs a new
//! version on every copy in its component; a granted read is *correct* iff
//! its component contains at least one current copy. Valid quorum pairs
//! (conditions 1–2) guarantee zero violations; the checker exists precisely
//! so tests can demonstrate both directions.
//!
//! The checker only ever asks whether a copy holds the *latest* version,
//! so it keeps the set of such copies as a bit set instead of a version
//! per copy: every check is one word-parallel intersection with the
//! component's member bits. The version-vector formulation survives as
//! the test oracle below.
//!
//! [`SerializabilityChecker::access`] is the one checked access step of
//! the replica engines ([`crate::Simulation`], [`crate::bus_sim`] and
//! [`crate::script`]): the protocol decides, the copy refreshes of any
//! reassignment it performed are applied, and a granted access is
//! checked. The engines differ only in where the component comes from
//! and what they count.

use quorum_core::{Access, ConsistencyProtocol, Decision};
use quorum_graph::BitSet;

/// Tracks copy currency and judges each granted access against it; the
/// engines count violations from the verdicts.
#[derive(Debug, Clone)]
pub struct SerializabilityChecker {
    /// Copies holding the most recent granted write (initially all).
    current: BitSet,
    /// Version of the most recent granted write; 0 = the initial value.
    latest: u64,
    /// Member set of the refresh being applied, reused across refreshes.
    refresh_bits: BitSet,
}

impl SerializabilityChecker {
    /// All copies start current (version 0).
    pub(crate) fn new(n_sites: usize) -> Self {
        Self {
            current: BitSet::all_set(n_sites),
            latest: 0,
            refresh_bits: BitSet::new(n_sites),
        }
    }

    /// One checked access: `protocol` decides on a `kind` access from a
    /// component with members `members` (ascending; `member_bits` is the
    /// same set) holding `votes` votes, the copy refreshes of any
    /// reassignment it performed inside `decide` are applied, and a
    /// granted access is checked. Returns the decision and whether the
    /// access was consistent (a fresh read or an aware write); a denied
    /// access is consistent.
    ///
    /// # Panics
    /// Panics if `member_bits` is not sized to the checker's site count.
    pub(crate) fn access<P: ConsistencyProtocol + ?Sized>(
        &mut self,
        protocol: &mut P,
        kind: Access,
        members: &[usize],
        member_bits: &BitSet,
        votes: u64,
    ) -> (Decision, bool) {
        let decision = protocol.decide(kind, members, votes);
        for refreshed in protocol.drain_refreshes() {
            self.refresh(&refreshed);
        }
        let consistent = match (decision.is_granted(), kind) {
            (false, _) => true,
            (true, Access::Write) => self.on_write_granted(member_bits),
            (true, Access::Read) => self.on_read_granted(member_bits),
        };
        (decision, consistent)
    }

    /// [`Self::on_refresh`] for a member list, such as one of a
    /// protocol's refreshes.
    pub(crate) fn refresh(&mut self, members: &[usize]) {
        let mut bits = std::mem::take(&mut self.refresh_bits);
        load_members(&mut bits, members);
        self.on_refresh(&bits);
        self.refresh_bits = bits;
    }

    /// True if a component with these members holds the latest value.
    /// Before the first write every copy does, even for an empty
    /// component (the initial value needs no copy to be known).
    fn sees_latest(&self, members: &BitSet) -> bool {
        self.latest == 0 || self.current.intersects(members)
    }

    /// Records a granted write performed from a component with member
    /// set `members`: all reachable copies receive the new version.
    ///
    /// Returns `false` — a *write-write conflict* — when the writing
    /// component could not see the most recent write (a lost update).
    /// Condition 2 (`q_w > T/2`) exists precisely to make this
    /// impossible; condition 1 alone only protects reads.
    ///
    /// # Panics
    /// Panics if `members` is not sized to the checker's site count.
    pub(crate) fn on_write_granted(&mut self, members: &BitSet) -> bool {
        let aware = self.sees_latest(members);
        self.latest += 1;
        self.current.copy_from(members);
        aware
    }

    /// Records a data refresh within a component: every member adopts the
    /// newest version any member holds. This models the copy update that
    /// must accompany a quorum *reassignment* (§2.2): the installing
    /// component holds a write quorum under the old assignment, and any
    /// two write quorums intersect (each exceeds T/2), so the component
    /// always contains a current copy to propagate. Without this refresh
    /// a subsequent read under a loosened `q_r` can miss the last write —
    /// see the `adaptive_tracks_reliability_degradation` test.
    ///
    /// # Panics
    /// Panics if `members` is not sized to the checker's site count.
    pub(crate) fn on_refresh(&mut self, members: &BitSet) {
        // A refresh without a current copy moves only older versions,
        // which no check ever compares against.
        if self.current.intersects(members) {
            self.current.or_assign(members);
        }
    }

    /// Checks a granted read from a component with member set
    /// `members`; returns `true` if the read saw the most recent write.
    ///
    /// # Panics
    /// Panics if `members` is not sized to the checker's site count.
    pub(crate) fn on_read_granted(&self, members: &BitSet) -> bool {
        self.sees_latest(members)
    }
}

/// Overwrites `bits` with the sites in `members`: how a protocol's
/// refresh list becomes the checker's member set without allocating.
fn load_members(bits: &mut BitSet, members: &[usize]) {
    bits.fill(false);
    for &site in members {
        bits.set(site, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The version-vector checker the bit-set one replaced, kept as the
    /// reference: one monotone version per copy, every check a max over
    /// the component's copies compared with the latest version.
    struct VersionVectorChecker {
        copy_version: Vec<u64>,
        latest: u64,
    }

    impl VersionVectorChecker {
        fn new(n_sites: usize) -> Self {
            Self {
                copy_version: vec![0; n_sites],
                latest: 0,
            }
        }

        fn best(&self, members: &[usize]) -> u64 {
            members
                .iter()
                .map(|&s| self.copy_version[s])
                .max()
                .unwrap_or(0)
        }

        fn on_write_granted(&mut self, members: &[usize]) -> bool {
            let aware = self.best(members) == self.latest;
            self.latest += 1;
            for &s in members {
                self.copy_version[s] = self.latest;
            }
            aware
        }

        fn on_refresh(&mut self, members: &[usize]) {
            let best = self.best(members);
            for &s in members {
                self.copy_version[s] = best;
            }
        }

        fn on_read_granted(&self, members: &[usize]) -> bool {
            self.best(members) == self.latest
        }
    }

    fn bits(n: usize, members: &[usize]) -> BitSet {
        let mut b = BitSet::new(n);
        load_members(&mut b, members);
        b
    }

    #[test]
    fn read_after_write_in_same_component_is_fresh() {
        let mut c = SerializabilityChecker::new(5);
        assert!(c.on_write_granted(&bits(5, &[0, 1, 2])));
        assert!(c.on_read_granted(&bits(5, &[2, 3])));
    }

    #[test]
    fn read_in_disjoint_component_is_stale() {
        let mut c = SerializabilityChecker::new(5);
        c.on_write_granted(&bits(5, &[0, 1, 2]));
        assert!(
            !c.on_read_granted(&bits(5, &[3, 4])),
            "no current copy reachable"
        );
    }

    #[test]
    fn initial_reads_are_fresh() {
        let c = SerializabilityChecker::new(3);
        assert!(c.on_read_granted(&bits(3, &[1])));
    }

    #[test]
    fn later_write_supersedes() {
        let mut c = SerializabilityChecker::new(4);
        assert!(c.on_write_granted(&bits(4, &[0, 1, 2, 3])));
        // Partition shrank, quorum held.
        assert!(c.on_write_granted(&bits(4, &[0, 1])));
        assert!(c.on_read_granted(&bits(4, &[1, 2])), "copy 1 is current");
        assert!(
            !c.on_read_granted(&bits(4, &[2, 3])),
            "copies 2,3 hold version 1"
        );
    }

    #[test]
    fn disjoint_writes_conflict() {
        // Two writes in disjoint components: the second cannot have seen
        // the first — a lost update (what condition 2 forbids).
        let mut c = SerializabilityChecker::new(6);
        assert!(c.on_write_granted(&bits(6, &[0, 1, 2])));
        assert!(!c.on_write_granted(&bits(6, &[3, 4, 5])), "blind write");
        // A read that reaches the newest epoch is still "fresh" w.r.t. the
        // version counter, but the history is already non-serializable.
        assert!(c.on_read_granted(&bits(6, &[4])));
    }

    #[test]
    fn refresh_spreads_the_current_value_only_from_a_current_copy() {
        let mut c = SerializabilityChecker::new(6);
        c.on_write_granted(&bits(6, &[0, 1]));
        // {2, 3} holds no current copy: refreshing it changes nothing.
        c.on_refresh(&bits(6, &[2, 3]));
        assert!(!c.on_read_granted(&bits(6, &[3])));
        // {1, 2, 3} does: afterwards all three are current.
        c.on_refresh(&bits(6, &[1, 2, 3]));
        assert!(c.on_read_granted(&bits(6, &[3])));
        assert!(!c.on_read_granted(&bits(6, &[4, 5])));
    }

    #[test]
    fn empty_member_read_counts_against_initial_only() {
        let mut c = SerializabilityChecker::new(3);
        assert!(c.on_read_granted(&bits(3, &[])), "version 0 everywhere");
        c.on_write_granted(&bits(3, &[0]));
        assert!(!c.on_read_granted(&bits(3, &[])));
    }

    /// Member subset of `0..n` drawn from `shape` and two random words:
    /// empty, full, one site, a short run of sites (often disjoint from
    /// the last writer, so stale reads and lost updates occur at every
    /// `n`), sparse (~1/4), dense (~3/4) or half.
    fn subset(n: usize, shape: u8, a: u64, b: u64) -> Vec<usize> {
        let start = (a % n as u64) as usize;
        match shape {
            2 => return vec![start],
            3 => return (start..n.min(start + 1 + (b % 8) as usize)).collect(),
            _ => {}
        }
        let word = |i: usize| {
            let (x, y) = (a.rotate_left(i as u32), b.rotate_right(i as u32));
            match shape {
                0 => 0,
                1 => u64::MAX,
                4 => x & y,
                5 => x | y,
                _ => x ^ y,
            }
        };
        (0..n)
            .filter(|&i| (word(i / 64) >> (i % 64)) & 1 == 1)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The bit-set checker and the version-vector reference agree on
        /// every verdict of a random write/read/refresh sequence: each
        /// write's awareness, each read's freshness, and after each
        /// refresh the freshness of a read from the refreshed members.
        #[test]
        fn bitset_checker_matches_version_vectors(
            size in 0usize..5,
            ops in prop::collection::vec(
                (0u8..3, 0u8..7, 0u64..u64::MAX, 0u64..u64::MAX),
                0..60,
            ),
        ) {
            let n = [1, 63, 64, 65, 101][size];
            let mut fast = SerializabilityChecker::new(n);
            let mut oracle = VersionVectorChecker::new(n);
            for &(op, shape, a, b) in &ops {
                let members = subset(n, shape, a, b);
                let member_bits = bits(n, &members);
                match op {
                    0 => prop_assert_eq!(
                        fast.on_write_granted(&member_bits),
                        oracle.on_write_granted(&members)
                    ),
                    1 => prop_assert_eq!(
                        fast.on_read_granted(&member_bits),
                        oracle.on_read_granted(&members)
                    ),
                    _ => {
                        fast.on_refresh(&member_bits);
                        oracle.on_refresh(&members);
                        prop_assert_eq!(
                            fast.on_read_granted(&member_bits),
                            oracle.on_read_granted(&members)
                        );
                    }
                }
            }
        }
    }
}
