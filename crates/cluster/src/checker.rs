//! Message-level serializability (freshness) checking.
//!
//! The instantaneous simulator's `SerializabilityChecker` works on
//! component membership: a read is fresh iff its component saw the last
//! write. In the message world that criterion is too strong *and* too
//! weak — messages cross partitions formed after sending, and commits
//! take time. The right invariant is version-based:
//!
//! > a committed read must return a version at least as new as the
//! > newest write that **committed before the read was submitted**.
//!
//! Writes committing while the read is in flight are concurrent with it;
//! one-copy serializability lets the read order before them. The engine
//! therefore captures [`FreshnessChecker::floor`] when a read session
//! opens and validates the session's result version against it on
//! commit. Under quorum intersection (conditions 1–2 of §2.1, plus the
//! joint-safety restriction on installs) and monotone version adoption,
//! the safe two-phase protocol never violates this; the
//! `commit_on_grant` ablation does, which is how the checker itself is
//! tested.

use crate::message::Version;
use crate::record::{read_leb128, write_leb128};

/// Tracks the globally newest committed version and counts stale reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct FreshnessChecker {
    latest_committed: Version,
    reads_checked: u64,
    violations: u64,
}

impl FreshnessChecker {
    /// Creates a checker with no committed writes (version 0).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The freshness floor for a read submitted *now*: the newest version
    /// any client has been told is committed.
    pub(crate) fn floor(&self) -> Version {
        self.latest_committed
    }

    /// Records a client-visible write commit of `version`.
    pub(crate) fn on_write_committed(&mut self, version: Version) {
        self.latest_committed = self.latest_committed.max(version);
    }

    /// Validates a committed read: `floor` is the checker's
    /// [`FreshnessChecker::floor`] captured when the session opened, and
    /// `result` is the highest version among the read quorum's replies.
    /// Returns `true` iff the read is fresh.
    pub(crate) fn on_read_committed(&mut self, floor: Version, result: Version) -> bool {
        self.reads_checked += 1;
        let fresh = result >= floor;
        if !fresh {
            self.violations += 1;
        }
        fresh
    }

    /// Stale reads detected so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Appends the three counters to a protocol-state record.
    pub(crate) fn write_record(&self, out: &mut Vec<u8>) {
        let Self {
            latest_committed,
            reads_checked,
            violations,
        } = *self;
        write_leb128(out, [latest_committed, reads_checked, violations]);
    }

    /// Reads the counters written by [`FreshnessChecker::write_record`].
    pub(crate) fn read_record(bytes: &mut &[u8]) -> Self {
        let [latest_committed, reads_checked, violations] = read_leb128(bytes);
        Self {
            latest_committed,
            reads_checked,
            violations,
        }
    }
}

#[cfg(test)]
impl FreshnessChecker {
    /// Committed reads validated so far.
    fn reads_checked(&self) -> u64 {
        self.reads_checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_and_stale_reads_are_distinguished() {
        let mut c = FreshnessChecker::new();
        assert_eq!(c.floor(), 0);
        c.on_write_committed(3);
        c.on_write_committed(2); // out-of-order commit news: floor keeps max
        assert_eq!(c.floor(), 3);

        let floor = c.floor();
        assert!(c.on_read_committed(floor, 3), "exact version is fresh");
        assert!(c.on_read_committed(floor, 5), "newer is fresh too");
        assert!(!c.on_read_committed(floor, 2), "older is stale");
        assert_eq!(c.reads_checked(), 3);
        assert_eq!(c.violations(), 1);
    }

    #[test]
    fn concurrent_write_does_not_retroactively_staleify() {
        let mut c = FreshnessChecker::new();
        c.on_write_committed(1);
        let floor = c.floor(); // read submitted here
        c.on_write_committed(2); // commits while the read is in flight
                                 // The read may legally return version 1: it ordered before the
                                 // concurrent write.
        assert!(c.on_read_committed(floor, 1));
        assert_eq!(c.violations(), 0);
    }
}
