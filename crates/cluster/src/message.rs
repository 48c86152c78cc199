//! Typed messages exchanged by cluster sites.
//!
//! The paper's §2 protocol narrates quorum gathering as an instantaneous
//! predicate ("can the component raise `q_r` votes?"). This module is the
//! message-level refinement: every step of that predicate becomes an
//! explicit RPC, so latency, loss, and partial delivery are first-class.
//!
//! | Paper step (§2)                      | Message                      |
//! |--------------------------------------|------------------------------|
//! | poll sites for their votes           | [`Payload::VoteRequest`]     |
//! | a site pledges votes to a write      | [`Payload::VoteGrant`]       |
//! | a site ships its current copy        | [`Payload::ReadValue`]       |
//! | a site refuses (stale assignment)    | [`Payload::VoteDeny`]        |
//! | the write is applied at the quorum   | [`Payload::WriteCommit`]     |
//! | application acknowledged             | [`Payload::CommitAck`]       |
//! | §2.2 reassignment propagation        | [`Payload::Install`]         |
//!
//! The two-phase write (`VoteGrant` then `WriteCommit`/`CommitAck`) and
//! the epoch piggyback are *extensions* beyond the paper, needed because
//! a message world — unlike the paper's instantaneous one — can lose the
//! second half of an update.

use quorum_core::{Access, QuorumSpec};

/// Identifier of one client-visible quorum-gathering session.
pub type SessionId = u64;

/// Monotone version counter of the replicated value.
pub type Version = u64;

/// Session id used by messages that belong to no session (installs).
pub(crate) const NO_SESSION: SessionId = 0;

/// The protocol-level content of a message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// Coordinator asks a site to pledge its votes to `kind`. Carries the
    /// coordinator's assignment epoch and spec so lagging sites catch up
    /// from ordinary traffic (piggybacked §2.2 propagation).
    VoteRequest {
        /// Read or write.
        kind: Access,
        /// Coordinator's assignment epoch.
        epoch: u64,
        /// Coordinator's quorum spec (installed at `epoch`).
        epoch_spec: QuorumSpec,
    },
    /// A site pledges `votes` to a read and ships its current version —
    /// the versioned read value of §2.1 ("read the copy with the highest
    /// version number in the quorum").
    ReadValue {
        /// The responding site's votes.
        votes: u64,
        /// The responding site's stored version.
        version: Version,
        /// Assignment epoch the pledge was granted under. The
        /// coordinator ignores pledges whose epoch differs from its
        /// session's, so a pre-install pledge cannot count toward a
        /// quorum gathered under a later assignment.
        epoch: u64,
    },
    /// A site pledges `votes` to a write (phase 1); the version lets the
    /// coordinator pick `max + 1` for the new value.
    VoteGrant {
        /// The responding site's votes.
        votes: u64,
        /// The responding site's stored version.
        version: Version,
        /// Assignment epoch the grant was granted under (see
        /// [`Payload::ReadValue::epoch`]).
        epoch: u64,
    },
    /// A site refuses because it holds a *newer* quorum assignment than
    /// the request's epoch; carries that assignment so the coordinator
    /// adopts it before retrying.
    VoteDeny {
        /// The denying site's (newer) epoch.
        epoch: u64,
        /// The assignment installed at that epoch.
        epoch_spec: QuorumSpec,
    },
    /// Phase 2 of a write: install `version` at the site.
    WriteCommit {
        /// The new version being installed.
        version: Version,
    },
    /// A site acknowledges a [`Payload::WriteCommit`], re-pledging its
    /// votes; the write is client-visible once acks reach `q_w`.
    CommitAck {
        /// The acknowledging site's votes.
        votes: u64,
    },
    /// Scripted §2.2 quorum reassignment: adopt `epoch_spec` if `epoch`
    /// is newer than the receiver's current assignment.
    Install {
        /// Epoch of the new assignment.
        epoch: u64,
        /// The new quorum spec.
        epoch_spec: QuorumSpec,
    },
}

/// One in-flight message between two sites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Message {
    /// Sending site.
    pub from: usize,
    /// Destination site.
    pub to: usize,
    /// Session the message belongs to (`NO_SESSION`, 0, for installs).
    pub session: SessionId,
    /// Protocol content.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_small_and_copyable() {
        // Messages pass by value: into the event queue's payload slab
        // once per send, out of it once per delivery, and into
        // `ProtocolCore::handle_message`. The queue's heap sifts 32-byte
        // keys, never messages. Keep them compact.
        assert!(std::mem::size_of::<Message>() <= 64);
        let m = Message {
            from: 0,
            to: 1,
            session: 7,
            payload: Payload::CommitAck { votes: 3 },
        };
        let n = m; // Copy
        assert_eq!(m, n);
    }
}
