//! The cluster protocol core, factored out of the event loop so that it
//! can run under *any* scheduler — the stochastic [`crate::engine`]
//! event loop or the bounded exhaustive explorer in `quorum-mc`.
//!
//! ## Why this split exists
//!
//! The engine's per-site state machines (vote gathering, two-phase
//! writes, timeouts/retries, §2.2 install adoption) used to live inside
//! the batch event loop, welded to the RNG-driven transport. That made
//! the *protocol rules* testable only through stochastic schedules. This
//! module extracts every protocol decision into [`ProtocolCore`], which
//! talks to its environment exclusively through the [`Scheduler`] trait:
//!
//! * the stochastic engine implements [`Scheduler`] on top of
//!   [`quorum_des::EventQueue`] (Bernoulli loss, sampled latency,
//!   cancellable timers);
//! * a model checker implements it as a bag of in-flight messages and a
//!   set of pending timers, turning every delivery, drop, and timeout
//!   into an enumerable choice point.
//!
//! Both drivers run the *same* compiled protocol code, so a property
//! verified by exhaustive exploration is a property of the shipping
//! engine, not of a re-model.
//!
//! ## Cross-epoch vote accumulation (the bug this module fixes)
//!
//! A session gathers pledges under one assignment epoch. Two channels
//! used to let pledges from an older epoch count toward a quorum
//! evaluated against a newer spec:
//!
//! 1. **Timeout adoption** — [`ProtocolCore::session_timeout`] adopts
//!    the coordinator's newest assignment on retry but kept the
//!    `votes`/`contributed` accumulators from the old epoch;
//! 2. **Late pledges** — a `ReadValue`/`VoteGrant` sent before an
//!    install could arrive after the session had adopted the new epoch
//!    and still be counted.
//!
//! With spec-only, pairwise jointly-safe installs this mixing happens to
//! be benign for freshness (per-site weights are static, so any set
//! reaching the new threshold is a valid quorum under the new spec), but
//! it silently violates the §2.2 contract that a quorum is gathered
//! under a *single* assignment — the contract weight-changing
//! reassignment (ROADMAP item 5) depends on. The fix: timeouts that
//! adopt a different epoch reset the accumulators and re-seed the
//! coordinator's own pledge, and pledges are epoch-tagged and filtered.
//! [`crate::ClusterConfig::mix_epoch_votes`] restores the pre-fix
//! behavior as an ablation so the model checker can demonstrate it
//! *finds* the bug.

use crate::checker::FreshnessChecker;
use crate::config::ClusterConfig;
use crate::message::{Message, Payload, SessionId, Version, NO_SESSION};
use crate::record::{
    access_from, access_word, narrow, read_flags, read_leb128, spec_from, spec_words, write_flags,
    write_leb128,
};
use crate::stats::{ClusterStats, Outcome};
use quorum_core::{Access, QuorumSpec, SiteAssignment, VoteAssignment};
use quorum_des::SimTime;

/// Opaque handle to a pending session timer, issued by a [`Scheduler`].
///
/// The stochastic scheduler wraps a [`quorum_des::EventKey`]; a model
/// checker mints its own values. The core never inspects the contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerToken(u64);

impl TimerToken {
    /// Wraps a scheduler-chosen raw value.
    pub fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw value this token was created with.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Everything the protocol core asks of its environment.
///
/// The contract mirrors the §5.2 message world: `send` hands a message
/// to the transport (which may lose it immediately, delay it, or — in a
/// model checker — hold it as an enumerable choice), and timers drive
/// the bounded-retry machinery. Implementations decide *when* (or
/// *whether*) sent messages come back via
/// [`ProtocolCore::handle_message`] and when armed timers come back via
/// [`ProtocolCore::session_timeout`]. The environment also says where
/// the core tallies: [`Scheduler::stats`] is a [`ClusterStats`] the
/// environment owns, which the core writes and never reads.
pub trait Scheduler {
    /// Current simulated time; labels session latencies. A model checker
    /// with no clock may return [`SimTime::ZERO`] everywhere.
    fn now(&self) -> SimTime;

    /// Accepts `msg` for eventual (possibly never) delivery. Returns
    /// `false` iff the transport dropped it at send time (Bernoulli
    /// loss); the caller counts the drop.
    fn send(&mut self, msg: Message) -> bool;

    /// Arms the timer for session `id` to fire after `timeout` simulated
    /// time units (a model checker may ignore the duration and treat the
    /// firing instant as a nondeterministic choice).
    fn arm_timer(&mut self, id: SessionId, timeout: f64) -> TimerToken;

    /// Cancels a previously armed timer; `true` iff it was still
    /// pending.
    fn cancel_timer(&mut self, token: TimerToken) -> bool;

    /// The statistics the core tallies into: sends and send-time drops,
    /// sessions opened, retries, adoptions, epoch resets and ignored
    /// stale pledges, and each measured session's outcome and latency.
    fn stats(&mut self) -> &mut ClusterStats;
}

/// Which part of a session is gathering votes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Phase 1: gathering `ReadValue`/`VoteGrant` pledges.
    Gather,
    /// Phase 2 (writes only): gathering `CommitAck`s.
    Commit,
}

/// Coordinator-side state of one in-flight session. Its per-site
/// `contributed` flags live in [`ProtocolCore`]'s flag table, so a
/// session owns no buffer and copies as plain data.
#[derive(Debug, Clone, Copy)]
struct Session {
    id: SessionId,
    origin: usize,
    kind: Access,
    submitted_at: SimTime,
    measured_index: Option<u64>,
    round: u32,
    phase: SessionPhase,
    votes: u64,
    max_version: Version,
    new_version: Version,
    floor: Version,
    spec: QuorumSpec,
    epoch: u64,
    timer: TimerToken,
}

impl Session {
    /// Appends the session to a protocol-state record: the fields up to
    /// `votes` as one group of words, its `contributed` flags, then the
    /// fields after. The pattern names all fourteen fields, so a new one
    /// does not compile until it is written here and read back in
    /// [`Session::read_record`].
    fn write_record(&self, contributed: &[bool], out: &mut Vec<u8>) {
        let Session {
            id,
            origin,
            kind,
            submitted_at,
            measured_index,
            round,
            phase,
            votes,
            max_version,
            new_version,
            floor,
            spec,
            epoch,
            timer,
        } = *self;
        // `None` is 0 and `Some(i)` is `i + 1`; an access index is far
        // below `u64::MAX`.
        let measured = measured_index.map_or(0, |i| {
            i.checked_add(1).expect("measured index below u64::MAX")
        });
        let phase = match phase {
            SessionPhase::Gather => 0,
            SessionPhase::Commit => 1,
        };
        write_leb128(
            out,
            [
                id,
                origin as u64,
                access_word(kind),
                submitted_at.as_f64().to_bits(),
                measured,
                u64::from(round),
                phase,
                votes,
            ],
        );
        write_flags(out, contributed);
        let [q_r, q_w, total] = spec_words(spec);
        write_leb128(
            out,
            [
                max_version,
                new_version,
                floor,
                q_r,
                q_w,
                total,
                epoch,
                timer.raw(),
            ],
        );
    }

    /// Reads a session written by [`Session::write_record`] over
    /// `num_sites` sites, appending its flags to `flags`.
    fn read_record(bytes: &mut &[u8], flags: &mut Vec<bool>, num_sites: usize) -> Self {
        let [id, origin, kind, submitted_at, measured, round, phase, votes] = read_leb128(bytes);
        read_flags(bytes, num_sites, flags);
        let [max_version, new_version, floor, q_r, q_w, total, epoch, timer] = read_leb128(bytes);
        Self {
            id,
            origin: narrow(origin),
            kind: access_from(kind),
            // A `SimTime` is never negative, NaN or −0.0, so its bits
            // come back as the same timestamp.
            submitted_at: SimTime::new(f64::from_bits(submitted_at)),
            measured_index: measured.checked_sub(1),
            round: narrow(round),
            phase: match phase {
                0 => SessionPhase::Gather,
                1 => SessionPhase::Commit,
                _ => panic!("record holds session phase {phase}"),
            },
            votes,
            max_version,
            new_version,
            floor,
            spec: spec_from([q_r, q_w, total]),
            epoch,
            timer: TimerToken::new(timer),
        }
    }

    fn view<'s>(&self, contributed: &'s [bool]) -> SessionView<'s> {
        SessionView {
            origin: self.origin,
            kind: self.kind,
            phase: self.phase,
            round: self.round,
            votes: self.votes,
            contributed,
            epoch: self.epoch,
            max_version: self.max_version,
            new_version: self.new_version,
        }
    }
}

/// Durable per-site replica state.
#[derive(Debug, Clone, Copy)]
struct SiteState {
    version: Version,
    assignment: SiteAssignment,
}

/// Read-only snapshot of one open session, for invariant checkers and
/// schedulers that need to reason about protocol state (e.g. the model
/// checker's partial-order reduction asks whether a delivery can
/// resolve the session).
#[derive(Debug, Clone, Copy)]
pub struct SessionView<'s> {
    /// Coordinator site.
    pub origin: usize,
    /// Read or write.
    pub kind: Access,
    /// Gathering pledges or gathering commit acks.
    pub phase: SessionPhase,
    /// Retry round (0 = first attempt).
    pub round: u32,
    /// Votes accumulated in the current phase.
    pub votes: u64,
    /// Which sites contributed to the current phase.
    pub contributed: &'s [bool],
    /// Assignment epoch the session is gathering under.
    pub epoch: u64,
    /// Highest version among phase-1 replies.
    pub max_version: Version,
    /// Version a write will install (0 until phase 2).
    pub new_version: Version,
}

/// Read-only snapshot of one site's durable replica state.
#[derive(Debug, Clone, Copy)]
pub struct SiteView {
    /// Stored version of the replicated value.
    pub version: Version,
    /// Installed assignment epoch.
    pub epoch: u64,
    /// Quorum spec installed at that epoch.
    pub spec: QuorumSpec,
}

/// The protocol state machines of every site plus all coordinator-side
/// session state, independent of any particular scheduler.
///
/// The engine's event loop owns one per batch. The model checker keeps
/// its unexpanded states as byte records
/// ([`ProtocolCore::write_record`]), reads each one back into a scratch
/// core ([`ProtocolCore::read_record`]) and steps its transitions on
/// scratch cores refilled by `clone_from`.
///
/// Every open session's per-site `contributed` flags sit in one flag
/// table: the session at position `i` of the id-sorted session table
/// owns `flags[i·n..(i+1)·n]` for `n` sites. A session is plain `Copy`
/// data, so opening a session appends `n` flags to the table,
/// resolving one removes its `n`, and reading a record or refilling by
/// `clone_from` reuses the site, session and flag tables: none of them
/// allocates once the tables have grown to the largest state seen.
///
/// The core holds protocol state only: its statistics go to its
/// environment through [`Scheduler::stats`]. Violation counting lives in
/// the embedded [`FreshnessChecker`], which is protocol state: the
/// freshness floor feeds every later read's check.
#[derive(Debug)]
pub struct ProtocolCore<'a> {
    config: &'a ClusterConfig,
    votes: &'a VoteAssignment,
    num_sites: usize,
    sites: Vec<SiteState>,
    // Open sessions, sorted by id (clippy.toml bars hash maps, DESIGN.md
    // §9): sweeps over open sessions feed canonical encodings, so
    // iteration order must be deterministic. Ids are handed out in
    // ascending order, so opening a session is a push and a lookup is a
    // binary search.
    sessions: Vec<Session>,
    /// The flag table: `sessions[i]`'s `contributed` flags are
    /// `flags[i * num_sites..(i + 1) * num_sites]`.
    flags: Vec<bool>,
    next_session: SessionId,
    checker: FreshnessChecker,
}

/// `clone_from` reuses the site, session and flag tables. The remaining
/// fields come from `..*src`, so a new owning field does not compile
/// until it is handled here.
impl Clone for ProtocolCore<'_> {
    fn clone(&self) -> Self {
        Self {
            sites: self.sites.clone(),
            sessions: self.sessions.clone(),
            flags: self.flags.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let mut sites = std::mem::take(&mut self.sites);
        let mut sessions = std::mem::take(&mut self.sessions);
        let mut flags = std::mem::take(&mut self.flags);
        sites.clone_from(&src.sites);
        sessions.clone_from(&src.sessions);
        flags.clone_from(&src.flags);
        *self = Self {
            sites,
            sessions,
            flags,
            ..*src
        };
    }
}

impl<'a> ProtocolCore<'a> {
    /// Creates a core with every site at version 0 under `initial_spec`
    /// (epoch 0).
    pub fn new(
        config: &'a ClusterConfig,
        votes: &'a VoteAssignment,
        initial_spec: QuorumSpec,
    ) -> Self {
        let num_sites = votes.num_sites();
        Self {
            config,
            votes,
            num_sites,
            sites: vec![
                SiteState {
                    version: 0,
                    assignment: SiteAssignment {
                        version: 0,
                        spec: initial_spec,
                    },
                };
                num_sites
            ],
            sessions: Vec::new(),
            flags: Vec::new(),
            next_session: NO_SESSION + 1,
            checker: FreshnessChecker::new(),
        }
    }

    /// Appends this core's protocol state to `out` as a byte record:
    /// each site's version, epoch and spec, the next session id, the open
    /// sessions with all their fields, and the freshness checker's
    /// counters. The shared config and vote assignment are not part of
    /// it; see the `record` module docs for the encoding.
    pub fn write_record(&self, out: &mut Vec<u8>) {
        for site in &self.sites {
            let [q_r, q_w, total] = spec_words(site.assignment.spec);
            write_leb128(
                out,
                [site.version, site.assignment.version, q_r, q_w, total],
            );
        }
        write_leb128(out, [self.next_session, self.sessions.len() as u64]);
        for (i, session) in self.sessions.iter().enumerate() {
            session.write_record(self.flags_of(i), out);
        }
        self.checker.write_record(out);
    }

    /// Overwrites this core with the record at the front of `bytes`, as
    /// written by [`ProtocolCore::write_record`] from a core over the
    /// same config and votes, and moves `bytes` past it. The site, session
    /// and flag tables are reused.
    ///
    /// # Panics
    /// Panics if `bytes` does not start with a whole record.
    pub fn read_record(&mut self, bytes: &mut &[u8]) {
        for site in &mut self.sites {
            let [version, epoch, q_r, q_w, total] = read_leb128(bytes);
            *site = SiteState {
                version,
                assignment: SiteAssignment {
                    version: epoch,
                    spec: spec_from([q_r, q_w, total]),
                },
            };
        }
        let [next_session, open] = read_leb128(bytes);
        self.next_session = next_session;
        let open: usize = narrow(open);
        self.sessions.clear();
        self.flags.clear();
        for _ in 0..open {
            let session = Session::read_record(bytes, &mut self.flags, self.num_sites);
            self.sessions.push(session);
        }
        self.checker = FreshnessChecker::read_record(bytes);
    }

    /// The freshness checker (floor and violation counts).
    pub fn checker(&self) -> &FreshnessChecker {
        &self.checker
    }

    /// Number of unresolved sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Every unresolved session with its snapshot, ascending by id.
    pub fn sessions(&self) -> impl Iterator<Item = (SessionId, SessionView<'_>)> {
        (0..self.sessions.len()).map(|i| (self.sessions[i].id, self.view(i)))
    }

    /// The flags of the session at table position `i`.
    fn flags_of(&self, i: usize) -> &[bool] {
        &self.flags[i * self.num_sites..(i + 1) * self.num_sites]
    }

    /// The session at table position `i` and its flags, both mutable.
    fn session_mut(&mut self, i: usize) -> (&mut Session, &mut [bool]) {
        let n = self.num_sites;
        (&mut self.sessions[i], &mut self.flags[i * n..(i + 1) * n])
    }

    /// Snapshot of the session at table position `i`.
    fn view(&self, i: usize) -> SessionView<'_> {
        self.sessions[i].view(self.flags_of(i))
    }

    /// Takes the session at table position `i` out of the session table
    /// and its flags out of the flag table.
    fn remove_session(&mut self, i: usize) -> Session {
        let n = self.num_sites;
        self.flags.drain(i * n..(i + 1) * n);
        self.sessions.remove(i)
    }

    /// Position of open session `id` in the id-sorted session table.
    fn session_index(&self, id: SessionId) -> Option<usize> {
        self.sessions.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// Open session `id`, if any.
    fn session(&self, id: SessionId) -> Option<&Session> {
        self.session_index(id).map(|i| &self.sessions[i])
    }

    /// Coordinator of session `id`, if the session is still open.
    pub(crate) fn session_origin(&self, id: SessionId) -> Option<usize> {
        self.session(id).map(|s| s.origin)
    }

    /// Snapshot of session `id`, if still open.
    pub fn session_view(&self, id: SessionId) -> Option<SessionView<'_>> {
        self.session_index(id).map(|i| self.view(i))
    }

    /// Snapshot of site `site`'s durable state.
    ///
    /// # Panics
    /// Panics if `site` is out of range.
    pub fn site_view(&self, site: usize) -> SiteView {
        let s = &self.sites[site];
        SiteView {
            version: s.version,
            epoch: s.assignment.version,
            spec: s.assignment.spec,
        }
    }

    /// Sends a message, counting the send and an immediate transport
    /// drop.
    fn send(sched: &mut impl Scheduler, msg: Message) {
        let accepted = sched.send(msg);
        let stats = sched.stats();
        stats.messages_sent += 1;
        if !accepted {
            stats.messages_dropped += 1;
        }
    }

    fn record_outcome(
        &self,
        sched: &mut impl Scheduler,
        index: Option<u64>,
        kind: Access,
        outcome: Outcome,
    ) {
        if self.config.record_outcomes {
            if let Some(i) = index {
                sched.stats().outcomes[i as usize] = Some((kind, outcome));
            }
        }
    }

    /// Opens a session at an up coordinator: pledge the coordinator's
    /// own votes, arm the round-0 timer, broadcast
    /// [`Payload::VoteRequest`], and resolve immediately if the
    /// coordinator alone already holds a quorum. Returns the session id
    /// (the session may already be resolved on return).
    ///
    /// The caller is responsible for submission accounting and for the
    /// coordinator-down (`Unavailable`) path — both depend on
    /// batch-level measurement state.
    pub fn open_session(
        &mut self,
        origin: usize,
        kind: Access,
        measured_index: Option<u64>,
        sched: &mut impl Scheduler,
    ) -> SessionId {
        let id = self.next_session;
        self.next_session += 1;
        sched.stats().sessions_opened += 1;
        let assignment = self.sites[origin].assignment;
        let own = self.votes.votes_of(origin);
        let n = self.num_sites;
        let base = self.flags.len();
        self.flags.resize(base + n, false);
        self.flags[base + origin] = true;
        let timer = sched.arm_timer(id, self.config.timeout_for(0));
        // `id` exceeds every id handed out before, so pushing keeps the
        // table sorted.
        self.sessions.push(Session {
            id,
            origin,
            kind,
            submitted_at: sched.now(),
            measured_index,
            round: 0,
            phase: SessionPhase::Gather,
            votes: own,
            max_version: self.sites[origin].version,
            new_version: 0,
            floor: self.checker.floor(),
            spec: assignment.spec,
            epoch: assignment.version,
            timer,
        });
        for peer in (0..n).filter(|&p| p != origin) {
            Self::send(
                sched,
                Message {
                    from: origin,
                    to: peer,
                    session: id,
                    payload: Payload::VoteRequest {
                        kind,
                        epoch: assignment.version,
                        epoch_spec: assignment.spec,
                    },
                },
            );
        }
        // Single-site quorum (e.g. ROWA reads, weighted coordinators).
        // The new session is still the table's last entry.
        if own >= assignment.spec.threshold(kind) {
            self.quorum_reached(self.sessions.len() - 1, sched);
        }
        id
    }

    /// Runs the receiving actor's step for a delivered message. The
    /// caller has already decided deliverability (connectivity at the
    /// delivery instant) and counted the delivery.
    pub fn handle_message(&mut self, msg: Message, sched: &mut impl Scheduler) {
        let site = msg.to;
        match msg.payload {
            Payload::VoteRequest {
                kind,
                epoch,
                epoch_spec,
            } => {
                let known = self.sites[site].assignment.version;
                if epoch > known {
                    // Piggybacked propagation: lagging sites catch up
                    // from ordinary traffic.
                    self.sites[site].assignment = SiteAssignment {
                        version: epoch,
                        spec: epoch_spec,
                    };
                    sched.stats().installs_applied += 1;
                } else if known > epoch {
                    let a = self.sites[site].assignment;
                    Self::send(
                        sched,
                        Message {
                            from: site,
                            to: msg.from,
                            session: msg.session,
                            payload: Payload::VoteDeny {
                                epoch: a.version,
                                epoch_spec: a.spec,
                            },
                        },
                    );
                    return;
                }
                let votes = self.votes.votes_of(site);
                let version = self.sites[site].version;
                // After the catch-up above the replier is exactly on the
                // request's epoch, so the pledge is tagged with it.
                let epoch = self.sites[site].assignment.version;
                let reply = match kind {
                    Access::Read => Payload::ReadValue {
                        votes,
                        version,
                        epoch,
                    },
                    Access::Write => Payload::VoteGrant {
                        votes,
                        version,
                        epoch,
                    },
                };
                Self::send(
                    sched,
                    Message {
                        from: site,
                        to: msg.from,
                        session: msg.session,
                        payload: reply,
                    },
                );
            }
            Payload::ReadValue {
                votes,
                version,
                epoch,
            }
            | Payload::VoteGrant {
                votes,
                version,
                epoch,
            } => {
                self.vote_received(msg.session, msg.from, votes, version, epoch, sched);
            }
            Payload::VoteDeny { epoch, epoch_spec } => {
                if epoch > self.sites[site].assignment.version {
                    self.sites[site].assignment = SiteAssignment {
                        version: epoch,
                        spec: epoch_spec,
                    };
                    sched.stats().installs_applied += 1;
                }
            }
            Payload::WriteCommit { version } => {
                if version > self.sites[site].version {
                    self.sites[site].version = version;
                }
                let votes = self.votes.votes_of(site);
                Self::send(
                    sched,
                    Message {
                        from: site,
                        to: msg.from,
                        session: msg.session,
                        payload: Payload::CommitAck { votes },
                    },
                );
            }
            Payload::CommitAck { votes } => {
                self.ack_received(msg.session, msg.from, votes, sched);
            }
            Payload::Install { epoch, epoch_spec } => {
                if epoch > self.sites[site].assignment.version {
                    self.sites[site].assignment = SiteAssignment {
                        version: epoch,
                        spec: epoch_spec,
                    };
                    sched.stats().installs_applied += 1;
                }
            }
        }
    }

    /// A phase-1 pledge arrived at the coordinator.
    fn vote_received(
        &mut self,
        id: SessionId,
        from: usize,
        votes: u64,
        version: Version,
        epoch: u64,
        sched: &mut impl Scheduler,
    ) {
        let Some(i) = self.session_index(id) else {
            return; // session already resolved; stale reply
        };
        let mix = self.config.mix_epoch_votes;
        let (s, contributed) = self.session_mut(i);
        if s.phase != SessionPhase::Gather || contributed[from] {
            return;
        }
        if epoch != s.epoch && !mix {
            // A pledge granted under a different assignment epoch must
            // not count toward this session's quorum: the session's
            // threshold belongs to *its* epoch. (Pre-install pledges
            // arriving after a timeout adopted a newer assignment land
            // here.) The retry machinery re-requests the pledge under
            // the session's current epoch.
            sched.stats().stale_grants_ignored += 1;
            return;
        }
        contributed[from] = true;
        s.votes += votes;
        s.max_version = s.max_version.max(version);
        if s.votes >= s.spec.threshold(s.kind) {
            self.quorum_reached(i, sched);
        }
    }

    /// A phase-2 ack arrived at the coordinator.
    fn ack_received(&mut self, id: SessionId, from: usize, votes: u64, sched: &mut impl Scheduler) {
        // A stale ack for a resolved session is silently ignored rather
        // than a panic path.
        let Some(i) = self.session_index(id) else {
            return;
        };
        let (s, contributed) = self.session_mut(i);
        if s.phase != SessionPhase::Commit || contributed[from] {
            return;
        }
        contributed[from] = true;
        s.votes += votes;
        if s.votes >= s.spec.q_w() {
            let s = self.remove_session(i);
            self.resolve_committed(s, sched);
        }
    }

    /// Phase-1 votes reached the threshold for the session at table
    /// position `i`: reads commit, writes enter (or — under the unsafe
    /// ablation — skip) the commit phase. Sessions that resolve leave the
    /// table; a write entering its commit phase stays at position `i`
    /// (sending never opens or closes a session).
    fn quorum_reached(&mut self, i: usize, sched: &mut impl Scheduler) {
        let kind = self.sessions[i].kind;
        match kind {
            Access::Read => {
                let s = self.remove_session(i);
                self.resolve_committed(s, sched);
            }
            Access::Write if self.config.commit_on_grant => {
                // UNSAFE ablation: client told "committed" before any
                // replica durably holds the new version. The freshness
                // checker exists to catch exactly this.
                let mut s = self.remove_session(i);
                let id = s.id;
                s.new_version = s.max_version + 1;
                let (origin, version) = (s.origin, s.new_version);
                self.sites[origin].version = self.sites[origin].version.max(version);
                let n = self.num_sites;
                for peer in (0..n).filter(|&p| p != origin) {
                    Self::send(
                        sched,
                        Message {
                            from: origin,
                            to: peer,
                            session: id,
                            payload: Payload::WriteCommit { version },
                        },
                    );
                }
                self.resolve_committed(s, sched);
            }
            Access::Write => {
                let own = self.votes.votes_of(self.sessions[i].origin);
                let (s, contributed) = self.session_mut(i);
                s.new_version = s.max_version + 1;
                s.phase = SessionPhase::Commit;
                let (id, origin) = (s.id, s.origin);
                s.votes = own;
                contributed.fill(false);
                contributed[origin] = true;
                let version = s.new_version;
                let q_w = s.spec.q_w();
                // The coordinator is a replica too: it adopts first.
                self.sites[origin].version = self.sites[origin].version.max(version);
                let n = self.num_sites;
                for peer in (0..n).filter(|&p| p != origin) {
                    Self::send(
                        sched,
                        Message {
                            from: origin,
                            to: peer,
                            session: id,
                            payload: Payload::WriteCommit { version },
                        },
                    );
                }
                if own >= q_w {
                    let s = self.remove_session(i);
                    self.resolve_committed(s, sched);
                }
            }
        }
    }

    /// Session timer fired: retry (with backoff and a refreshed
    /// assignment) or resolve `TimedOut`. `origin_up` is the liveness of
    /// the session's coordinator at the firing instant (the core does
    /// not track the failure world).
    ///
    /// Adopting an assignment from a *different* epoch resets the
    /// accumulators (`votes`, `contributed`, and the version gathered
    /// from replies) and re-seeds the coordinator's own pledge: pledges
    /// granted under the old epoch must not count toward the new spec's
    /// threshold. Under [`ClusterConfig::mix_epoch_votes`] the pre-fix
    /// mixing behavior is restored as an ablation.
    pub fn session_timeout(&mut self, id: SessionId, origin_up: bool, sched: &mut impl Scheduler) {
        let Some(i) = self.session_index(id) else {
            return; // cancelled timers never fire; defensive only
        };
        if self.sessions[i].round >= self.config.max_retries || !origin_up {
            let s = self.remove_session(i);
            self.resolve_timed_out(s, sched);
            return;
        }
        let n = self.num_sites;
        let s = &mut self.sessions[i];
        let contributed = &mut self.flags[i * n..(i + 1) * n];
        let origin = s.origin;
        s.round += 1;
        // Adopt whatever assignment the coordinator has learned since —
        // VoteDeny replies and Install broadcasts carrying newer epochs
        // land here.
        let assignment = self.sites[origin].assignment;
        if assignment.version != s.epoch && !self.config.mix_epoch_votes {
            s.votes = self.votes.votes_of(origin);
            contributed.fill(false);
            contributed[origin] = true;
            s.max_version = self.sites[origin].version;
            sched.stats().cross_epoch_resets += 1;
        }
        s.epoch = assignment.version;
        s.spec = assignment.spec;
        s.timer = sched.arm_timer(id, self.config.timeout_for(s.round));
        sched.stats().retries += 1;
        let payload = match s.phase {
            SessionPhase::Gather => Payload::VoteRequest {
                kind: s.kind,
                epoch: s.epoch,
                epoch_spec: s.spec,
            },
            SessionPhase::Commit => Payload::WriteCommit {
                version: s.new_version,
            },
        };
        // Retries go to every peer that has not contributed to the
        // current phase, in ascending site order.
        for (peer, _) in contributed
            .iter()
            .enumerate()
            .filter(|&(p, &c)| !c && p != origin)
        {
            Self::send(
                sched,
                Message {
                    from: origin,
                    to: peer,
                    session: id,
                    payload,
                },
            );
        }
    }

    /// Executes an install at an up `origin`: adopt `spec` at `epoch` if
    /// newer, then broadcast [`Payload::Install`] to every other site.
    /// The caller has already checked the origin's liveness (a down
    /// origin skips its install).
    pub fn apply_install(
        &mut self,
        origin: usize,
        epoch: u64,
        spec: QuorumSpec,
        sched: &mut impl Scheduler,
    ) {
        if epoch > self.sites[origin].assignment.version {
            self.sites[origin].assignment = SiteAssignment {
                version: epoch,
                spec,
            };
            sched.stats().installs_applied += 1;
        }
        let n = self.num_sites;
        for peer in (0..n).filter(|&p| p != origin) {
            Self::send(
                sched,
                Message {
                    from: origin,
                    to: peer,
                    session: NO_SESSION,
                    payload: Payload::Install {
                        epoch,
                        epoch_spec: spec,
                    },
                },
            );
        }
    }

    fn resolve_committed(&mut self, s: Session, sched: &mut impl Scheduler) {
        sched.cancel_timer(s.timer);
        let latency = sched.now() - s.submitted_at;
        match s.kind {
            Access::Read => {
                self.checker.on_read_committed(s.floor, s.max_version);
                if s.measured_index.is_some() {
                    let stats = sched.stats();
                    stats.reads_committed += 1;
                    stats.read_latency.record(latency);
                }
            }
            Access::Write => {
                self.checker.on_write_committed(s.new_version);
                if s.measured_index.is_some() {
                    let stats = sched.stats();
                    stats.writes_committed += 1;
                    stats.write_latency.record(latency);
                }
            }
        }
        self.record_outcome(sched, s.measured_index, s.kind, Outcome::Committed);
    }

    fn resolve_timed_out(&mut self, s: Session, sched: &mut impl Scheduler) {
        sched.cancel_timer(s.timer);
        if s.measured_index.is_some() {
            match s.kind {
                Access::Read => sched.stats().reads_timed_out += 1,
                Access::Write => sched.stats().writes_timed_out += 1,
            }
        }
        self.record_outcome(sched, s.measured_index, s.kind, Outcome::TimedOut);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_des::SimParams;
    use std::collections::BTreeMap;

    /// A minimal deterministic scheduler: sent messages pile up in a
    /// vector, timers in a map, tallies in `stats`. Tests deliver and
    /// fire by hand.
    #[derive(Debug)]
    struct BagScheduler {
        in_flight: Vec<Message>,
        timers: BTreeMap<u64, SessionId>,
        next_token: u64,
        stats: ClusterStats,
        now: SimTime,
    }

    impl BagScheduler {
        fn new(cfg: &ClusterConfig) -> Self {
            Self {
                in_flight: Vec::new(),
                timers: BTreeMap::new(),
                next_token: 0,
                stats: ClusterStats::new(&cfg.latency_bounds),
                now: SimTime::ZERO,
            }
        }
    }

    impl Scheduler for BagScheduler {
        fn now(&self) -> SimTime {
            self.now
        }
        fn send(&mut self, msg: Message) -> bool {
            self.in_flight.push(msg);
            true
        }
        fn arm_timer(&mut self, id: SessionId, _timeout: f64) -> TimerToken {
            let raw = self.next_token;
            self.next_token += 1;
            self.timers.insert(raw, id);
            TimerToken::new(raw)
        }
        fn cancel_timer(&mut self, token: TimerToken) -> bool {
            self.timers.remove(&token.raw()).is_some()
        }
        fn stats(&mut self) -> &mut ClusterStats {
            &mut self.stats
        }
    }

    fn test_config(mix: bool) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(SimParams::quick());
        cfg.max_retries = 2;
        cfg.mix_epoch_votes = mix;
        cfg
    }

    /// Regression for the headline bug: a scripted install lands between
    /// retry rounds and flips the spec; the retry must discard the
    /// pledges gathered under the old epoch and re-seed the
    /// coordinator's own vote.
    #[test]
    fn timeout_across_epochs_resets_accumulators() {
        let cfg = test_config(false);
        let votes = VoteAssignment::uniform(3);
        let initial = QuorumSpec::new(2, 3, 3).unwrap();
        let mut core = ProtocolCore::new(&cfg, &votes, initial);
        let mut sched = BagScheduler::new(&cfg);

        let id = core.open_session(0, Access::Write, None, &mut sched);
        // Site 1 pledges under epoch 0: votes 1 (own) + 1 = 2 < q_w 3.
        core.handle_message(
            Message {
                from: 1,
                to: 0,
                session: id,
                payload: Payload::VoteGrant {
                    votes: 1,
                    version: 0,
                    epoch: 0,
                },
            },
            &mut sched,
        );
        assert_eq!(core.session_view(id).unwrap().votes, 2);

        // Install epoch 1 at site 2, then its broadcast reaches the
        // coordinator before the retry fires.
        let new_spec = QuorumSpec::new(2, 2, 3).unwrap();
        core.apply_install(2, 1, new_spec, &mut sched);
        let install = Message {
            from: 2,
            to: 0,
            session: NO_SESSION,
            payload: Payload::Install {
                epoch: 1,
                epoch_spec: new_spec,
            },
        };
        core.handle_message(install, &mut sched);
        assert_eq!(core.site_view(0).epoch, 1);

        core.session_timeout(id, true, &mut sched);
        let v = core
            .session_view(id)
            .expect("session retries, not resolves");
        assert_eq!(v.epoch, 1, "retry adopts the new epoch");
        assert_eq!(v.votes, 1, "old-epoch pledge discarded, own vote re-seeded");
        assert_eq!(v.contributed, &[true, false, false]);
        assert_eq!(sched.stats.cross_epoch_resets, 1);
    }

    /// The ablation restores the pre-fix mixing: the old-epoch pledge
    /// survives the adoption and counts toward the new threshold.
    #[test]
    fn mix_epoch_votes_ablation_keeps_stale_accumulators() {
        let cfg = test_config(true);
        let votes = VoteAssignment::uniform(3);
        let initial = QuorumSpec::new(2, 3, 3).unwrap();
        let mut core = ProtocolCore::new(&cfg, &votes, initial);
        let mut sched = BagScheduler::new(&cfg);

        let id = core.open_session(0, Access::Write, None, &mut sched);
        core.handle_message(
            Message {
                from: 1,
                to: 0,
                session: id,
                payload: Payload::VoteGrant {
                    votes: 1,
                    version: 0,
                    epoch: 0,
                },
            },
            &mut sched,
        );
        let new_spec = QuorumSpec::new(2, 2, 3).unwrap();
        core.handle_message(
            Message {
                from: 2,
                to: 0,
                session: NO_SESSION,
                payload: Payload::Install {
                    epoch: 1,
                    epoch_spec: new_spec,
                },
            },
            &mut sched,
        );
        core.session_timeout(id, true, &mut sched);
        let v = core.session_view(id).unwrap();
        assert_eq!(v.epoch, 1);
        assert_eq!(v.votes, 2, "ablation keeps the epoch-0 pledge");
        assert_eq!(sched.stats.cross_epoch_resets, 0);
    }

    /// A pledge granted under an older epoch arriving *after* the
    /// session adopted a newer one is ignored — the late-grant channel
    /// of the same bug, which needs no timeout to fire.
    #[test]
    fn stale_epoch_pledge_is_ignored() {
        let cfg = test_config(false);
        let votes = VoteAssignment::uniform(3);
        let initial = QuorumSpec::new(2, 3, 3).unwrap();
        let mut core = ProtocolCore::new(&cfg, &votes, initial);
        let mut sched = BagScheduler::new(&cfg);

        let id = core.open_session(0, Access::Write, None, &mut sched);
        let new_spec = QuorumSpec::new(2, 2, 3).unwrap();
        core.handle_message(
            Message {
                from: 2,
                to: 0,
                session: NO_SESSION,
                payload: Payload::Install {
                    epoch: 1,
                    epoch_spec: new_spec,
                },
            },
            &mut sched,
        );
        core.session_timeout(id, true, &mut sched); // adopts epoch 1, resets
        assert_eq!(core.session_view(id).unwrap().epoch, 1);

        // The epoch-0 grant from round 0 finally lands.
        core.handle_message(
            Message {
                from: 1,
                to: 0,
                session: id,
                payload: Payload::VoteGrant {
                    votes: 1,
                    version: 0,
                    epoch: 0,
                },
            },
            &mut sched,
        );
        let v = core.session_view(id).unwrap();
        assert_eq!(v.votes, 1, "stale-epoch pledge must not count");
        assert!(!v.contributed[1]);
        assert_eq!(sched.stats.stale_grants_ignored, 1);

        // Re-granted under the current epoch it counts: 2 votes reach
        // q_w = 2 and the write advances to its commit phase.
        core.handle_message(
            Message {
                from: 1,
                to: 0,
                session: id,
                payload: Payload::VoteGrant {
                    votes: 1,
                    version: 0,
                    epoch: 1,
                },
            },
            &mut sched,
        );
        let v = core.session_view(id).unwrap();
        assert_eq!(v.phase, SessionPhase::Commit);
    }

    /// Stale deliveries for resolved sessions are ignored, not panics:
    /// the old `expect("session present")` chains are gone.
    #[test]
    fn stale_deliveries_for_resolved_sessions_are_ignored() {
        let cfg = test_config(false);
        let votes = VoteAssignment::uniform(3);
        let initial = QuorumSpec::majority(3); // (2, 2)
        let mut core = ProtocolCore::new(&cfg, &votes, initial);
        let mut sched = BagScheduler::new(&cfg);

        let id = core.open_session(0, Access::Read, None, &mut sched);
        core.handle_message(
            Message {
                from: 1,
                to: 0,
                session: id,
                payload: Payload::ReadValue {
                    votes: 1,
                    version: 0,
                    epoch: 0,
                },
            },
            &mut sched,
        );
        assert!(core.session_view(id).is_none(), "read committed");

        // Late replies of every session-directed kind: all ignored.
        for payload in [
            Payload::ReadValue {
                votes: 1,
                version: 0,
                epoch: 0,
            },
            Payload::VoteGrant {
                votes: 1,
                version: 0,
                epoch: 0,
            },
            Payload::CommitAck { votes: 1 },
        ] {
            core.handle_message(
                Message {
                    from: 2,
                    to: 0,
                    session: id,
                    payload,
                },
                &mut sched,
            );
        }
        assert_eq!(core.open_sessions(), 0);
        assert_eq!(sched.stats.reads_committed, 0, "unmeasured session");
        // Firing a stale timer for the resolved session is also a no-op.
        core.session_timeout(id, true, &mut sched);
        assert_eq!(core.open_sessions(), 0);
    }

    /// A reply from site `from` to coordinator `to`.
    fn reply(from: usize, to: usize, session: SessionId, payload: Payload) -> Message {
        Message {
            from,
            to,
            session,
            payload,
        }
    }

    /// A 10-site core, so each session's flags take two record bytes,
    /// after one committed write (the freshness floor is 1). It holds:
    /// a measured write in its commit phase, opened at t = 2.5; an
    /// unmeasured read at site 9, opened at t = 3.25 with one pledge from
    /// site 8 (a flag in the second byte) and retried once; and site 3
    /// on epoch 1.
    fn busy_core<'a>(cfg: &'a ClusterConfig, votes: &'a VoteAssignment) -> ProtocolCore<'a> {
        let mut core = ProtocolCore::new(cfg, votes, QuorumSpec::majority(10));
        let mut sched = BagScheduler::new(cfg);
        let grant = Payload::VoteGrant {
            votes: 1,
            version: 0,
            epoch: 0,
        };
        let committed = core.open_session(0, Access::Write, None, &mut sched);
        for site in 1..=5 {
            core.handle_message(reply(site, 0, committed, grant), &mut sched);
        }
        for site in 1..=5 {
            let ack = Payload::CommitAck { votes: 1 };
            core.handle_message(reply(site, 0, committed, ack), &mut sched);
        }
        assert_eq!(core.checker().floor(), 1);

        sched.now = SimTime::new(2.5);
        let write = core.open_session(0, Access::Write, Some(7), &mut sched);
        for site in 1..=5 {
            core.handle_message(reply(site, 0, write, grant), &mut sched);
        }
        sched.now = SimTime::new(3.25);
        let read = core.open_session(9, Access::Read, None, &mut sched);
        let value = Payload::ReadValue {
            votes: 1,
            version: 0,
            epoch: 0,
        };
        core.handle_message(reply(8, 9, read, value), &mut sched);
        core.session_timeout(read, true, &mut sched);
        core.apply_install(3, 1, QuorumSpec::new(5, 6, 10).unwrap(), &mut sched);

        let [w, r] = &core.sessions[..] else {
            panic!("two open sessions")
        };
        assert_eq!((w.phase, w.measured_index), (SessionPhase::Commit, Some(7)));
        assert_eq!((r.round, r.measured_index, r.floor), (1, None, 1));
        let flags = core.session_view(read).unwrap().contributed;
        assert!(flags[8] && flags[9]);
        assert_eq!(core.site_view(3).epoch, 1);
        core
    }

    /// A 10-site core with one unanswered read open at each of the first
    /// `open` sites: its sessions' flags differ from `busy_core`'s.
    fn core_with_open_reads<'a>(
        cfg: &'a ClusterConfig,
        votes: &'a VoteAssignment,
        open: usize,
    ) -> ProtocolCore<'a> {
        let mut core = ProtocolCore::new(cfg, votes, QuorumSpec::majority(10));
        let mut sched = BagScheduler::new(cfg);
        for origin in 0..open {
            core.open_session(origin, Access::Read, Some(origin as u64), &mut sched);
        }
        core
    }

    #[test]
    fn record_round_trips_every_field() {
        let cfg = test_config(false);
        let votes = VoteAssignment::uniform(10);
        let core = busy_core(&cfg, &votes);
        let mut record = Vec::new();
        core.write_record(&mut record);
        // Read over a core with fewer sessions and over one with more:
        // the tables shrink or grow in place.
        for mut target in [
            core_with_open_reads(&cfg, &votes, 1),
            core_with_open_reads(&cfg, &votes, 5),
        ] {
            let mut bytes = record.as_slice();
            target.read_record(&mut bytes);
            assert!(bytes.is_empty(), "the reader consumes the whole record");
            assert_eq!(format!("{target:?}"), format!("{core:?}"));
            let mut again = Vec::new();
            target.write_record(&mut again);
            assert_eq!(again, record);
        }
    }

    /// The sites in `sites` as a 10-site `contributed` row.
    fn row(sites: &[usize]) -> Vec<bool> {
        (0..10).map(|site| sites.contains(&site)).collect()
    }

    #[test]
    fn flag_table_keeps_each_session_its_own_flags() {
        let cfg = test_config(false);
        let votes = VoteAssignment::uniform(10);
        let mut core = ProtocolCore::new(&cfg, &votes, QuorumSpec::majority(10));
        let mut sched = BagScheduler::new(&cfg);
        let value = Payload::ReadValue {
            votes: 1,
            version: 0,
            epoch: 0,
        };
        let [a, b, c] =
            [2, 5, 7].map(|origin| core.open_session(origin, Access::Read, None, &mut sched));
        core.handle_message(reply(9, 2, a, value), &mut sched);
        for site in [0, 3] {
            core.handle_message(reply(site, 7, c, value), &mut sched);
        }
        // Four pledges give the middle read its q_r = 5; it resolves and
        // its flags leave the table from between the other two's. Its
        // row differs from both neighbours' at each end, so removing a
        // row shifted by one flag either way shows.
        for site in [1, 3, 4, 6] {
            core.handle_message(reply(site, 5, b, value), &mut sched);
        }
        assert!(core.session_view(b).is_none(), "the middle read committed");
        // A pledge after the removal lands in the last session's row.
        core.handle_message(reply(8, 7, c, value), &mut sched);
        let model = [(a, row(&[2, 9])), (c, row(&[0, 3, 7, 8]))];
        let check = |core: &ProtocolCore<'_>, when: &str| {
            assert_eq!(core.open_sessions(), 2, "{when}");
            for (id, flags) in &model {
                let view = core.session_view(*id).expect("still open");
                assert_eq!(view.contributed, flags.as_slice(), "session {id} {when}");
            }
        };
        check(&core, "after the removal");

        let mut record = Vec::new();
        core.write_record(&mut record);
        let mut read = core_with_open_reads(&cfg, &votes, 5);
        read.read_record(&mut record.as_slice());
        check(&read, "read back from a record");

        let mut cloned = core_with_open_reads(&cfg, &votes, 1);
        cloned.clone_from(&read);
        check(&cloned, "refilled by clone_from");
    }

    #[test]
    fn clone_from_matches_clone() {
        let cfg = test_config(false);
        let votes = VoteAssignment::uniform(10);
        let core = busy_core(&cfg, &votes);
        let expected = format!("{:?}", core.clone());
        for mut target in [
            core_with_open_reads(&cfg, &votes, 1),
            core_with_open_reads(&cfg, &votes, 5),
        ] {
            target.clone_from(&core);
            assert_eq!(format!("{target:?}"), expected);
        }
    }
}
