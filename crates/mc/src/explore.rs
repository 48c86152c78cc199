//! The bounded exhaustive explorer.
//!
//! Breadth-first search over every reachable protocol state of a
//! [`Universe`], driving the *real* [`ProtocolCore`] (the engine's
//! protocol state machines) through a [`BagScheduler`] that turns the
//! transport into enumerable choices: deliver or drop each in-flight
//! message, fire each pending session timer, switch the network mode,
//! dispatch the next scripted access, execute the next scripted install.
//!
//! ## Checked properties
//!
//! * **No cross-epoch vote accumulation** (transition-level): a pledge
//!   accepted into a session must carry the session's epoch, and a retry
//!   that adopts a different epoch must not keep pledges gathered under
//!   the old one. The [`crate::Universe`]'s `mix_epoch_votes` ablation
//!   restores the pre-fix behavior as the negative control.
//! * **Version freshness** (transition-level): the engine's own
//!   [`FreshnessChecker`](quorum_cluster::FreshnessChecker) — a
//!   committed read never returns a version older than the newest write
//!   committed before it started.
//! * **At most one write-capable component** (state-level): in the
//!   current network mode, at most one group can raise `q_w` votes under
//!   any member's installed spec.
//!
//! ## State canonicalization
//!
//! A state is identified by a canonical byte encoding of its semantic
//! content: the script/mode counters, site versions/epochs, open-session
//! accumulators, and the in-flight multiset. Timer token values are
//! deliberately excluded — they never affect future behavior — and
//! statistics are not part of a state at all: the search keeps one
//! `ClusterStats` for every step to tally into. With symmetry enabled
//! the key is the minimum encoding over the universe's valid site
//! permutations (those that preserve votes, fix every scripted origin,
//! and map every mode's partition onto itself), quotienting away
//! interchangeable-site symmetry.
//!
//! The key is written in place by a `KeyEncoder` whose buffers live
//! for the whole search. Every field is one byte wide, the session
//! count is written before the sessions, and each in-flight message
//! becomes one 7-byte record (from, to, session, a payload tag that
//! also carries a request's access kind, and up to three payload words,
//! zero-padded). The records are sorted as plain byte arrays, so a
//! message held twice contributes two equal records and the multiset
//! keeps its multiplicity. Fixed widths make the encoding injective,
//! and the minimum over the group of an injective encoding identifies
//! exactly the symmetry orbit.
//!
//! One byte holds every field because [`Universe::check_key_widths`]
//! bounds each by 255: site indices, the script positions, the mode,
//! the switch count and the retry round directly; versions and session
//! ids through the access count (each access opens one session and
//! commits at most one version); epochs through the install count; and
//! votes, `q_r` and `q_w` through the vote total and the scripted
//! specs. Each value goes through a checked conversion that panics,
//! naming the field, if it is ever past 255: a truncated field would
//! give two states one key and silently drop one from the search. A
//! message record, written once per in-flight message per permutation,
//! checks its six values with one compare of their bitwise OR and looks
//! up the field's name only when that compare fails.
//!
//! ## Visited set
//!
//! Keys are interned in a `VisitedSet`: one byte arena holding every
//! key back to back, a `u32` offset per key, and a linear-probing index
//! whose 8-byte slots each hold a key's 32-bit hash tag beside its `u32`
//! id. The tag gives the key's home slot and screens a probe without
//! touching the arena; a growing index re-places every entry from its
//! slot alone, so nothing else is stored per key. A tag match is only
//! a candidate: the stored bytes decide, so a key is new exactly when no
//! byte-equal key is stored — two keys with one tag are both kept, and
//! the certificate stays exhaustive. Each new key gets the next dense
//! id. The index doubles once more than three quarters of its slots are
//! full; on the fixed standard universe that keeps it at 4 Mi slots
//! (32 MiB) where a half-load bound would need 8 Mi.
//!
//! ## Frontier
//!
//! The BFS queue holds byte records, not cloned states: a `Frontier`
//! is one buffer of `(depth, record)` entries, oldest first. A state's
//! record is its four script and mode counters, the core's
//! [`ProtocolCore::write_record`], then the bag: the in-flight messages,
//! the pending timers with their tokens, and the next token. Integers
//! are LEB128, so nearly every field is one byte. Unlike the key, a
//! record is lossless — it keeps timer tokens and every session field
//! the key leaves out — so the popped state is bit for bit the pushed
//! one and the search does not depend on the representation.
//!
//! Two scratch states serve the whole search. Each record is popped
//! into `st` in place. Every choice but the last refills `next` from
//! `st` by `clone_from`, which reuses every buffer, and steps it; the
//! last choice swaps `st` into `next` and steps it without a copy, since
//! the next pop overwrites `st` anyway. (A state the dead-message
//! reduction collapses to one drop is never copied at all.) A new state
//! is appended as a record. Once the read cursor passes a quarter of
//! the buffer, the consumed prefix is drained, so each byte is moved at
//! most three times per byte popped before it and the buffer stays
//! within about 4/3 of the live frontier.
//!
//! ## Reduction
//!
//! Two sound prunings, both relying on the fact that no checked
//! invariant ever reads the in-flight bag:
//!
//! 1. **Live-drop subsumption.** Dropping a still-meaningful message is
//!    never explored as a choice. A bagged message only *adds* enabled
//!    transitions — its presence disables nothing — so every trace from
//!    the dropped-state is step-for-step enabled from the kept-state and
//!    reaches cores identical in everything but the bag. Any violation
//!    reachable after a drop is therefore reachable by simply never
//!    delivering the message. (Without this, reachable bag contents
//!    range over all *subsets* of undelivered traffic — a 2^k blow-up
//!    that buys no new behaviors.)
//! 2. **Dead-message auto-drop.** A state containing a *permanently
//!    dead* message — delivery provably a no-op now and in every future
//!    (resolved session, pledge for an epoch the session can never
//!    return to, stale install/deny), or undeliverable forever
//!    (endpoints partitioned with no mode switches left) — has exactly
//!    one successor: dropping it. Delivering is behaviorally identical
//!    to dropping, and the drop commutes with every other transition,
//!    so the singleton ample set preserves all three properties while
//!    merging states that differ only in dead traffic.
//!
//! `--no-reduction` restores the full deliver/drop branching; the
//! explorer's tests pin that both modes certify the same verdicts.

use crate::universe::Universe;
use quorum_cluster::{
    read_leb128, write_leb128, ClusterConfig, ClusterStats, Message, Payload, ProtocolCore,
    Scheduler, SessionId, SessionPhase, TimerToken,
};
use quorum_core::Access;
use quorum_des::SimTime;
use quorum_obs::Registry;
use std::collections::BTreeSet;

/// The enumerable transport of one explored state: sent messages pile up
/// in an in-flight bag, timers in a token-sorted list. The explorer picks
/// which message to deliver or drop and which timer to fire; nothing
/// ever happens spontaneously. Each protocol step drives the core
/// through a short-lived adapter that pairs the bag with the search's
/// one [`ClusterStats`], so no explored state carries statistics.
#[derive(Debug, Default)]
pub struct BagScheduler {
    in_flight: Vec<Message>,
    // Sorted by token. Tokens are minted in ascending order, so arming a
    // timer is a push and cancelling one is a binary search.
    timers: Vec<(u64, SessionId)>,
    next_token: u64,
}

/// `clone_from` reuses both buffers; `..*src` copies the rest and stops
/// compiling if a new field is not `Copy`.
impl Clone for BagScheduler {
    fn clone(&self) -> Self {
        Self {
            in_flight: self.in_flight.clone(),
            timers: self.timers.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let mut in_flight = std::mem::take(&mut self.in_flight);
        let mut timers = std::mem::take(&mut self.timers);
        in_flight.clone_from(&src.in_flight);
        timers.clone_from(&src.timers);
        *self = Self {
            in_flight,
            timers,
            ..*src
        };
    }
}

impl BagScheduler {
    /// Removes the pending timer `token`, returning its session.
    fn take_timer(&mut self, token: u64) -> Option<SessionId> {
        let i = self.timers.binary_search_by_key(&token, |&(t, _)| t).ok()?;
        Some(self.timers.remove(i).1)
    }

    /// Appends the bag, the pending timers and the next token to a state
    /// record.
    fn write_record(&self, out: &mut Vec<u8>) {
        let Self {
            in_flight,
            timers,
            next_token,
        } = self;
        write_leb128(
            out,
            [in_flight.len() as u64, timers.len() as u64, *next_token],
        );
        for m in in_flight {
            m.write_record(out);
        }
        for &(token, session) in timers {
            write_leb128(out, [token, session]);
        }
    }

    /// Overwrites the scheduler with the record [`Self::write_record`]
    /// wrote, keeping its buffers.
    fn read_record(&mut self, bytes: &mut &[u8]) {
        let [messages, timers, next_token] = read_leb128(bytes);
        self.in_flight.clear();
        self.in_flight
            .extend((0..messages).map(|_| Message::read_record(bytes)));
        self.timers.clear();
        self.timers.extend((0..timers).map(|_| {
            let [token, session] = read_leb128(bytes);
            (token, session)
        }));
        self.next_token = next_token;
    }
}

/// A record word narrowed to a `usize` field.
fn to_usize(word: u64) -> usize {
    usize::try_from(word).expect("a record's counts fit a usize")
}

/// The [`Scheduler`] of one protocol step: a state's bag, plus the
/// statistics the core tallies into. The search owns those statistics
/// and never reads them.
struct Tally<'s> {
    bag: &'s mut BagScheduler,
    stats: &'s mut ClusterStats,
}

impl Scheduler for Tally<'_> {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }

    fn send(&mut self, msg: Message) -> bool {
        self.bag.in_flight.push(msg);
        true
    }

    fn arm_timer(&mut self, id: SessionId, _timeout: f64) -> TimerToken {
        let raw = self.bag.next_token;
        self.bag.next_token += 1;
        self.bag.timers.push((raw, id));
        TimerToken::new(raw)
    }

    fn cancel_timer(&mut self, token: TimerToken) -> bool {
        self.bag.take_timer(token.raw()).is_some()
    }

    fn stats(&mut self) -> &mut ClusterStats {
        self.stats
    }
}

/// Which invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum ViolationKind {
    /// A pledge from a different epoch was accepted, or a retry kept
    /// accumulators across an epoch change.
    CrossEpochMixing,
    /// A committed read returned a stale version (engine checker).
    StaleRead,
    /// More than one component could raise a write quorum.
    MultiWriteComponent,
}

/// Exploration knobs (the universe supplies defaults for the bounds).
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Run the engine with the cross-epoch-mixing ablation (pre-fix
    /// behavior) as the negative control.
    pub mix_epoch_votes: bool,
    /// Enable the dead-message ample-set reduction.
    pub reduction: bool,
    /// Enable the site-symmetry quotient.
    pub symmetry: bool,
    /// Override the universe's BFS depth bound.
    pub max_depth: Option<u32>,
    /// Override the universe's explored-state cap.
    pub max_states: Option<u64>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            mix_epoch_votes: false,
            reduction: true,
            symmetry: true,
            max_depth: None,
            max_states: None,
        }
    }
}

/// What one exploration found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McReport {
    /// Distinct canonical states visited (including the root).
    pub states_explored: u64,
    /// Transitions executed (including ones reaching visited states).
    pub transitions: u64,
    /// Cross-epoch-mixing violations observed on transitions.
    pub cross_epoch_violations: u64,
    /// Freshness violations observed on transitions.
    pub stale_read_violations: u64,
    /// States with more than one write-capable component.
    pub multi_write_violations: u64,
    /// BFS depth of the first violation of any kind.
    pub first_violation_depth: Option<u32>,
    /// BFS depth of the first cross-epoch-mixing violation.
    pub first_cross_epoch_depth: Option<u32>,
    /// States whose successors were cut off by the depth bound
    /// (0 means the exploration was exhaustive in depth).
    pub truncated: u64,
    /// Whether the state cap aborted the exploration (false means
    /// exhaustive in breadth).
    pub capped: bool,
    /// Drop choices of live messages pruned by the subsumption
    /// reduction (a bagged message only adds behaviors, so dropping it
    /// explores nothing new).
    pub por_skips: u64,
    /// Permanently dead or undeliverable messages auto-dropped by the
    /// reduction (the drop becomes the state's single successor).
    pub noop_skips: u64,
    /// Size of the symmetry group used for canonicalization.
    pub symmetry_perms: u64,
    /// Deepest BFS layer reached.
    pub max_depth_seen: u32,
}

impl McReport {
    /// Total violations of all kinds.
    pub fn violations(&self) -> u64 {
        self.cross_epoch_violations + self.stale_read_violations + self.multi_write_violations
    }

    /// True iff the run visited every reachable state within bounds —
    /// nothing depth-truncated, nothing cut by the state cap.
    pub fn exhaustive(&self) -> bool {
        self.truncated == 0 && !self.capped
    }

    /// Publishes the counters under the `mc.*` observability keys.
    pub fn observe_into(&self, registry: &Registry) {
        use quorum_obs::keys;
        registry.add(keys::MC_STATES_EXPLORED, self.states_explored);
        registry.add(keys::MC_TRANSITIONS, self.transitions);
        registry.add(keys::MC_VIOLATIONS, self.violations());
        registry.add(keys::MC_TRUNCATED, self.truncated);
        registry.add(keys::MC_CAPPED, u64::from(self.capped));
        registry.add(keys::MC_POR_SKIPS, self.por_skips);
        registry.add(keys::MC_NOOP_SKIPS, self.noop_skips);
        registry.add(keys::MC_SYMMETRY_PERMS, self.symmetry_perms);
        registry.add(keys::MC_MAX_DEPTH, u64::from(self.max_depth_seen));
        registry.add(keys::MC_CROSS_EPOCH_VIOLATIONS, self.cross_epoch_violations);
        registry.add(keys::MC_STALE_READ_VIOLATIONS, self.stale_read_violations);
        registry.add(keys::MC_MULTI_WRITE_VIOLATIONS, self.multi_write_violations);
        if let Some(d) = self.first_violation_depth {
            registry.set_gauge(keys::MC_FIRST_VIOLATION_DEPTH, d as f64);
        }
        if let Some(d) = self.first_cross_epoch_depth {
            registry.set_gauge(keys::MC_FIRST_CROSS_EPOCH_DEPTH, d as f64);
        }
    }

    fn record(&mut self, kind: ViolationKind, depth: u32) {
        match kind {
            ViolationKind::CrossEpochMixing => {
                self.cross_epoch_violations += 1;
                if self.first_cross_epoch_depth.is_none_or(|d| depth < d) {
                    self.first_cross_epoch_depth = Some(depth);
                }
            }
            ViolationKind::StaleRead => self.stale_read_violations += 1,
            ViolationKind::MultiWriteComponent => self.multi_write_violations += 1,
        }
        if self.first_violation_depth.is_none_or(|d| depth < d) {
            self.first_violation_depth = Some(depth);
        }
    }
}

/// One node of the search: the protocol core plus the transport state
/// the core delegates to the environment. Statistics are not part of
/// it (see [`Tally`]).
#[derive(Debug)]
struct McState<'a> {
    core: ProtocolCore<'a>,
    sched: BagScheduler,
    mode: usize,
    net_changes: u32,
    next_access: usize,
    next_install: usize,
}

/// `clone_from` refills the core and the bag in their own buffers. Its
/// pattern names every field, so a new one does not compile until it is
/// copied here and carried by the record.
impl Clone for McState<'_> {
    fn clone(&self) -> Self {
        Self {
            core: self.core.clone(),
            sched: self.sched.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let Self {
            core,
            sched,
            mode,
            net_changes,
            next_access,
            next_install,
        } = src;
        self.core.clone_from(core);
        self.sched.clone_from(sched);
        self.mode = *mode;
        self.net_changes = *net_changes;
        self.next_access = *next_access;
        self.next_install = *next_install;
    }
}

impl<'a> McState<'a> {
    /// The initial state of `universe` under the engine configuration
    /// `cfg`: every site at version 0 under the initial spec, nothing in
    /// flight, no access or install dispatched, network mode 0.
    fn root(universe: &'a Universe, cfg: &'a ClusterConfig) -> Self {
        Self {
            core: ProtocolCore::new(cfg, &universe.votes, universe.initial_spec),
            sched: BagScheduler::default(),
            mode: 0,
            net_changes: 0,
            next_access: 0,
            next_install: 0,
        }
    }

    /// Appends the state's record: the four script and mode counters,
    /// the core's record, then the scheduler's.
    fn write_record(&self, out: &mut Vec<u8>) {
        let Self {
            core,
            sched,
            mode,
            net_changes,
            next_access,
            next_install,
        } = self;
        write_leb128(
            out,
            [
                *mode as u64,
                u64::from(*net_changes),
                *next_access as u64,
                *next_install as u64,
            ],
        );
        core.write_record(out);
        sched.write_record(out);
    }

    /// Overwrites the state with the record at the front of `bytes` and
    /// moves `bytes` past it; every buffer is reused.
    fn read_record(&mut self, bytes: &mut &[u8]) {
        let [mode, net_changes, next_access, next_install] = read_leb128(bytes);
        self.mode = to_usize(mode);
        self.net_changes = u32::try_from(net_changes).expect("a record's switch count fits a u32");
        self.next_access = to_usize(next_access);
        self.next_install = to_usize(next_install);
        self.core.read_record(bytes);
        self.sched.read_record(bytes);
    }
}

/// The BFS queue: `(depth, state record)` entries back to back in one
/// buffer, oldest first (module docs, "Frontier").
#[derive(Default)]
struct Frontier {
    buf: Vec<u8>,
    /// Start of the oldest entry not yet popped.
    read: usize,
}

impl Frontier {
    /// Appends `st` at BFS depth `depth`.
    fn push(&mut self, depth: u32, st: &McState<'_>) {
        write_leb128(&mut self.buf, [u64::from(depth)]);
        st.write_record(&mut self.buf);
    }

    /// Overwrites `st` with the oldest entry and returns its depth, or
    /// returns `None` when the frontier is empty.
    fn pop_into(&mut self, st: &mut McState<'_>) -> Option<u32> {
        let mut bytes = self.buf.get(self.read..).filter(|b| !b.is_empty())?;
        let [depth] = read_leb128(&mut bytes);
        let depth = u32::try_from(depth).expect("depths fit a u32");
        st.read_record(&mut bytes);
        self.read = self.buf.len() - bytes.len();
        // Drop the consumed prefix once it passes a quarter of the
        // buffer, so the buffer stays within 4/3 of the live records:
        // each byte moves at most three times per byte popped before it.
        if 4 * self.read > self.buf.len() {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        Some(depth)
    }
}

/// One enabled transition.
#[derive(Debug, Clone, Copy)]
enum Choice {
    Deliver(usize),
    Drop(usize),
    Timer(u64),
    NetMode(usize),
    Access,
    Install,
}

/// Immutable exploration context.
struct Ctx<'a> {
    universe: &'a Universe,
    mix: bool,
    /// Per mode: site index → group index.
    site_group: Vec<Vec<usize>>,
    /// Valid site permutations (always contains the identity).
    perms: Vec<Vec<usize>>,
}

impl<'a> Ctx<'a> {
    fn new(universe: &'a Universe, opts: &ExploreOptions) -> Self {
        let n = universe.num_sites();
        let site_group = universe
            .modes
            .iter()
            .map(|groups| {
                let mut g = vec![0usize; n];
                for (gi, group) in groups.iter().enumerate() {
                    for &s in group {
                        g[s] = gi;
                    }
                }
                g
            })
            .collect();
        let perms = if opts.symmetry {
            valid_perms(universe)
        } else {
            vec![(0..n).collect()]
        };
        Self {
            universe,
            mix: opts.mix_epoch_votes,
            site_group,
            perms,
        }
    }

    fn connected(&self, mode: usize, a: usize, b: usize) -> bool {
        self.site_group[mode][a] == self.site_group[mode][b]
    }
}

/// Site permutations preserving the universe's structure: equal votes,
/// every scripted origin fixed, every mode's partition mapped onto
/// itself. Renaming sites along such a permutation is a bisimulation.
fn valid_perms(u: &Universe) -> Vec<Vec<usize>> {
    let n = u.num_sites();
    let mut fixed = vec![false; n];
    for &(o, _) in &u.accesses {
        fixed[o] = true;
    }
    for &(o, _) in &u.installs {
        fixed[o] = true;
    }
    let canon_modes: Vec<BTreeSet<Vec<usize>>> = u
        .modes
        .iter()
        .map(|groups| {
            groups
                .iter()
                .map(|g| {
                    let mut g = g.clone();
                    g.sort_unstable();
                    g
                })
                .collect()
        })
        .collect();
    let mut perms = Vec::new();
    let mut p: Vec<usize> = (0..n).collect();
    permute(&mut p, 0, &mut |perm| {
        let ok = (0..n).all(|i| {
            (!fixed[i] || perm[i] == i) && u.votes.votes_of(perm[i]) == u.votes.votes_of(i)
        }) && u.modes.iter().zip(&canon_modes).all(|(groups, canon)| {
            groups.iter().all(|g| {
                let mut mapped: Vec<usize> = g.iter().map(|&s| perm[s]).collect();
                mapped.sort_unstable();
                canon.contains(&mapped)
            })
        });
        if ok {
            perms.push(perm.to_vec());
        }
    });
    perms.sort();
    perms
}

/// Visits every permutation of `p[k..]` (Heap-style recursion).
fn permute(p: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == p.len() {
        visit(p);
        return;
    }
    for i in k..p.len() {
        p.swap(k, i);
        permute(p, k + 1, visit);
        p.swap(k, i);
    }
}

/// Width of one in-flight message record in a state key: from, to,
/// session id, a payload tag (a `VoteRequest`'s tag also carries its
/// access kind), and up to three payload words, zero-padded.
const MSG_RECORD: usize = 7;

/// `value` as the one byte the state key holds it in. A universe that
/// passes [`Universe::check_key_widths`] keeps every such value at or
/// below 255; past that, truncation would give two states one key and
/// the search would skip one, so this panics, naming `field`.
fn key_byte(field: &str, value: u64) -> u8 {
    u8::try_from(value).unwrap_or_else(|_| {
        panic!("state key field {field} = {value} exceeds 255, the largest value a key byte holds")
    })
}

/// The fixed-width record of `m` under the site renaming `perm`. All
/// six values are checked against 255 at once; only a record that fails
/// the check goes on to [`message_field_overflow`] for the field's name.
fn message_record(m: &Message, perm: &[usize]) -> [u8; MSG_RECORD] {
    let (tag, words) = message_words(&m.payload);
    let [w0, w1, w2] = words;
    let (from, to) = (perm[m.from] as u64, perm[m.to] as u64);
    if (from | to | m.session | w0 | w1 | w2) > u64::from(u8::MAX) {
        message_field_overflow(&m.payload, words, from, to, m.session);
    }
    [
        from as u8,
        to as u8,
        m.session as u8,
        tag,
        w0 as u8,
        w1 as u8,
        w2 as u8,
    ]
}

/// A message's payload tag (a `VoteRequest`'s tag also carries its
/// access kind) and its three payload words, zero-padded.
fn message_words(payload: &Payload) -> (u8, [u64; 3]) {
    match *payload {
        Payload::VoteRequest {
            kind,
            epoch,
            epoch_spec,
        } => (
            access_byte(kind),
            [epoch, epoch_spec.q_r(), epoch_spec.q_w()],
        ),
        Payload::ReadValue {
            votes,
            version,
            epoch,
        } => (2, [votes, version, epoch]),
        Payload::VoteGrant {
            votes,
            version,
            epoch,
        } => (3, [votes, version, epoch]),
        Payload::VoteDeny { epoch, epoch_spec } => (4, [epoch, epoch_spec.q_r(), epoch_spec.q_w()]),
        Payload::WriteCommit { version } => (5, [version, 0, 0]),
        Payload::CommitAck { votes } => (6, [votes, 0, 0]),
        Payload::Install { epoch, epoch_spec } => (7, [epoch, epoch_spec.q_r(), epoch_spec.q_w()]),
    }
}

/// Panics through [`key_byte`], naming the first of a message record's
/// values past 255: the payload words in order, then the renamed sender
/// and receiver, then the session.
#[cold]
#[inline(never)]
fn message_field_overflow(
    payload: &Payload,
    words: [u64; 3],
    from: u64,
    to: u64,
    session: u64,
) -> ! {
    let names = match payload {
        Payload::VoteRequest { .. } | Payload::VoteDeny { .. } | Payload::Install { .. } => {
            ["message epoch", "message q_r", "message q_w"]
        }
        Payload::ReadValue { .. } | Payload::VoteGrant { .. } => {
            ["message votes", "message version", "message epoch"]
        }
        Payload::WriteCommit { .. } => ["message version", "padding", "padding"],
        Payload::CommitAck { .. } => ["message votes", "padding", "padding"],
    };
    for (field, word) in names.into_iter().zip(words) {
        key_byte(field, word);
    }
    for (field, value) in [
        ("site index", from),
        ("site index", to),
        ("message session", session),
    ] {
        key_byte(field, value);
    }
    unreachable!("a message record value exceeds 255")
}

/// A site index as its key byte.
fn site_byte(site: usize) -> u8 {
    key_byte("site index", site as u64)
}

fn access_byte(kind: Access) -> u8 {
    match kind {
        Access::Read => 0,
        Access::Write => 1,
    }
}

/// Writes canonical state keys into buffers reused across calls.
#[derive(Default)]
struct KeyEncoder {
    /// Inverse of the current permutation: renamed index → original.
    inv: Vec<usize>,
    /// The in-flight records of the encoding being written.
    records: Vec<[u8; MSG_RECORD]>,
    /// The encoding being written.
    scratch: Vec<u8>,
    /// The least encoding so far: the key once the group is exhausted.
    best: Vec<u8>,
}

impl KeyEncoder {
    /// The canonical key of `st`: its minimum encoding over the
    /// symmetry group. Valid until the next call.
    fn canonical_key(&mut self, ctx: &Ctx<'_>, st: &McState<'_>) -> &[u8] {
        let (first, rest) = ctx
            .perms
            .split_first()
            .expect("the identity permutation is always present");
        let mut best = std::mem::take(&mut self.best);
        let mut scratch = std::mem::take(&mut self.scratch);
        self.encode(st, first, &mut best);
        for perm in rest {
            self.encode(st, perm, &mut scratch);
            if scratch < best {
                std::mem::swap(&mut scratch, &mut best);
            }
        }
        self.scratch = scratch;
        self.best = best;
        &self.best
    }

    /// Writes the state's semantic content under the site renaming
    /// `perm` into `out`. Timer token values and clock are excluded:
    /// they never affect future protocol behavior.
    fn encode(&mut self, st: &McState<'_>, perm: &[usize], out: &mut Vec<u8>) {
        out.clear();
        self.inv.clear();
        self.inv.resize(perm.len(), 0);
        for (i, &p) in perm.iter().enumerate() {
            self.inv[p] = i;
        }
        out.extend_from_slice(&[
            key_byte("mode", st.mode as u64),
            key_byte("net_changes", u64::from(st.net_changes)),
            key_byte("next_access", st.next_access as u64),
            key_byte("next_install", st.next_install as u64),
        ]);
        for &orig in &self.inv {
            let v = st.core.site_view(orig);
            out.extend_from_slice(&[
                key_byte("site version", v.version),
                key_byte("site epoch", v.epoch),
            ]);
        }
        // Sessions are fixed-width records after their count; every
        // scripted access opens at most one, so the count fits a byte.
        out.push(key_byte("open sessions", st.core.open_sessions() as u64));
        for (id, v) in st.core.sessions() {
            out.extend_from_slice(&[
                key_byte("session id", id),
                site_byte(perm[v.origin]),
                access_byte(v.kind),
                match v.phase {
                    SessionPhase::Gather => 0,
                    SessionPhase::Commit => 1,
                },
                key_byte("session round", u64::from(v.round)),
                key_byte("session votes", v.votes),
            ]);
            out.extend(self.inv.iter().map(|&orig| u8::from(v.contributed[orig])));
            out.extend_from_slice(&[
                key_byte("session epoch", v.epoch),
                key_byte("session max_version", v.max_version),
                key_byte("session new_version", v.new_version),
                u8::from(st.sched.timers.iter().any(|&(_, s)| s == id)),
            ]);
        }
        // The in-flight multiset: what remains after the sessions is a
        // whole number of records.
        self.records.clear();
        self.records
            .extend(st.sched.in_flight.iter().map(|m| message_record(m, perm)));
        self.records.sort_unstable();
        for rec in &self.records {
            out.extend_from_slice(rec);
        }
    }
}

/// A fixed 32-bit hash of a key: eight bytes at a time, multiply and
/// fold. Deterministic across processes and platforms, unlike `std`'s
/// randomly keyed hasher.
fn key_tag(key: &[u8]) -> u32 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut h = (key.len() as u64).wrapping_mul(K);
    let mut chunks = key.chunks_exact(8);
    for chunk in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(K);
        h ^= h >> 32;
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(K);
    (h ^ (h >> 29)) as u32
}

/// Id of an empty index slot.
const EMPTY: u32 = u32::MAX;

/// One entry of the visited index: a key's [`key_tag`] beside its id.
#[derive(Clone, Copy)]
struct Slot {
    tag: u32,
    id: u32,
}

impl Slot {
    const FREE: Slot = Slot { tag: 0, id: EMPTY };
}

/// The set of visited canonical keys: an append-only byte arena plus an
/// exact open-addressing index (module docs, "Visited set").
struct VisitedSet {
    /// Every key, back to back, in insertion order.
    arena: Vec<u8>,
    /// Key `id` occupies `arena[offsets[id]..offsets[id + 1]]`.
    offsets: Vec<u32>,
    /// Linear-probing table of tagged key ids ([`Slot::FREE`] when
    /// free). A key's home slot is its tag modulo the length, a power of
    /// two, and at most three quarters of the slots are occupied.
    slots: Vec<Slot>,
}

impl VisitedSet {
    /// An empty set whose index starts with `slots` entries (rounded up
    /// to a power of two, at least 2).
    fn with_slots(slots: usize) -> Self {
        Self {
            arena: Vec::new(),
            offsets: vec![0],
            slots: vec![Slot::FREE; slots.next_power_of_two().max(2)],
        }
    }

    /// Number of keys stored.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Stored key `id`.
    fn key(&self, id: usize) -> &[u8] {
        &self.arena[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }

    /// Stores `key` unless a byte-equal key is already stored. Returns
    /// the new key's dense id (0, 1, 2, … in insertion order), or `None`
    /// if the key was already present.
    fn insert(&mut self, key: &[u8]) -> Option<u32> {
        let tag = key_tag(key);
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                break;
            }
            // The tag only screens: the bytes decide.
            if slot.tag == tag && self.key(slot.id as usize) == key {
                return None;
            }
            i = (i + 1) & mask;
        }
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("visited set holds fewer than 2^32 - 1 keys");
        self.slots[i] = Slot { tag, id };
        self.arena.extend_from_slice(key);
        let end =
            u32::try_from(self.arena.len()).expect("visited arena holds fewer than 2^32 bytes");
        self.offsets.push(end);
        if 4 * self.len() > 3 * self.slots.len() {
            self.grow();
        }
        Some(id)
    }

    /// Doubles the index and re-places every slot by its tag.
    fn grow(&mut self) {
        let len = 2 * self.slots.len();
        let mask = len - 1;
        let old = std::mem::replace(&mut self.slots, vec![Slot::FREE; len]);
        for slot in old.into_iter().filter(|s| s.id != EMPTY) {
            let mut i = slot.tag as usize & mask;
            while self.slots[i].id != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

/// Is delivering `msg` a no-op now *and in every future*? Such a message
/// is behaviorally a drop, and dropping it commutes with everything.
///
/// The permanence arguments: session ids are never reused; a session's
/// phase never returns from `Commit` to `Gather`; epochs (session and
/// site) are monotone, so a pledge tagged below the session's epoch can
/// never match again (under the fix), and a session that resets its
/// accumulators on adoption simultaneously moves its epoch above every
/// stale pledge's tag.
fn permanently_dead(core: &ProtocolCore<'_>, mix: bool, msg: &Message) -> bool {
    match msg.payload {
        Payload::ReadValue { epoch, .. } | Payload::VoteGrant { epoch, .. } => {
            let Some(v) = core.session_view(msg.session) else {
                return true; // resolved sessions never reopen
            };
            if v.phase == SessionPhase::Commit {
                return true; // phase never goes back to Gather
            }
            if !mix && epoch < v.epoch {
                return true; // session epoch is monotone
            }
            if v.contributed[msg.from] && (mix || epoch == v.epoch) {
                // Under the ablation `contributed` never resets within
                // Gather; under the fix a reset would bump the session
                // epoch above this pledge's tag anyway.
                return true;
            }
            false
        }
        Payload::CommitAck { .. } => core.session_view(msg.session).is_none(),
        // Deny/install adoption requires a strictly newer epoch, and the
        // receiver's installed epoch is monotone.
        Payload::VoteDeny { epoch, .. } | Payload::Install { epoch, .. } => {
            epoch <= core.site_view(msg.to).epoch
        }
        // Requests always produce a reply; commits always produce an ack.
        Payload::VoteRequest { .. } | Payload::WriteCommit { .. } => false,
    }
}

/// Writes all enabled transitions into `cs`, in deterministic order.
/// With reduction on, a state holding a permanently dead (or
/// forever-undeliverable) message collapses to the single choice of
/// dropping it, and explicit drops of live messages are pruned entirely
/// (see module docs).
fn choices(
    ctx: &Ctx<'_>,
    st: &McState<'_>,
    reduction: bool,
    report: &mut McReport,
    cs: &mut Vec<Choice>,
) {
    cs.clear();
    if reduction {
        if let Some(i) = st.sched.in_flight.iter().position(|m| {
            permanently_dead(&st.core, ctx.mix, m)
                || (!ctx.connected(st.mode, m.from, m.to)
                    && st.net_changes >= ctx.universe.max_net_changes)
        }) {
            report.noop_skips += 1;
            cs.push(Choice::Drop(i));
            return;
        }
    }
    for (i, m) in st.sched.in_flight.iter().enumerate() {
        if ctx.connected(st.mode, m.from, m.to) {
            cs.push(Choice::Deliver(i));
        }
        if reduction {
            report.por_skips += 1;
        } else {
            cs.push(Choice::Drop(i));
        }
    }
    for &(tok, _) in &st.sched.timers {
        cs.push(Choice::Timer(tok));
    }
    if st.net_changes < ctx.universe.max_net_changes {
        for m in 0..ctx.universe.modes.len() {
            if m != st.mode {
                cs.push(Choice::NetMode(m));
            }
        }
    }
    if st.next_access < ctx.universe.accesses.len() {
        cs.push(Choice::Access);
    }
    if st.next_install < ctx.universe.installs.len() {
        cs.push(Choice::Install);
    }
}

/// Does the state have any enabled transition at all? (Used to decide
/// whether a depth cutoff actually truncated anything.)
fn has_choices(ctx: &Ctx<'_>, st: &McState<'_>) -> bool {
    !st.sched.in_flight.is_empty()
        || !st.sched.timers.is_empty()
        || st.next_access < ctx.universe.accesses.len()
        || st.next_install < ctx.universe.installs.len()
        || (st.net_changes < ctx.universe.max_net_changes && ctx.universe.modes.len() > 1)
}

/// Executes one transition on `s` in place, appending any
/// transition-level violations to `viols`. The core tallies into
/// `stats`, which nothing reads.
fn step(
    ctx: &Ctx<'_>,
    s: &mut McState<'_>,
    choice: Choice,
    stats: &mut ClusterStats,
    viols: &mut Vec<ViolationKind>,
) {
    let fresh_before = s.core.checker().violations();
    match choice {
        Choice::Deliver(i) => {
            let msg = s.sched.in_flight.remove(i);
            // Pre-capture: is this an eligible pledge, and under which
            // epoch is the session gathering right now?
            let pledge = match msg.payload {
                Payload::ReadValue { epoch, .. } | Payload::VoteGrant { epoch, .. } => s
                    .core
                    .session_view(msg.session)
                    .filter(|v| v.phase == SessionPhase::Gather && !v.contributed[msg.from])
                    .map(|v| (v.epoch, epoch)),
                _ => None,
            };
            s.core.handle_message(
                msg,
                &mut Tally {
                    bag: &mut s.sched,
                    stats,
                },
            );
            if let Some((session_epoch, msg_epoch)) = pledge {
                // Accepted iff the session resolved, advanced to its
                // commit phase, or marked the sender as contributed —
                // a rejected pledge leaves all three unchanged.
                let accepted = match s.core.session_view(msg.session) {
                    None => true,
                    Some(v) => v.phase == SessionPhase::Commit || v.contributed[msg.from],
                };
                if accepted && msg_epoch != session_epoch {
                    viols.push(ViolationKind::CrossEpochMixing);
                }
            }
        }
        Choice::Drop(i) => {
            s.sched.in_flight.remove(i);
        }
        Choice::Timer(tok) => {
            let id = s
                .sched
                .take_timer(tok)
                .expect("enumerated timers are pending");
            let pre = s.core.session_view(id).map(|v| (v.epoch, v.origin));
            s.core.session_timeout(
                id,
                true,
                &mut Tally {
                    bag: &mut s.sched,
                    stats,
                },
            );
            if let Some((epoch_before, origin)) = pre {
                if let Some(v) = s.core.session_view(id) {
                    // A retry that adopted a different epoch must hold
                    // exactly the coordinator's own re-seeded pledge;
                    // anything more is accumulation carried across
                    // epochs.
                    if v.epoch != epoch_before && v.votes > ctx.universe.votes.votes_of(origin) {
                        viols.push(ViolationKind::CrossEpochMixing);
                    }
                }
            }
        }
        Choice::NetMode(m) => {
            s.mode = m;
            s.net_changes += 1;
        }
        Choice::Access => {
            let (origin, kind) = ctx.universe.accesses[s.next_access];
            let index = s.next_access as u64;
            s.next_access += 1;
            s.core.open_session(
                origin,
                kind,
                Some(index),
                &mut Tally {
                    bag: &mut s.sched,
                    stats,
                },
            );
        }
        Choice::Install => {
            let (origin, spec) = ctx.universe.installs[s.next_install];
            let epoch = (s.next_install + 1) as u64;
            s.next_install += 1;
            s.core.apply_install(
                origin,
                epoch,
                spec,
                &mut Tally {
                    bag: &mut s.sched,
                    stats,
                },
            );
        }
    }
    if s.core.checker().violations() > fresh_before {
        viols.push(ViolationKind::StaleRead);
    }
}

/// Can more than one component of the current mode raise a write quorum
/// under some member's installed spec? Every §2.1 spec has `2·q_w > T`,
/// and jointly-safe installs keep cross-epoch write quorums
/// intersecting, so this must never happen.
fn multi_write_component(ctx: &Ctx<'_>, st: &McState<'_>) -> bool {
    let mut capable = 0u32;
    for group in &ctx.universe.modes[st.mode] {
        let votes_in: u64 = group.iter().map(|&i| ctx.universe.votes.votes_of(i)).sum();
        if group
            .iter()
            .any(|&i| votes_in >= st.core.site_view(i).spec.q_w())
        {
            capable += 1;
        }
    }
    capable > 1
}

/// Explores every reachable state of `universe` within the bounds and
/// reports what it found. Deterministic: identical inputs produce an
/// identical [`McReport`].
///
/// # Panics
/// Panics if the universe fails [`Universe::validate`].
pub fn explore(universe: &Universe, opts: &ExploreOptions) -> McReport {
    universe.validate();
    let cfg = universe.config(opts.mix_epoch_votes);
    search(universe, &cfg, opts, |_| {})
}

/// The search behind [`explore`], over the engine configuration `cfg`.
/// `on_new` sees the root and then every newly visited state, in the
/// order visited, just before it joins the frontier.
fn search<'a>(
    universe: &'a Universe,
    cfg: &'a ClusterConfig,
    opts: &ExploreOptions,
    mut on_new: impl FnMut(&McState<'a>),
) -> McReport {
    let ctx = Ctx::new(universe, opts);
    let max_depth = opts.max_depth.unwrap_or(universe.max_depth);
    let max_states = opts.max_states.unwrap_or(universe.max_states);

    let mut report = McReport {
        symmetry_perms: ctx.perms.len() as u64,
        ..McReport::default()
    };

    let root = McState::root(universe, cfg);
    if multi_write_component(&ctx, &root) {
        report.record(ViolationKind::MultiWriteComponent, 0);
    }
    let mut encoder = KeyEncoder::default();
    let mut visited = VisitedSet::with_slots(1 << 12);
    visited.insert(encoder.canonical_key(&ctx, &root));
    on_new(&root);
    report.states_explored = 1;
    let mut frontier = Frontier::default();
    frontier.push(0, &root);
    // Two scratch states serve the whole search: `st` holds the state
    // being expanded, `next` each successor in turn (module docs,
    // "Frontier").
    let mut st = root.clone();
    let mut next = root;
    let mut cs = Vec::new();
    let mut viols = Vec::new();
    let mut stats = ClusterStats::new(&cfg.latency_bounds);

    'bfs: while let Some(depth) = frontier.pop_into(&mut st) {
        report.max_depth_seen = report.max_depth_seen.max(depth);
        if depth >= max_depth {
            if has_choices(&ctx, &st) {
                report.truncated += 1;
            }
            continue;
        }
        choices(&ctx, &st, opts.reduction, &mut report, &mut cs);
        for (k, &choice) in cs.iter().enumerate() {
            report.transitions += 1;
            if k + 1 == cs.len() {
                // The last successor steps `st` itself: the next pop
                // overwrites it anyway, so it is not copied.
                std::mem::swap(&mut st, &mut next);
            } else {
                next.clone_from(&st);
            }
            step(&ctx, &mut next, choice, &mut stats, &mut viols);
            for kind in viols.drain(..) {
                report.record(kind, depth + 1);
            }
            if visited.insert(encoder.canonical_key(&ctx, &next)).is_some() {
                if multi_write_component(&ctx, &next) {
                    report.record(ViolationKind::MultiWriteComponent, depth + 1);
                }
                on_new(&next);
                report.states_explored += 1;
                if report.states_explored >= max_states {
                    report.capped = true;
                    break 'bfs;
                }
                frontier.push(depth + 1, &next);
            }
        }
    }
    report
}

#[cfg(test)]
impl BagScheduler {
    /// The in-flight message bag.
    fn in_flight(&self) -> &[Message] {
        &self.in_flight
    }

    /// Sessions with a pending timer, ordered by token age.
    fn pending_timers(&self) -> &[(u64, SessionId)] {
        &self.timers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::QuorumSpec;

    #[test]
    fn symmetric_universe_has_a_nontrivial_group() {
        let perms = valid_perms(&Universe::symmetric());
        // Identity plus the 1↔2 swap (site 0 is the scripted origin).
        assert_eq!(perms.len(), 2);
        assert!(perms.contains(&vec![0, 1, 2]));
        assert!(perms.contains(&vec![0, 2, 1]));
    }

    #[test]
    fn standard_universe_group_is_trivial() {
        // All three sites are scripted origins: nothing to quotient.
        let perms = valid_perms(&Universe::standard());
        assert_eq!(perms, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn symmetric_universe_explores_clean_and_exhaustively() {
        let u = Universe::symmetric();
        let report = explore(&u, &ExploreOptions::default());
        assert!(report.exhaustive(), "{report:?}");
        assert_eq!(report.violations(), 0, "{report:?}");
        assert!(report.states_explored > 10);
        assert!(report.transitions >= report.states_explored - 1);
    }

    #[test]
    fn symmetry_quotient_shrinks_the_state_space() {
        let u = Universe::symmetric();
        let with = explore(&u, &ExploreOptions::default());
        let without = explore(
            &u,
            &ExploreOptions {
                symmetry: false,
                ..ExploreOptions::default()
            },
        );
        assert!(with.exhaustive() && without.exhaustive());
        assert!(
            with.states_explored < without.states_explored,
            "quotient {} vs full {}",
            with.states_explored,
            without.states_explored
        );
        // Both certify the same (absence of) violations.
        assert_eq!(with.violations(), 0);
        assert_eq!(without.violations(), 0);
    }

    #[test]
    fn exploration_is_deterministic() {
        let u = Universe::symmetric();
        let a = explore(&u, &ExploreOptions::default());
        let b = explore(&u, &ExploreOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn depth_bound_reports_truncation() {
        let u = Universe::symmetric();
        let report = explore(
            &u,
            &ExploreOptions {
                max_depth: Some(2),
                ..ExploreOptions::default()
            },
        );
        assert!(report.truncated > 0);
        assert!(!report.exhaustive());
    }

    /// The first `count` eight-byte keys whose tag gives them the home
    /// slot `slot` in a `slots`-entry index.
    fn colliding_keys(count: usize, slots: usize, slot: usize) -> Vec<Vec<u8>> {
        (0u64..)
            .map(|i| i.to_le_bytes().to_vec())
            .filter(|k| key_tag(k) as usize & (slots - 1) == slot)
            .take(count)
            .collect()
    }

    #[test]
    fn visited_set_finds_duplicates_after_growing() {
        let mut set = VisitedSet::with_slots(2);
        let keys: Vec<Vec<u8>> = (0u32..1000).map(|i| i.to_be_bytes().to_vec()).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(set.insert(k), Some(i as u32), "ids are dense");
        }
        assert!(4 * keys.len() <= 3 * set.slots.len(), "the index grew");
        for k in &keys {
            assert_eq!(set.insert(k), None, "{k:?} is already stored");
        }
        assert_eq!(set.len(), keys.len());
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(set.key(i), k.as_slice());
        }
    }

    #[test]
    fn visited_set_keeps_prefix_sharing_keys_apart() {
        let mut set = VisitedSet::with_slots(2);
        let keys: [&[u8]; 5] = [b"", b"\0", b"\0\0", b"ab", b"abc"];
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(set.insert(k), Some(i as u32), "{k:?} is new");
        }
        for k in keys {
            assert_eq!(set.insert(k), None);
        }
        // Back to back in the arena, the keys still read back whole.
        assert_eq!(set.arena, b"\0\0\0ababc");
        assert_eq!(set.key(4), b"abc");
    }

    #[test]
    fn visited_set_resolves_long_probe_chains() {
        // 24 keys on one home slot of a 64-slot index fill 24 slots in
        // a row, well below the 48 that make the index grow; a 25th key
        // on the same slot must probe past all of them.
        let keys = colliding_keys(25, 64, 7);
        let mut set = VisitedSet::with_slots(64);
        for (i, k) in keys[..24].iter().enumerate() {
            assert_eq!(set.insert(k), Some(i as u32));
        }
        assert_eq!(set.slots.len(), 64, "no growth yet");
        assert!(set.slots[7..31].iter().all(|s| s.id != EMPTY));
        for k in &keys[..24] {
            assert_eq!(set.insert(k), None, "found at the end of its chain");
        }
        assert_eq!(set.insert(&keys[24]), Some(24));
        // Growing past three-quarter load re-places the chain from the
        // slots' tags; nothing is lost.
        for i in 0u32..40 {
            set.insert(&(1_000_000 + i).to_le_bytes());
        }
        assert!(set.slots.len() > 64);
        for k in &keys {
            assert_eq!(set.insert(k), None);
        }
    }

    #[test]
    fn visited_set_keeps_keys_that_share_a_tag() {
        // Two distinct eight-byte keys with the same 32-bit tag, found by
        // sorting the tags of the first 2^18 keys (a pair is all but
        // certain past about 2^16).
        let mut tagged: Vec<(u32, u64)> = (0u64..1 << 18)
            .map(|i| (key_tag(&i.to_le_bytes()), i))
            .collect();
        tagged.sort_unstable();
        let (a, b) = tagged
            .windows(2)
            .find(|w| w[0].0 == w[1].0)
            .map(|w| (w[0].1.to_le_bytes(), w[1].1.to_le_bytes()))
            .expect("two of 2^18 keys share a tag");
        assert_ne!(a, b);
        assert_eq!(key_tag(&a), key_tag(&b));
        let mut set = VisitedSet::with_slots(2);
        assert_eq!(set.insert(&a), Some(0));
        assert_eq!(set.insert(&b), Some(1), "a tag match alone is not a visit");
        assert_eq!(set.insert(&a), None);
        assert_eq!(set.insert(&b), None);
        assert_eq!((set.key(0), set.key(1)), (&a[..], &b[..]));
    }

    /// `st` after taking `choices` in order.
    fn dispatched<'a>(ctx: &Ctx<'_>, mut st: McState<'a>, choices: &[Choice]) -> McState<'a> {
        let mut stats = ClusterStats::new(&ctx.universe.config(false).latency_bounds);
        for &choice in choices {
            step(ctx, &mut st, choice, &mut stats, &mut Vec::new());
        }
        st
    }

    /// The root state of the standard universe with the write from site
    /// 0 dispatched: one open session, one pending timer, two requests
    /// in flight.
    fn state_with_a_session<'a>(cfg: &'a ClusterConfig, u: &'a Universe) -> McState<'a> {
        let mut st = McState {
            next_access: 1,
            ..McState::root(u, cfg)
        };
        let mut stats = ClusterStats::new(&cfg.latency_bounds);
        st.core.open_session(
            0,
            Access::Write,
            Some(0),
            &mut Tally {
                bag: &mut st.sched,
                stats: &mut stats,
            },
        );
        st
    }

    /// Statistics cannot enter the key: a state holds none (the search
    /// tallies into one `ClusterStats` outside every state). What is left
    /// to check is that timer token values stay out.
    #[test]
    fn timer_tokens_and_stats_do_not_enter_the_key() {
        let u = Universe::standard();
        let cfg = u.config(false);
        let ctx = Ctx::new(&u, &ExploreOptions::default());
        let mut enc = KeyEncoder::default();
        let a = state_with_a_session(&cfg, &u);
        let key_a = enc.canonical_key(&ctx, &a).to_vec();

        let mut b = McState {
            core: ProtocolCore::new(&cfg, &u.votes, u.initial_spec),
            sched: BagScheduler::default(),
            ..a.clone()
        };
        let mut stats = ClusterStats::new(&cfg.latency_bounds);
        let mut sched = Tally {
            bag: &mut b.sched,
            stats: &mut stats,
        };
        // Burn timer tokens so b's session timer gets a different one.
        for _ in 0..5 {
            let t = sched.arm_timer(99, 1.0);
            sched.cancel_timer(t);
        }
        b.core.open_session(0, Access::Write, Some(0), &mut sched);
        assert_ne!(a.sched.pending_timers(), b.sched.pending_timers());
        assert_eq!(enc.canonical_key(&ctx, &b), key_a.as_slice());
    }

    #[test]
    fn in_flight_bag_keeps_multiplicity_not_order() {
        let u = Universe::standard();
        let cfg = u.config(false);
        let ctx = Ctx::new(&u, &ExploreOptions::default());
        let mut enc = KeyEncoder::default();
        let once = state_with_a_session(&cfg, &u);
        assert_eq!(once.sched.in_flight().len(), 2);
        let key_once = enc.canonical_key(&ctx, &once).to_vec();

        let mut reordered = once.clone();
        reordered.sched.in_flight.reverse();
        assert_eq!(enc.canonical_key(&ctx, &reordered), key_once.as_slice());

        let mut twice = once.clone();
        twice.sched.in_flight.push(once.sched.in_flight()[0]);
        let key_twice = enc.canonical_key(&ctx, &twice).to_vec();
        assert_ne!(key_twice, key_once);
        assert_eq!(key_twice.len(), key_once.len() + MSG_RECORD);
    }

    #[test]
    #[should_panic(expected = "site version = 256 exceeds 255")]
    fn key_field_past_255_panics_instead_of_truncating() {
        let u = Universe::standard();
        let cfg = u.config(false);
        let ctx = Ctx::new(&u, &ExploreOptions::default());
        let mut st = state_with_a_session(&cfg, &u);
        let mut stats = ClusterStats::new(&cfg.latency_bounds);
        // Site 1 adopts version 256, which a truncated key byte would
        // store as version 0, the version of a site no write reached.
        st.core.handle_message(
            Message {
                from: 0,
                to: 1,
                session: 1,
                payload: Payload::WriteCommit { version: 256 },
            },
            &mut Tally {
                bag: &mut st.sched,
                stats: &mut stats,
            },
        );
        assert_eq!(st.core.site_view(1).version, 256);
        KeyEncoder::default().canonical_key(&ctx, &st);
    }

    /// The panic text of `message_record(m, perm)`, or `None` if it
    /// returns.
    fn message_record_panic(m: Message, perm: &[usize]) -> Option<String> {
        let caught = std::panic::catch_unwind(|| message_record(&m, perm)).err()?;
        Some(
            caught
                .downcast_ref::<String>()
                .cloned()
                .expect("a formatted panic message"),
        )
    }

    #[test]
    fn message_field_past_255_panics_naming_it() {
        let (spec, wide) = (
            QuorumSpec::new(2, 2, 3).unwrap(),
            QuorumSpec::new(300, 300, 400).unwrap(),
        );
        let grant = |votes, version, epoch| Payload::VoteGrant {
            votes,
            version,
            epoch,
        };
        let to_1 = |session, payload| Message {
            from: 0,
            to: 1,
            session,
            payload,
        };
        let cases = [
            (to_1(1, grant(1, 256, 0)), "message version = 256"),
            (to_1(1, grant(300, 0, 0)), "message votes = 300"),
            (to_1(1, grant(1, 0, 256)), "message epoch = 256"),
            (to_1(256, grant(1, 0, 0)), "message session = 256"),
            (
                to_1(1, Payload::CommitAck { votes: 999 }),
                "message votes = 999",
            ),
            (
                to_1(1, Payload::WriteCommit { version: 1 << 40 }),
                "message version = 1099511627776",
            ),
            (
                to_1(
                    1,
                    Payload::Install {
                        epoch: 256,
                        epoch_spec: spec,
                    },
                ),
                "message epoch = 256",
            ),
            (
                to_1(
                    1,
                    Payload::VoteDeny {
                        epoch: 1,
                        epoch_spec: wide,
                    },
                ),
                "message q_r = 300",
            ),
            (
                to_1(
                    1,
                    Payload::VoteRequest {
                        kind: Access::Write,
                        epoch: 1,
                        epoch_spec: QuorumSpec::new(100, 300, 350).unwrap(),
                    },
                ),
                "message q_w = 300",
            ),
            // Several fields past 255: the payload words are named
            // before the session, in word order.
            (to_1(256, grant(1, 300, 400)), "message version = 300"),
        ];
        for (m, field) in cases {
            let text =
                message_record_panic(m, &[0, 1, 2]).unwrap_or_else(|| panic!("{m:?} passed"));
            assert_eq!(
                text,
                format!("state key field {field} exceeds 255, the largest value a key byte holds"),
                "{m:?}"
            );
        }
        // A renamed site index past 255 is named too, before the session.
        let perm: Vec<usize> = (0..300).collect();
        let far = Message {
            from: 0,
            to: 256,
            session: 256,
            payload: grant(1, 0, 0),
        };
        assert_eq!(
            message_record_panic(far, &perm).as_deref(),
            Some(
                "state key field site index = 256 exceeds 255, the largest value a key byte holds"
            )
        );
        // At 255 every field still fits.
        let edge = to_1(255, grant(255, 255, 255));
        assert_eq!(
            message_record_panic(edge, &[0, 1, 2]),
            None,
            "255 fits a key byte"
        );
        assert_eq!(
            message_record(&edge, &[0, 1, 2]),
            [0, 1, 255, 3, 255, 255, 255]
        );
    }

    #[test]
    fn symmetric_key_is_the_least_encoding() {
        // Sites 1 and 2 of the symmetric universe are interchangeable: a
        // request to site 1 and one to site 2 are the same state up to
        // renaming, and both keys are the smaller of the two encodings.
        let u = Universe::symmetric();
        let cfg = u.config(false);
        let ctx = Ctx::new(&u, &ExploreOptions::default());
        let mut enc = KeyEncoder::default();
        let mut st = state_with_a_session(&cfg, &u);
        let (to1, to2) = (st.sched.in_flight[0], st.sched.in_flight[1]);
        assert_eq!((to1.to, to2.to), (1, 2));
        st.sched.in_flight = vec![to1];
        let key1 = enc.canonical_key(&ctx, &st).to_vec();
        st.sched.in_flight = vec![to2];
        let key2 = enc.canonical_key(&ctx, &st).to_vec();
        assert_eq!(key1, key2);
        let mut identity = Vec::new();
        enc.encode(&st, &ctx.perms[0], &mut identity);
        let mut swapped = Vec::new();
        enc.encode(&st, &ctx.perms[1], &mut swapped);
        assert_ne!(identity, swapped);
        assert_eq!(key2, identity.min(swapped));
    }

    #[test]
    fn state_cap_reports_capping() {
        let u = Universe::symmetric();
        let report = explore(
            &u,
            &ExploreOptions {
                max_states: Some(5),
                ..ExploreOptions::default()
            },
        );
        assert!(report.capped);
        assert!(!report.exhaustive());
        assert_eq!(report.states_explored, 5);
    }

    /// Checks, for every state `u` reaches, that its record reads back
    /// to the same state and re-writes to the same bytes; returns the
    /// number of states checked. Each record is read over the state read
    /// before it, so the reader also shrinks and grows its tables in
    /// place.
    fn assert_every_record_round_trips(u: &Universe) -> u64 {
        let cfg = u.config(false);
        let mut back = McState::root(u, &cfg);
        let (mut record, mut again) = (Vec::new(), Vec::new());
        let mut checked = 0;
        let report = search(u, &cfg, &ExploreOptions::default(), |st| {
            record.clear();
            st.write_record(&mut record);
            let mut bytes = record.as_slice();
            back.read_record(&mut bytes);
            assert!(bytes.is_empty(), "the reader consumes the whole record");
            assert_eq!(format!("{back:?}"), format!("{st:?}"));
            again.clear();
            back.write_record(&mut again);
            assert_eq!(again, record);
            checked += 1;
        });
        assert_eq!(checked, report.states_explored);
        checked
    }

    #[test]
    fn every_symmetric_state_record_round_trips() {
        assert_eq!(assert_every_record_round_trips(&Universe::symmetric()), 349);
    }

    #[test]
    fn every_one_access_standard_state_record_round_trips() {
        let mut u = Universe::standard();
        u.max_net_changes = 1;
        u.accesses.truncate(1);
        assert_eq!(assert_every_record_round_trips(&u), 7827);
    }

    #[test]
    fn every_standard_nc1_r0_state_record_round_trips() {
        let mut u = Universe::standard();
        u.max_net_changes = 1;
        u.max_retries = 0;
        assert_eq!(assert_every_record_round_trips(&u), 25_024);
    }

    /// Three states of the standard universe with zero, one and two
    /// open sessions (the two accesses and the install dispatched).
    fn states_by_session_count<'a>(
        ctx: &Ctx<'_>,
        cfg: &'a ClusterConfig,
        u: &'a Universe,
    ) -> [McState<'a>; 3] {
        let root = McState::root(u, cfg);
        let one = dispatched(ctx, root.clone(), &[Choice::Access]);
        let two = dispatched(
            ctx,
            root.clone(),
            &[Choice::Install, Choice::Access, Choice::Access],
        );
        assert_eq!(
            [&root, &one, &two].map(|st| st.core.open_sessions()),
            [0, 1, 2]
        );
        [root, one, two]
    }

    #[test]
    fn clone_from_matches_clone_into_more_and_fewer_sessions() {
        let u = Universe::standard();
        let cfg = u.config(false);
        let ctx = Ctx::new(&u, &ExploreOptions::default());
        let [root, one, two] = states_by_session_count(&ctx, &cfg, &u);
        let expected = format!("{:?}", one.clone());
        let expected_sched = format!("{:?}", one.sched.clone());
        for mut target in [root, two] {
            let mut sched = target.sched.clone();
            sched.clone_from(&one.sched);
            assert_eq!(format!("{sched:?}"), expected_sched);
            target.clone_from(&one);
            assert_eq!(format!("{target:?}"), expected);
        }
    }

    #[test]
    fn frontier_pops_in_push_order_and_drops_what_it_popped() {
        let u = Universe::standard();
        let cfg = u.config(false);
        let ctx = Ctx::new(&u, &ExploreOptions::default());
        let states = states_by_session_count(&ctx, &cfg, &u);
        let mut frontier = Frontier::default();
        // Depths past 127 take two LEB128 bytes.
        for (depth, st) in (300..).zip(&states) {
            frontier.push(depth, st);
        }
        let mut st = states[2].clone();
        let mut popped = Vec::new();
        while let Some(depth) = frontier.pop_into(&mut st) {
            popped.push((depth, format!("{st:?}")));
            // The consumed prefix never passes a quarter of the buffer.
            assert!(4 * frontier.read <= frontier.buf.len());
        }
        let expected: Vec<_> = (300..)
            .zip(&states)
            .map(|(d, s)| (d, format!("{s:?}")))
            .collect();
        assert_eq!(popped, expected);
        assert!(frontier.buf.is_empty());
    }
}
