//! The future-event list.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One scheduled entry, ordered by the total `(time, insertion seq)` key.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Handle to a cancellable entry returned by
/// [`EventQueue::schedule_cancellable`]. Passing it to
/// [`EventQueue::cancel`] voids the entry: it stays in the heap but is
/// silently skipped when its turn comes (void-on-pop), so cancellation is
/// O(1) and never perturbs the order of surviving events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventKey(pub(crate) u64);

impl EventKey {
    /// The key's raw sequence number. Together with
    /// [`EventKey::from_raw`] this lets scheduler adapters (e.g. the
    /// cluster engine's `Scheduler` trait) round-trip keys through their
    /// own opaque handle types without a side table.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a key from a value previously obtained via
    /// [`EventKey::raw`]. Passing a fabricated value is safe: cancelling
    /// a key that was never issued is a no-op.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }
}

/// Event sequence numbers, queried for membership only.
#[expect(
    clippy::disallowed_types,
    reason = "O(1) membership in the event hot loop; never iterated, so hash order is never observed"
)]
type SeqSet = std::collections::HashSet<u64>;

/// A deterministic future-event list.
///
/// Events pop in non-decreasing time order; simultaneous events pop in
/// insertion (FIFO) order, which keeps simulations reproducible across runs
/// regardless of heap internals.
///
/// Entries scheduled through [`EventQueue::schedule_cancellable`] can be
/// invalidated later (session timeouts that were beaten by a reply); a
/// cancelled entry is skipped on pop without advancing the clock or
/// counting as a processed event.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Scheduled<E>>>,
    next_seq: u64,
    popped: u64,
    now: SimTime,
    /// Seq numbers of cancellable entries still in the heap.
    live_keys: SeqSet,
    /// Seq numbers cancelled but not yet reaped from the heap.
    voided: SeqSet,
    cancelled: u64,
    compactions: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
            now: SimTime::ZERO,
            live_keys: SeqSet::default(),
            voided: SeqSet::default(),
            cancelled: 0,
            compactions: 0,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` precedes the current simulation time (causality).
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Scheduled { time, seq, payload }));
    }

    /// Schedules `payload` at `now + dt`.
    pub fn schedule_in(&mut self, dt: f64, payload: E) {
        let t = self.now + dt;
        self.schedule(t, payload);
    }

    /// Schedules `payload` at absolute time `time` and returns a key that
    /// can later [`EventQueue::cancel`] the entry (e.g. a session timeout
    /// that a quorum of replies may beat).
    ///
    /// # Panics
    /// Panics if `time` precedes the current simulation time (causality).
    pub fn schedule_cancellable(&mut self, time: SimTime, payload: E) -> EventKey {
        let key = EventKey(self.next_seq);
        self.schedule(time, payload);
        self.live_keys.insert(key.0);
        key
    }

    /// Schedules a cancellable `payload` at `now + dt`.
    pub fn schedule_cancellable_in(&mut self, dt: f64, payload: E) -> EventKey {
        let t = self.now + dt;
        self.schedule_cancellable(t, payload)
    }

    /// Voids a cancellable entry. Returns `true` if the entry was still
    /// pending (not yet popped or previously cancelled); the entry is then
    /// skipped silently when the heap reaches it.
    ///
    /// Tombstones are reaped eagerly once they outnumber half the live
    /// entries, so retry-heavy runs (most timers beaten by replies) keep
    /// the heap at O(live) instead of growing monotonically.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let was_live = self.live_keys.remove(&key.0);
        if was_live {
            self.voided.insert(key.0);
            self.cancelled += 1;
            if self.voided.len() > self.len() / 2 {
                self.compact();
            }
        }
        was_live
    }

    /// Rebuilds the heap without the voided entries. Pop order is
    /// unaffected: the heap's internal layout changes, but extraction is
    /// always by the total `(time, seq)` order.
    fn compact(&mut self) {
        let heap = std::mem::take(&mut self.heap);
        self.heap = heap
            .into_iter()
            .filter(|Reverse(ev)| !self.voided.contains(&ev.seq))
            .collect();
        self.voided.clear();
        self.compactions += 1;
    }

    /// Pops the earliest surviving event, advancing the clock to its
    /// timestamp. Cancelled entries are reaped without advancing the clock
    /// or counting toward [`EventQueue::popped`].
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let Reverse(ev) = self.heap.pop()?;
            if self.voided.remove(&ev.seq) {
                continue;
            }
            self.live_keys.remove(&ev.seq);
            self.now = ev.time;
            self.popped += 1;
            return Some((ev.time, ev.payload));
        }
    }

    /// Timestamp of the next surviving event without popping.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let seq = self.heap.peek().map(|Reverse(ev)| ev.seq)?;
            if self.voided.remove(&seq) {
                self.heap.pop();
                continue;
            }
            return self.heap.peek().map(|Reverse(ev)| ev.time);
        }
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.voided.len()
    }

    /// True if no non-cancelled events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries cancelled over the queue's lifetime.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Cancelled entries currently awaiting reaping (heap residency minus
    /// live entries). Bounded by half the live entries plus one — the
    /// compaction threshold.
    pub fn tombstones(&self) -> u64 {
        self.voided.len() as u64
    }

    /// Tombstone compaction sweeps performed over the queue's lifetime.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Total events scheduled over the queue's lifetime.
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Total events popped (processed) over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Records the queue's lifetime totals into an observability
    /// registry under the [`quorum_obs::keys`] DES names.
    pub fn observe_into(&self, registry: &quorum_obs::Registry) {
        registry.add(quorum_obs::keys::DES_EVENTS, self.popped);
        registry.add(quorum_obs::keys::DES_EVENTS_SCHEDULED, self.next_seq);
        registry.add(quorum_obs::keys::DES_QUEUE_COMPACTIONS, self.compactions);
        registry.set_gauge(
            quorum_obs::keys::DES_QUEUE_TOMBSTONES,
            self.voided.len() as f64,
        );
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(3.0), "c");
        q.schedule(SimTime::new(1.0), "a");
        q.schedule(SimTime::new(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::new(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(2.5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::new(2.5));
        assert_eq!(q.now(), SimTime::new(2.5));
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(1.0), "first");
        q.pop();
        q.schedule_in(0.5, "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::new(1.5));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(9.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::new(9.0)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn lifetime_totals_track_schedules_and_pops() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(SimTime::new(i as f64), i);
        }
        q.pop();
        q.pop();
        assert_eq!(q.scheduled(), 5);
        assert_eq!(q.popped(), 2);
        let r = quorum_obs::Registry::new();
        q.observe_into(&r);
        let snap = r.snapshot();
        assert_eq!(snap.counter(quorum_obs::keys::DES_EVENTS), 2);
        assert_eq!(snap.counter(quorum_obs::keys::DES_EVENTS_SCHEDULED), 5);
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert!(q.peek_time().is_none());
    }

    #[test]
    fn cancel_before_pop_voids_entry() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(1.0), "keep-a");
        let key = q.schedule_cancellable(SimTime::new(2.0), "timer");
        q.schedule(SimTime::new(3.0), "keep-b");
        assert_eq!(q.len(), 3);
        assert!(q.cancel(key));
        assert!(!q.cancel(key), "double-cancel is a no-op");
        assert_eq!(q.len(), 2);
        assert_eq!(q.cancelled(), 1);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["keep-a", "keep-b"]);
        // The voided entry never counted as processed.
        assert_eq!(q.popped(), 2);
    }

    #[test]
    fn cancelled_entry_does_not_advance_clock() {
        let mut q = EventQueue::new();
        let key = q.schedule_cancellable(SimTime::new(5.0), "timer");
        q.schedule(SimTime::new(9.0), "real");
        q.cancel(key);
        let (t, p) = q.pop().unwrap();
        assert_eq!(p, "real");
        assert_eq!(t, SimTime::new(9.0));
        assert_eq!(q.now(), SimTime::new(9.0));
    }

    #[test]
    fn cancel_after_pop_is_rejected() {
        let mut q = EventQueue::new();
        let key = q.schedule_cancellable(SimTime::new(1.0), "timer");
        assert_eq!(q.pop().unwrap().1, "timer");
        assert!(!q.cancel(key), "already delivered");
        assert_eq!(q.cancelled(), 0);
    }

    #[test]
    fn cancellable_ties_keep_fifo_order() {
        // Cancellable and plain entries at the same timestamp pop in
        // insertion order, and voiding one of them never reorders the
        // survivors.
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        for i in 0..6 {
            keys.push(q.schedule_cancellable(SimTime::new(4.0), i));
        }
        q.schedule(SimTime::new(4.0), 6);
        q.cancel(keys[1]);
        q.cancel(keys[4]);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![0, 2, 3, 5, 6]);
    }

    #[test]
    fn tombstones_are_compacted_when_they_outnumber_half_the_live() {
        let mut q = EventQueue::new();
        let mut keys = Vec::new();
        for i in 0..100 {
            keys.push(q.schedule_cancellable(SimTime::new(i as f64), i));
        }
        // Cancel even entries: tombstones cross live/2 long before the
        // end, so at least one sweep must fire and the residue stays
        // below the threshold.
        for key in keys.iter().step_by(2) {
            q.cancel(*key);
        }
        assert!(q.compactions() >= 1, "no compaction after 50 cancels");
        assert!(
            q.tombstones() <= q.len() as u64 / 2 + 1,
            "tombstones {} vs live {}",
            q.tombstones(),
            q.len()
        );
        assert_eq!(q.len(), 50);
        assert_eq!(q.cancelled(), 50);
        // Survivors still pop in order, nothing lost or duplicated.
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (1..100).step_by(2).collect::<Vec<_>>());
    }

    #[test]
    fn compaction_is_observable() {
        let mut q = EventQueue::new();
        let keys: Vec<EventKey> = (0..8)
            .map(|i| q.schedule_cancellable(SimTime::new(i as f64), i))
            .collect();
        for key in &keys[..6] {
            q.cancel(*key);
        }
        let r = quorum_obs::Registry::new();
        q.observe_into(&r);
        let snap = r.snapshot();
        assert!(snap.counter(quorum_obs::keys::DES_QUEUE_COMPACTIONS) >= 1);
        let residue = q.tombstones();
        assert_eq!(
            snap.gauges
                .get(quorum_obs::keys::DES_QUEUE_TOMBSTONES.as_str()),
            Some(&(residue as f64))
        );
    }

    #[test]
    fn peek_skips_cancelled_entries() {
        let mut q = EventQueue::new();
        let key = q.schedule_cancellable(SimTime::new(1.0), "timer");
        q.schedule(SimTime::new(2.0), "real");
        q.cancel(key);
        assert_eq!(q.peek_time(), Some(SimTime::new(2.0)));
        assert_eq!(q.pop().unwrap().1, "real");
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(5.0), ());
        q.pop();
        q.schedule(SimTime::new(4.0), ());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Events always pop in non-decreasing time order, with FIFO
            /// ties, for arbitrary interleavings of schedules and pops.
            #[test]
            fn pops_are_monotone_and_fifo(ops in prop::collection::vec((0.0f64..100.0, prop::bool::ANY), 1..200)) {
                let mut q = EventQueue::new();
                let mut seq = 0u64;
                let mut last: Option<(SimTime, u64)> = None;
                for (dt, do_pop) in ops {
                    if do_pop {
                        if let Some((t, s)) = q.pop() {
                            if let Some((lt, ls)) = last {
                                prop_assert!(t > lt || (t == lt && s > ls));
                            }
                            prop_assert!(t >= SimTime::ZERO);
                            last = Some((t, s));
                        }
                    } else {
                        q.schedule_in(dt, seq);
                        seq += 1;
                    }
                }
                // Drain the remainder.
                while let Some((t, s)) = q.pop() {
                    if let Some((lt, ls)) = last {
                        prop_assert!(t > lt || (t == lt && s > ls));
                    }
                    last = Some((t, s));
                }
                prop_assert!(q.is_empty());
            }
        }

        /// One step of the randomized model test.
        #[derive(Debug, Clone)]
        enum Op {
            Schedule(f64),
            ScheduleCancellable(f64),
            Pop,
            /// Cancel the `k`-th most recently issued key (if any).
            Cancel(usize),
        }

        /// Whole-number delays, so simultaneous events (and with them
        /// the FIFO tie-break) are common.
        fn op_strategy() -> impl Strategy<Value = Op> {
            (0u8..4, 0u8..16, 0usize..8).prop_map(|(which, dt, k)| match which {
                0 => Op::Schedule(dt as f64),
                1 => Op::ScheduleCancellable(dt as f64),
                2 => Op::Pop,
                _ => Op::Cancel(k),
            })
        }

        /// The naive reference: every pending entry in a `Vec`, each pop
        /// a scan for the least `(time, seq)`. Entries are
        /// `(time, seq, cancellable)`; the payload is the seq.
        struct Model {
            live: Vec<(SimTime, u64, bool)>,
            next_seq: u64,
            now: SimTime,
            popped: u64,
            cancelled: u64,
        }

        impl Model {
            fn new() -> Self {
                Self {
                    live: Vec::new(),
                    next_seq: 0,
                    now: SimTime::ZERO,
                    popped: 0,
                    cancelled: 0,
                }
            }

            fn schedule_in(&mut self, dt: f64, cancellable: bool) -> u64 {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.live.push((self.now + dt, seq, cancellable));
                seq
            }

            fn cancel(&mut self, seq: u64) -> bool {
                let found = self.live.iter().position(|&(_, s, c)| s == seq && c);
                if let Some(i) = found {
                    self.live.remove(i);
                    self.cancelled += 1;
                }
                found.is_some()
            }

            fn peek(&self) -> Option<(SimTime, u64)> {
                self.live.iter().map(|&(t, s, _)| (t, s)).min()
            }

            fn pop(&mut self) -> Option<(SimTime, u64)> {
                let (t, s) = self.peek()?;
                self.live.retain(|&(_, seq, _)| seq != s);
                self.now = t;
                self.popped += 1;
                Some((t, s))
            }
        }

        /// Asserts every observable total of the queue against the model.
        fn assert_totals(q: &EventQueue<u64>, m: &Model) {
            assert_eq!(q.now(), m.now);
            assert_eq!(q.len(), m.live.len());
            assert_eq!(q.scheduled(), m.next_seq);
            assert_eq!(q.cancelled(), m.cancelled);
            assert_eq!(q.popped(), m.popped);
        }

        proptest! {
            /// The heap is observationally identical to the naive model
            /// over arbitrary interleavings of schedules, cancellable
            /// schedules, cancels, and pops. Every case ends with a
            /// cancel sweep large enough to force a tombstone
            /// compaction, then drains the queue.
            #[test]
            fn matches_naive_model(ops in prop::collection::vec(op_strategy(), 1..300)) {
                let mut q = EventQueue::new();
                let mut m = Model::new();
                let mut keys: Vec<EventKey> = Vec::new();
                for op in ops {
                    match op {
                        Op::Schedule(dt) => {
                            let seq = m.schedule_in(dt, false);
                            q.schedule_in(dt, seq);
                        }
                        Op::ScheduleCancellable(dt) => {
                            let seq = m.schedule_in(dt, true);
                            let key = q.schedule_cancellable_in(dt, seq);
                            prop_assert_eq!(key.raw(), seq);
                            keys.push(key);
                        }
                        Op::Pop => {
                            prop_assert_eq!(q.peek_time(), m.peek().map(|(t, _)| t));
                            prop_assert_eq!(q.pop(), m.pop());
                        }
                        Op::Cancel(k) => {
                            if !keys.is_empty() {
                                let key = keys[keys.len() - 1 - k % keys.len()];
                                prop_assert_eq!(q.cancel(key), m.cancel(key.raw()));
                            }
                        }
                    }
                    assert_totals(&q, &m);
                }

                // Cancelling more fresh entries than are pending pushes
                // the tombstones past half the live entries.
                let compactions = q.compactions();
                let sweep: Vec<EventKey> = (0..=q.len())
                    .map(|i| {
                        let dt = (i % 16) as f64;
                        let seq = m.schedule_in(dt, true);
                        q.schedule_cancellable_in(dt, seq)
                    })
                    .collect();
                for key in sweep {
                    prop_assert!(q.cancel(key));
                    prop_assert!(m.cancel(key.raw()));
                    assert_totals(&q, &m);
                }
                prop_assert!(q.compactions() > compactions, "the sweep must compact");

                loop {
                    prop_assert_eq!(q.peek_time(), m.peek().map(|(t, _)| t));
                    let popped = q.pop();
                    prop_assert_eq!(popped, m.pop());
                    assert_totals(&q, &m);
                    if popped.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
