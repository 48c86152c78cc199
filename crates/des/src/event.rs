//! The future-event list.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// The total `(time, insertion seq)` order packed into one integer: the
/// time's bit pattern in the high 64 bits, the seq in the low 64. Bit
/// patterns of [`SimTime`]s sort as the times do, so integer order is
/// the `(time, seq)` order.
fn pack(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.to_bits()) << 64) | u128::from(seq)
}

/// The time half of a [`pack`]ed key.
fn time_of(key: u128) -> SimTime {
    SimTime::from_bits((key >> 64) as u64)
}

/// The seq half of a [`pack`]ed key.
fn seq_of(key: u128) -> u64 {
    key as u64
}

/// An entry with its payload: the front slot's, or one leaving the
/// queue.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    /// [`pack`]ed `(time, seq)`.
    key: u128,
    /// Scheduled through [`EventQueue::schedule_cancellable`], so it has a
    /// [`Timer`] record.
    cancellable: bool,
    payload: E,
}

/// A heap entry: 32 bytes whatever the payload, which waits in the
/// queue's slab at `slot`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    /// [`pack`]ed `(time, seq)`; the heap orders entries by it alone.
    key: u128,
    slot: u32,
    /// As [`Scheduled::cancellable`].
    cancellable: bool,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// The record of a pending cancellable entry.
#[derive(Debug, Clone, Copy)]
struct Timer {
    seq: u64,
    /// Cancelled: the entry is a tombstone, skipped when its turn comes.
    voided: bool,
}

/// Index of the record for `seq` in seq-sorted `timers`, if there is one.
fn timer_index(timers: &[Timer], seq: u64) -> Option<usize> {
    timers.binary_search_by_key(&seq, |t| t.seq).ok()
}

/// True if the entry under `key` is a cancelled one awaiting reaping:
/// it is cancellable and its record in `timers` is voided.
fn is_voided(timers: &[Timer], key: u128, cancellable: bool) -> bool {
    cancellable && timer_index(timers, seq_of(key)).is_some_and(|i| timers[i].voided)
}

/// Handle to a cancellable entry returned by
/// [`EventQueue::schedule_cancellable_in`]. Passing it to
/// [`EventQueue::cancel`] voids the entry: it stays queued but is
/// silently skipped when its turn comes (void-on-pop), so cancellation
/// never perturbs the order of surviving events.
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

/// A deterministic future-event list.
///
/// Events pop in non-decreasing time order; simultaneous events pop in
/// insertion (FIFO) order, which keeps simulations reproducible across runs
/// regardless of heap internals.
///
/// Every entry is ordered by one `u128` key, the time's bit pattern above
/// the insertion seq, so a comparison is one integer compare. The binary
/// heap holds 32-byte entries of key, slab slot and cancellable flag; the
/// payloads wait in a slab (`Vec<Option<E>>` with a free list of slots),
/// written once when their entry enters the heap and taken once when it
/// leaves. Sifting moves keys, never payloads, and the slab never holds
/// more slots than the heap's peak length.
///
/// A newly scheduled entry that precedes everything pending goes into a
/// front slot outside the heap, payload inline. A simulation's next event
/// is most often the one it just scheduled (the next Poisson arrival), so
/// that entry is scheduled and popped without a heap operation or a slab
/// slot; a still earlier arrival demotes the front entry into the heap.
///
/// Entries scheduled through [`EventQueue::schedule_cancellable_in`] can be
/// invalidated later (session timeouts that were beaten by a reply); a
/// cancelled entry is skipped on pop without advancing the clock or
/// counting as a processed event. Each pending cancellable entry has a
/// timer record in a `Vec` sorted by seq: arming one is a push, and
/// cancelling is a binary search, O(log pending timers). Plain entries
/// have no record and cost nothing extra.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The earliest pending entry, if it is not in the heap: when set,
    /// it precedes every heap entry.
    front: Option<Scheduled<E>>,
    heap: BinaryHeap<Reverse<Entry>>,
    /// Payloads of the heap entries, at their [`Entry::slot`]; `None`
    /// marks a free slot.
    slab: Vec<Option<E>>,
    /// The free slots of `slab`, reused before it grows.
    free: Vec<u32>,
    /// Records of the cancellable entries still queued, sorted by seq.
    timers: Vec<Timer>,
    /// Number of voided records: cancelled entries not yet reaped.
    tombstones: usize,
    next_seq: u64,
    popped: u64,
    now: SimTime,
    cancelled: u64,
    compactions: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self {
            front: None,
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            timers: Vec::new(),
            tombstones: 0,
            next_seq: 0,
            popped: 0,
            now: SimTime::ZERO,
            cancelled: 0,
            compactions: 0,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` precedes the current simulation time (causality).
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        self.insert(time, false, payload);
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
    pub(crate) fn schedule_cancellable(&mut self, time: SimTime, payload: E) -> EventKey {
        let seq = self.insert(time, true, payload);
        // Seqs are issued in increasing order, so the push keeps the
        // records sorted.
        self.timers.push(Timer { seq, voided: false });
        EventKey(seq)
    }

    /// Schedules a cancellable `payload` at `now + dt`.
    pub fn schedule_cancellable_in(&mut self, dt: f64, payload: E) -> EventKey {
        let t = self.now + dt;
        self.schedule_cancellable(t, payload)
    }

    /// Queues an entry under the next seq, which it returns. The entry
    /// takes the front slot if it precedes the current front entry (or,
    /// with the slot empty, the heap top); at most one entry moves into
    /// the heap.
    fn insert(&mut self, time: SimTime, cancellable: bool, payload: E) -> u64 {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Scheduled {
            key: pack(time, seq),
            cancellable,
            payload,
        };
        let to_heap = match &mut self.front {
            Some(front) if ev.key < front.key => std::mem::replace(front, ev),
            Some(_) => ev,
            None if self
                .heap
                .peek()
                .is_some_and(|Reverse(top)| top.key < ev.key) =>
            {
                ev
            }
            None => {
                self.front = Some(ev);
                return seq;
            }
        };
        self.push_heap(to_heap);
        seq
    }

    /// Moves an entry into the heap, its payload into a free slab slot.
    fn push_heap(&mut self, ev: Scheduled<E>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(ev.payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 queued events");
                self.slab.push(Some(ev.payload));
                slot
            }
        };
        self.heap.push(Reverse(Entry {
            key: ev.key,
            slot,
            cancellable: ev.cancellable,
        }));
    }

    /// Voids a cancellable entry. Returns `true` if the entry was still
    /// pending (not yet popped or previously cancelled); the entry is then
    /// skipped silently when its turn comes. A key that was never issued,
    /// or that names a plain entry, is a no-op.
    ///
    /// Tombstones are reaped eagerly once they outnumber half the live
    /// entries, so retry-heavy runs (most timers beaten by replies) keep
    /// the heap at O(live) instead of growing monotonically.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let Some(i) = timer_index(&self.timers, key.0) else {
            return false;
        };
        let timer = &mut self.timers[i];
        if timer.voided {
            return false;
        }
        timer.voided = true;
        self.tombstones += 1;
        self.cancelled += 1;
        if self.tombstones > self.len() / 2 {
            self.compact();
        }
        true
    }

    /// Drops the voided entries, their payloads and their records. Pop
    /// order is unaffected: the heap's internal layout changes, but
    /// extraction is always by the total `(time, seq)` order.
    fn compact(&mut self) {
        if self
            .front
            .as_ref()
            .is_some_and(|ev| is_voided(&self.timers, ev.key, ev.cancellable))
        {
            self.front = None;
        }
        let Self {
            heap,
            slab,
            free,
            timers,
            ..
        } = self;
        heap.retain(|Reverse(entry)| {
            let voided = is_voided(timers, entry.key, entry.cancellable);
            if voided {
                slab[entry.slot as usize] = None;
                free.push(entry.slot);
            }
            !voided
        });
        self.timers.retain(|t| !t.voided);
        self.tombstones = 0;
        self.compactions += 1;
    }

    /// Key and cancellable flag of the earliest queued entry, cancelled
    /// or not.
    fn peek_entry(&self) -> Option<(u128, bool)> {
        match &self.front {
            Some(ev) => Some((ev.key, ev.cancellable)),
            None => self
                .heap
                .peek()
                .map(|Reverse(entry)| (entry.key, entry.cancellable)),
        }
    }

    /// Removes the earliest queued entry, cancelled or not.
    fn take_entry(&mut self) -> Option<Scheduled<E>> {
        if let Some(ev) = self.front.take() {
            return Some(ev);
        }
        let Reverse(entry) = self.heap.pop()?;
        let payload = self.slab[entry.slot as usize]
            .take()
            .expect("a heap entry's slot holds its payload");
        self.free.push(entry.slot);
        Some(Scheduled {
            key: entry.key,
            cancellable: entry.cancellable,
            payload,
        })
    }

    /// Drops the timer record of a cancellable entry leaving the queue.
    /// Returns `true` if the entry was cancelled.
    fn reap(&mut self, seq: u64) -> bool {
        let i = timer_index(&self.timers, seq).expect("a queued timer has a record");
        let voided = self.timers.remove(i).voided;
        if voided {
            self.tombstones -= 1;
        }
        voided
    }

    /// Pops the earliest surviving event, advancing the clock to its
    /// timestamp. Cancelled entries are reaped without advancing the clock
    /// or counting toward [`EventQueue::popped`].
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let ev = self.take_entry()?;
            if ev.cancellable && self.reap(seq_of(ev.key)) {
                continue;
            }
            let time = time_of(ev.key);
            self.now = time;
            self.popped += 1;
            return Some((time, ev.payload));
        }
    }

    /// Timestamp of the next surviving event without popping.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (key, cancellable) = self.peek_entry()?;
            if !is_voided(&self.timers, key, cancellable) {
                return Some(time_of(key));
            }
            self.take_entry();
            self.reap(seq_of(key));
        }
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some()) - self.tombstones
    }

    /// True if no non-cancelled events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entries cancelled over the queue's lifetime.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Total events popped (processed) over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl<E> EventQueue<E> {
    /// Cancelled entries currently awaiting reaping (queued entries minus
    /// live entries). Bounded by half the live entries plus one — the
    /// compaction threshold.
    fn tombstones(&self) -> u64 {
        self.tombstones as u64
    }

    /// Tombstone compaction sweeps performed over the queue's lifetime.
    fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Total events scheduled over the queue's lifetime.
    fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// Records the queue's lifetime totals into an observability
    /// registry under the [`quorum_obs::keys`] DES names.
    fn observe_into(&self, registry: &quorum_obs::Registry) {
        registry.add(quorum_obs::keys::DES_EVENTS, self.popped);
        registry.add(quorum_obs::keys::DES_EVENTS_SCHEDULED, self.next_seq);
        registry.add(quorum_obs::keys::DES_QUEUE_COMPACTIONS, self.compactions);
        registry.set_gauge(
            quorum_obs::keys::DES_QUEUE_TOMBSTONES,
            self.tombstones as f64,
        );
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
    fn front_slot_holds_the_earliest_entry() {
        let front_seq = |q: &EventQueue<&str>| q.front.as_ref().map(|ev| seq_of(ev.key));

        // A later entry is demoted into the heap when an earlier one
        // arrives.
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(5.0), "late");
        assert_eq!((front_seq(&q), q.heap.len()), (Some(0), 0));
        q.schedule(SimTime::new(2.0), "early");
        assert_eq!((front_seq(&q), q.heap.len()), (Some(1), 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::new(2.0), "early")));
        assert_eq!(q.pop(), Some((SimTime::new(5.0), "late")));

        // Simultaneous entries split between the front and the heap still
        // pop FIFO.
        let mut q = EventQueue::new();
        q.schedule(SimTime::new(3.0), "a");
        q.schedule(SimTime::new(3.0), "b");
        assert_eq!((front_seq(&q), q.heap.len()), (Some(0), 1));
        q.schedule(SimTime::new(1.0), "x");
        assert_eq!((front_seq(&q), q.heap.len()), (Some(2), 2));
        assert_eq!(q.pop(), Some((SimTime::new(1.0), "x")));
        // The slot is empty and the heap top ties with the new entry,
        // which goes behind it.
        q.schedule(SimTime::new(3.0), "c");
        assert_eq!((front_seq(&q), q.heap.len()), (None, 3));
        q.schedule(SimTime::new(2.0), "y");
        assert_eq!((front_seq(&q), q.heap.len()), (Some(4), 3));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["y", "a", "b", "c"]);

        // A cancelled front entry is skipped by both `peek_time` and
        // `pop`. Three live entries keep the one tombstone below the
        // compaction threshold, so it is still in the slot.
        for peek_first in [true, false] {
            let mut q = EventQueue::new();
            let key = q.schedule_cancellable(SimTime::new(1.0), "timer");
            for (t, p) in [(2.0, "b"), (3.0, "c"), (4.0, "d")] {
                q.schedule(SimTime::new(t), p);
            }
            assert!(q.cancel(key));
            assert_eq!((front_seq(&q), q.tombstones(), q.len()), (Some(0), 1, 3));
            if peek_first {
                assert_eq!(q.peek_time(), Some(SimTime::new(2.0)));
                assert_eq!(q.tombstones(), 0);
            }
            assert_eq!(q.pop(), Some((SimTime::new(2.0), "b")));
            assert_eq!((q.tombstones(), q.len(), q.popped()), (0, 2, 1));
            assert_eq!(q.now(), SimTime::new(2.0));
        }
    }

    #[test]
    fn slab_slots_are_reused_not_leaked() {
        // Rounds of schedules, cancels (some of which compact) and pops.
        // The slab never outgrows the most entries the heap has held at
        // once, its occupied slots are exactly the heap's entries, and
        // every slot is free again once the queue drains.
        let mut q = EventQueue::new();
        let mut peak = 0;
        for round in 0..50 {
            let mut keys = Vec::new();
            for i in 0..20 {
                let dt = ((i * 7 + round) % 13) as f64 + 0.5;
                keys.push(q.schedule_cancellable_in(dt, i));
                q.schedule_in((i % 5) as f64, 100 + i);
                peak = peak.max(q.heap.len());
            }
            for key in keys.iter().step_by(2) {
                q.cancel(*key);
            }
            for _ in 0..28 {
                q.pop();
            }
            assert!(q.slab.len() <= peak, "slab {} > peak {peak}", q.slab.len());
            assert_eq!(q.slab.len() - q.free.len(), q.heap.len());
        }
        assert!(q.compactions() > 0);
        assert!(q.slab.len() * 10 < q.scheduled() as usize);
        while q.pop().is_some() {}
        assert_eq!(q.free.len(), q.slab.len());
        assert!(q.slab.iter().all(Option::is_none));
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
            /// Cancel `EventKey::from_raw(r)`: a plain entry, a popped
            /// one, a pending timer or a seq never issued.
            CancelRaw(u64),
        }

        /// Whole-number delays, so simultaneous events (and with them
        /// the FIFO tie-break) are common.
        fn op_strategy() -> impl Strategy<Value = Op> {
            (0u8..5, 0u8..16, 0usize..8, 0u64..320).prop_map(|(which, dt, k, r)| match which {
                0 => Op::Schedule(dt as f64),
                1 => Op::ScheduleCancellable(dt as f64),
                2 => Op::Pop,
                3 => Op::Cancel(k),
                _ => Op::CancelRaw(r),
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
                        Op::CancelRaw(r) => {
                            prop_assert_eq!(q.cancel(EventKey::from_raw(r)), m.cancel(r));
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

        /// As [`op_strategy`], with fractional delays from 1e-12 to 1e6,
        /// so times spread over many decades and a tiny delay after a
        /// large time rounds to a tie, and exact zero delays of both
        /// signs.
        fn decade_op_strategy() -> impl Strategy<Value = Op> {
            (
                0u8..5,
                0u8..4,
                1.0f64..10.0,
                -12i32..7,
                0usize..8,
                0u64..320,
            )
                .prop_map(|(which, kind, mantissa, exponent, k, r)| {
                    let dt = match kind {
                        0 => 0.0,
                        1 => -0.0,
                        _ => mantissa * 10f64.powi(exponent),
                    };
                    match which {
                        0 => Op::Schedule(dt),
                        1 => Op::ScheduleCancellable(dt),
                        2 => Op::Pop,
                        3 => Op::Cancel(k),
                        _ => Op::CancelRaw(r),
                    }
                })
        }

        proptest! {
            /// The heap matches the naive model on times spread over many
            /// decades. It starts with entries at 0.0 and −0.0, which are
            /// one time and pop FIFO; no popped time is ever −0.0.
            #[test]
            fn matches_naive_model_across_decades(
                zeros in prop::collection::vec((prop::bool::ANY, prop::bool::ANY), 0..12),
                ops in prop::collection::vec(decade_op_strategy(), 1..300),
            ) {
                let mut q = EventQueue::new();
                let mut m = Model::new();
                let mut keys: Vec<EventKey> = Vec::new();
                for (negative, cancellable) in zeros {
                    let t = SimTime::new(if negative { -0.0 } else { 0.0 });
                    let seq = m.schedule_in(0.0, cancellable);
                    if cancellable {
                        keys.push(q.schedule_cancellable(t, seq));
                    } else {
                        q.schedule(t, seq);
                    }
                }
                for op in ops {
                    match op {
                        Op::Schedule(dt) => {
                            let seq = m.schedule_in(dt, false);
                            q.schedule_in(dt, seq);
                        }
                        Op::ScheduleCancellable(dt) => {
                            let seq = m.schedule_in(dt, true);
                            keys.push(q.schedule_cancellable_in(dt, seq));
                        }
                        Op::Pop => {
                            prop_assert_eq!(q.peek_time(), m.peek().map(|(t, _)| t));
                            let popped = q.pop();
                            prop_assert_eq!(popped, m.pop());
                            if let Some((t, _)) = popped {
                                prop_assert!(t.as_f64().is_sign_positive());
                            }
                        }
                        Op::Cancel(k) => {
                            if !keys.is_empty() {
                                let key = keys[keys.len() - 1 - k % keys.len()];
                                prop_assert_eq!(q.cancel(key), m.cancel(key.raw()));
                            }
                        }
                        Op::CancelRaw(r) => {
                            prop_assert_eq!(q.cancel(EventKey::from_raw(r)), m.cancel(r));
                        }
                    }
                    assert_totals(&q, &m);
                }
                loop {
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
