//! Counter/timer/gauge registry.
//!
//! Design goals, in order: hot-path increments must be one relaxed atomic
//! add; snapshots must be deterministic (sorted by name); merging two
//! registries (e.g. per-worker registries from a parallel run) must be
//! associative and lossless for counters and timers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::keys::Key;

/// A shareable handle to one named monotonic counter.
///
/// Cloning is cheap (an `Arc` bump); increments are relaxed atomic adds.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub(crate) fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// One named timer: accumulated nanoseconds plus an activation count.
#[derive(Debug, Default)]
struct TimerCell {
    nanos: AtomicU64,
    activations: AtomicU64,
}

/// Thread-safe bank of named counters, timers, and gauges.
///
/// Handle acquisition (`Registry::counter`) takes a lock once; the
/// returned [`Counter`] is lock-free thereafter. All maps are `BTreeMap`s
/// so snapshots and serialized output are deterministically ordered.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    timers: Mutex<BTreeMap<String, Arc<TimerCell>>>,
    gauges: Mutex<BTreeMap<String, f64>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (creating on first use) the counter for `key`.
    pub(crate) fn counter(&self, key: Key) -> Counter {
        self.counter_named(key.as_str())
    }

    /// Adds `n` to the counter for `key` (handle-free convenience for
    /// cold paths; hot paths should hold a [`Counter`]).
    pub fn add(&self, key: Key, n: u64) {
        self.counter(key).add(n);
    }

    /// Sets the gauge for `key` (last write wins).
    pub fn set_gauge(&self, key: Key, value: f64) {
        self.set_gauge_named(key.as_str(), value);
    }

    /// Starts a scoped timer accumulating into `key` on drop.
    pub fn scoped_timer(&self, key: Key) -> ScopedTimer {
        self.start_timer(key.as_str())
    }

    /// Starts a scoped timer accumulating into `"{prefix}.{label}"`, for
    /// phases named at run time (one per topology, say).
    pub fn scoped_timer_labeled(&self, prefix: Key, label: &str) -> ScopedTimer {
        self.start_timer(&format!("{prefix}.{label}"))
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "phase timers measure wall time by design; manifests report them as timings, never as simulated numbers"
    )]
    fn start_timer(&self, name: &str) -> ScopedTimer {
        ScopedTimer {
            cell: self.timer_named(name),
            started: Instant::now(),
        }
    }

    /// Records an externally-measured duration into the timer for `key`.
    pub fn record_duration(&self, key: Key, duration: std::time::Duration) {
        let cell = self.timer_named(key.as_str());
        cell.nanos
            .fetch_add(duration.as_nanos() as u64, Ordering::Relaxed);
        cell.activations.fetch_add(1, Ordering::Relaxed);
    }

    // The by-name paths below serve `merge`, which copies names that were
    // keys when another registry recorded them, and the labeled timers.

    fn counter_named(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("registry lock");
        map.entry(name.to_string()).or_default().clone()
    }

    fn set_gauge_named(&self, name: &str, value: f64) {
        let mut map = self.gauges.lock().expect("registry lock");
        map.insert(name.to_string(), value);
    }

    fn timer_named(&self, name: &str) -> Arc<TimerCell> {
        let mut map = self.timers.lock().expect("registry lock");
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// A deterministic point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let timers = self
            .timers
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    (
                        v.nanos.load(Ordering::Relaxed),
                        v.activations.load(Ordering::Relaxed),
                    ),
                )
            })
            .collect();
        let gauges = self.gauges.lock().expect("registry lock").clone();
        Snapshot {
            counters,
            timers,
            gauges,
        }
    }
}

/// RAII wall-clock timer; accumulates into its registry slot on drop.
#[derive(Debug)]
pub struct ScopedTimer {
    cell: Arc<TimerCell>,
    started: Instant,
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        self.cell
            .nanos
            .fetch_add(self.started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.cell.activations.fetch_add(1, Ordering::Relaxed);
    }
}

/// Deterministically-ordered copy of a [`Registry`]'s contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub(crate) counters: BTreeMap<String, u64>,
    /// `(accumulated nanoseconds, activations)` by timer name.
    pub timers: BTreeMap<String, (u64, u64)>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
}

impl Snapshot {
    /// Counter value, or 0 if absent.
    pub fn counter(&self, key: Key) -> u64 {
        self.counters.get(key.as_str()).copied().unwrap_or(0)
    }

    /// Accumulated seconds in the timer for `key`, or 0.
    pub fn timer_secs(&self, key: Key) -> f64 {
        self.timers
            .get(key.as_str())
            .map(|&(nanos, _)| nanos as f64 / 1e9)
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
impl Counter {
    /// Adds one.
    #[inline]
    fn inc(&self) {
        self.add(1);
    }
}

#[cfg(test)]
impl Registry {
    /// Merges another registry into this one: counters and timers add;
    /// gauges take `other`'s value (last writer wins).
    fn merge(&self, other: &Registry) {
        let snap = other.snapshot();
        for (name, v) in &snap.counters {
            self.counter_named(name).add(*v);
        }
        for (name, (nanos, activations)) in &snap.timers {
            let cell = self.timer_named(name);
            cell.nanos.fetch_add(*nanos, Ordering::Relaxed);
            cell.activations.fetch_add(*activations, Ordering::Relaxed);
        }
        for (name, v) in &snap.gauges {
            self.set_gauge_named(name, *v);
        }
    }
}

/// Process-wide registry for call sites with no natural place to thread a
/// handle (one-shot examples, ad-hoc probes). Library code should prefer
/// an explicitly-passed [`Registry`].
#[cfg(test)]
fn global() -> &'static Registry {
    static GLOBAL: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys;

    #[test]
    fn counter_handle_and_name_share_storage() {
        let r = Registry::new();
        let c = r.counter(keys::DES_EVENTS);
        c.add(3);
        r.add(keys::DES_EVENTS, 4);
        assert_eq!(r.counter(keys::DES_EVENTS).get(), 7);
        assert_eq!(r.snapshot().counter(keys::DES_EVENTS), 7);
    }

    #[test]
    fn missing_names_read_zero() {
        let s = Registry::new().snapshot();
        assert_eq!(s.counter(keys::DES_EVENTS), 0);
        assert_eq!(s.timer_secs(keys::DES_EVENTS), 0.0);
    }

    #[test]
    fn scoped_timer_accumulates() {
        let r = Registry::new();
        for _ in 0..3 {
            let _t = r.scoped_timer(keys::REPLICA_RUN_STATIC);
            std::hint::black_box(());
        }
        let snap = r.snapshot();
        let (_nanos, activations) = snap.timers[keys::REPLICA_RUN_STATIC.as_str()];
        assert_eq!(activations, 3);
        assert!(snap.timer_secs(keys::REPLICA_RUN_STATIC) >= 0.0);
    }

    #[test]
    fn record_duration_is_explicit_path() {
        let r = Registry::new();
        r.record_duration(keys::CLUSTER_RUN, std::time::Duration::from_millis(5));
        r.record_duration(keys::CLUSTER_RUN, std::time::Duration::from_millis(7));
        let snap = r.snapshot();
        assert_eq!(snap.timers[keys::CLUSTER_RUN.as_str()].1, 2);
        assert!((snap.timer_secs(keys::CLUSTER_RUN) - 0.012).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counters_and_timers_overwrites_gauges() {
        let a = Registry::new();
        let b = Registry::new();
        a.add(keys::DES_EVENTS, 10);
        b.add(keys::DES_EVENTS, 5);
        b.add(keys::DES_ACCESSES, 1);
        a.record_duration(keys::CLUSTER_RUN, std::time::Duration::from_secs(1));
        b.record_duration(keys::CLUSTER_RUN, std::time::Duration::from_secs(2));
        a.set_gauge(keys::RUN_THREADS, 1.0);
        b.set_gauge(keys::RUN_THREADS, 9.0);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.counter(keys::DES_EVENTS), 15);
        assert_eq!(snap.counter(keys::DES_ACCESSES), 1);
        assert_eq!(snap.timers[keys::CLUSTER_RUN.as_str()], (3_000_000_000, 2));
        assert_eq!(snap.gauges[keys::RUN_THREADS.as_str()], 9.0);
    }

    #[test]
    fn merge_is_associative_for_counters() {
        let mk = |v: u64| {
            let r = Registry::new();
            r.add(keys::DES_EVENTS, v);
            r
        };
        let left = mk(1);
        left.merge(&mk(2));
        left.merge(&mk(4));
        let right = mk(1);
        let bc = mk(2);
        bc.merge(&mk(4));
        right.merge(&bc);
        assert_eq!(
            left.snapshot().counter(keys::DES_EVENTS),
            right.snapshot().counter(keys::DES_EVENTS)
        );
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let r = Registry::new();
        let c = r.counter(keys::DES_EVENTS);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(r.snapshot().counter(keys::DES_EVENTS), 80_000);
    }

    #[test]
    fn snapshot_is_sorted() {
        let r = Registry::new();
        r.add(keys::SHARD_OBJECTS, 1);
        r.add(keys::CACHE_HITS, 1);
        r.add(keys::MC_TRANSITIONS, 1);
        let snap = r.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(
            names,
            [
                "graph.component_cache.hits",
                "mc.transitions",
                "shard.objects"
            ]
        );
    }

    #[test]
    fn global_registry_is_shared() {
        global().add(keys::MC_MAX_DEPTH, 2);
        assert!(global().snapshot().counter(keys::MC_MAX_DEPTH) >= 2);
    }
}
