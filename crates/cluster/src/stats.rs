//! Per-batch accounting of the cluster engine: outcomes, message and
//! retry counters, session-latency histograms, and goodput.

use quorum_core::Access;
use quorum_obs::{keys, HistogramRecord, Registry};

/// Client-visible resolution of one quorum session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The quorum was gathered (and, for writes, the commit was
    /// acknowledged by a write quorum).
    Committed,
    /// Every retry round timed out before a quorum was gathered.
    TimedOut,
    /// The submitting site was down at dispatch; no session was opened.
    Unavailable,
}

/// A fixed-bucket latency histogram (bounds are upper edges; one extra
/// overflow bucket). Mirrors [`quorum_obs::HistogramRecord`] semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
}

impl LatencyHistogram {
    /// Creates a histogram with the given ascending bucket upper edges.
    pub(crate) fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
        }
    }

    /// Records one latency observation.
    ///
    /// Latencies are differences of simulation timestamps, so a NaN or
    /// infinity here means an upstream arithmetic bug — it would poison
    /// `sum` (and every mean derived from it) silently.
    pub(crate) fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite latency recorded: {x}");
        let idx = self
            .bounds
            .iter()
            .position(|&b| x < b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += x;
    }

    /// Total observations.
    pub(crate) fn observations(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean latency (0 with no observations).
    pub fn mean(&self) -> f64 {
        let n = self.observations();
        if n == 0 {
            0.0
        } else {
            self.sum / n as f64
        }
    }

    /// Sum of every recorded latency.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Converts to a manifest record under `key`.
    pub(crate) fn to_record(&self, key: quorum_obs::Key) -> HistogramRecord {
        HistogramRecord {
            name: key.as_str().to_string(),
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
        }
    }

    /// Accumulates another histogram (bounds must match).
    pub(crate) fn merge(&mut self, other: &Self) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
    }
}

/// Everything one cluster batch measures.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Measured read sessions submitted.
    pub reads_submitted: u64,
    /// Measured write sessions submitted.
    pub writes_submitted: u64,
    /// Measured reads committed.
    pub reads_committed: u64,
    /// Measured writes committed.
    pub writes_committed: u64,
    /// Measured reads that exhausted their retries.
    pub reads_timed_out: u64,
    /// Measured writes that exhausted their retries.
    pub writes_timed_out: u64,
    /// Measured reads whose origin was down at dispatch.
    pub reads_unavailable: u64,
    /// Measured writes whose origin was down at dispatch.
    pub writes_unavailable: u64,
    /// Messages sent (all sessions, warm-up included, retries included).
    pub messages_sent: u64,
    /// Messages delivered to their destination.
    pub messages_delivered: u64,
    /// Messages lost (Bernoulli loss or partitioned at delivery).
    pub messages_dropped: u64,
    /// Retry rounds dispatched after a timeout.
    pub retries: u64,
    /// Session timers voided before firing (session resolved first).
    pub timers_cancelled: u64,
    /// Sessions opened (warm-up included).
    pub sessions_opened: u64,
    /// Scripted or piggybacked assignment adoptions applied at sites.
    pub installs_applied: u64,
    /// Retry rounds that adopted a different assignment epoch and
    /// therefore discarded their accumulated pledges (re-seeding the
    /// coordinator's own votes) — the headline cross-epoch-mixing fix.
    pub cross_epoch_resets: u64,
    /// Phase-1 pledges ignored because they were granted under a
    /// different assignment epoch than the session's.
    pub stale_grants_ignored: u64,
    /// Committed reads that returned a version older than the newest
    /// write committed before the read started. Must stay 0 under the
    /// safe two-phase protocol.
    pub freshness_violations: u64,
    /// Site up/down transitions applied.
    pub site_transitions: u64,
    /// Link up/down transitions applied.
    pub link_transitions: u64,
    /// Events popped from the queue.
    pub events_processed: u64,
    /// Topology events the incremental kernel absorbed by merging
    /// components (zero when the kernel is disabled).
    pub delta_merges: u64,
    /// Site failures in multi-site components, and link failures that
    /// split a component.
    pub delta_rescans: u64,
    /// Topology events that needed no re-partitioning.
    pub delta_noops: u64,
    /// Topology events absorbed by a from-scratch kernel rebuild.
    pub full_recomputes: u64,
    /// Latency of committed measured reads (submit → commit).
    pub read_latency: LatencyHistogram,
    /// Latency of committed measured writes (submit → commit).
    pub write_latency: LatencyHistogram,
    /// Simulated time from the first measured dispatch to batch drain.
    pub measured_duration: f64,
    /// Per-access outcome sequence in submission order (only populated
    /// when [`crate::ClusterConfig::record_outcomes`] is set; one slot
    /// per measured access, `None` until the session resolves).
    pub outcomes: Vec<Option<(Access, Outcome)>>,
}

impl ClusterStats {
    /// Creates empty stats with the given latency bucket edges.
    pub fn new(latency_bounds: &[f64]) -> Self {
        Self {
            reads_submitted: 0,
            writes_submitted: 0,
            reads_committed: 0,
            writes_committed: 0,
            reads_timed_out: 0,
            writes_timed_out: 0,
            reads_unavailable: 0,
            writes_unavailable: 0,
            messages_sent: 0,
            messages_delivered: 0,
            messages_dropped: 0,
            retries: 0,
            timers_cancelled: 0,
            sessions_opened: 0,
            installs_applied: 0,
            cross_epoch_resets: 0,
            stale_grants_ignored: 0,
            freshness_violations: 0,
            site_transitions: 0,
            link_transitions: 0,
            events_processed: 0,
            delta_merges: 0,
            delta_rescans: 0,
            delta_noops: 0,
            full_recomputes: 0,
            read_latency: LatencyHistogram::new(latency_bounds),
            write_latency: LatencyHistogram::new(latency_bounds),
            measured_duration: 0.0,
            outcomes: Vec::new(),
        }
    }

    /// Measured sessions submitted.
    pub fn submitted(&self) -> u64 {
        self.reads_submitted + self.writes_submitted
    }

    /// Measured sessions committed.
    pub fn committed(&self) -> u64 {
        self.reads_committed + self.writes_committed
    }

    /// ACC: fraction of measured sessions that committed.
    pub(crate) fn availability(&self) -> f64 {
        if self.submitted() == 0 {
            0.0
        } else {
            self.committed() as f64 / self.submitted() as f64
        }
    }

    /// Read-only ACC.
    pub fn read_availability(&self) -> f64 {
        if self.reads_submitted == 0 {
            0.0
        } else {
            self.reads_committed as f64 / self.reads_submitted as f64
        }
    }

    /// Write-only ACC.
    pub fn write_availability(&self) -> f64 {
        if self.writes_submitted == 0 {
            0.0
        } else {
            self.writes_committed as f64 / self.writes_submitted as f64
        }
    }

    /// Committed sessions per unit simulated time over the measured
    /// window (0 if the window is empty).
    pub fn goodput(&self) -> f64 {
        if self.measured_duration <= 0.0 {
            0.0
        } else {
            self.committed() as f64 / self.measured_duration
        }
    }

    /// Accumulates another batch (outcome sequences are not merged —
    /// they are a single-batch debugging/validation artifact).
    pub(crate) fn merge(&mut self, other: &Self) {
        self.reads_submitted += other.reads_submitted;
        self.writes_submitted += other.writes_submitted;
        self.reads_committed += other.reads_committed;
        self.writes_committed += other.writes_committed;
        self.reads_timed_out += other.reads_timed_out;
        self.writes_timed_out += other.writes_timed_out;
        self.reads_unavailable += other.reads_unavailable;
        self.writes_unavailable += other.writes_unavailable;
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.messages_dropped += other.messages_dropped;
        self.retries += other.retries;
        self.timers_cancelled += other.timers_cancelled;
        self.sessions_opened += other.sessions_opened;
        self.installs_applied += other.installs_applied;
        self.cross_epoch_resets += other.cross_epoch_resets;
        self.stale_grants_ignored += other.stale_grants_ignored;
        self.freshness_violations += other.freshness_violations;
        self.site_transitions += other.site_transitions;
        self.link_transitions += other.link_transitions;
        self.events_processed += other.events_processed;
        self.delta_merges += other.delta_merges;
        self.delta_rescans += other.delta_rescans;
        self.delta_noops += other.delta_noops;
        self.full_recomputes += other.full_recomputes;
        self.read_latency.merge(&other.read_latency);
        self.write_latency.merge(&other.write_latency);
        self.measured_duration += other.measured_duration;
    }

    /// Publishes the counters into a registry under the
    /// [`quorum_obs::keys`] names.
    pub(crate) fn observe_into(&self, registry: &Registry) {
        registry.add(keys::CLUSTER_READS_SUBMITTED, self.reads_submitted);
        registry.add(keys::CLUSTER_WRITES_SUBMITTED, self.writes_submitted);
        registry.add(keys::CLUSTER_MESSAGES_SENT, self.messages_sent);
        registry.add(keys::CLUSTER_MESSAGES_DELIVERED, self.messages_delivered);
        registry.add(keys::CLUSTER_MESSAGES_DROPPED, self.messages_dropped);
        registry.add(keys::CLUSTER_SESSIONS, self.sessions_opened);
        registry.add(keys::CLUSTER_RETRIES, self.retries);
        registry.add(keys::CLUSTER_COMMITTED, self.committed());
        registry.add(
            keys::CLUSTER_TIMED_OUT,
            self.reads_timed_out + self.writes_timed_out,
        );
        registry.add(
            keys::CLUSTER_UNAVAILABLE,
            self.reads_unavailable + self.writes_unavailable,
        );
        registry.add(keys::CLUSTER_TIMERS_CANCELLED, self.timers_cancelled);
        registry.add(keys::CLUSTER_CROSS_EPOCH_RESETS, self.cross_epoch_resets);
        registry.add(
            keys::CLUSTER_STALE_GRANTS_IGNORED,
            self.stale_grants_ignored,
        );
        registry.add(keys::DES_EVENTS, self.events_processed);
        registry.add(keys::DES_SITE_TRANSITIONS, self.site_transitions);
        registry.add(keys::DES_LINK_TRANSITIONS, self.link_transitions);
        registry.add(keys::DELTA_MERGES, self.delta_merges);
        registry.add(keys::DELTA_RESCANS, self.delta_rescans);
        registry.add(keys::DELTA_NOOPS, self.delta_noops);
        registry.add(keys::FULL_RECOMPUTES, self.full_recomputes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let mut h = LatencyHistogram::new(&[0.1, 0.5]);
        h.record(0.05);
        h.record(0.2);
        h.record(0.3);
        h.record(9.0);
        assert_eq!(h.counts(), &[1, 2, 1]);
        assert_eq!(h.observations(), 4);
        assert!((h.mean() - (0.05 + 0.2 + 0.3 + 9.0) / 4.0).abs() < 1e-12);
        let rec = h.to_record(keys::CLUSTER_READ_LATENCY);
        assert_eq!(rec.observations(), 4);
        assert_eq!(rec.counts.len(), rec.bounds.len() + 1);
    }

    #[test]
    fn merge_adds_everything() {
        let bounds = [0.1];
        let mut a = ClusterStats::new(&bounds);
        let mut b = ClusterStats::new(&bounds);
        a.reads_submitted = 10;
        a.reads_committed = 9;
        b.reads_submitted = 10;
        b.reads_committed = 7;
        b.messages_sent = 55;
        a.merge(&b);
        assert_eq!(a.reads_submitted, 20);
        assert_eq!(a.reads_committed, 16);
        assert_eq!(a.messages_sent, 55);
        assert!((a.availability() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn availability_handles_empty() {
        let s = ClusterStats::new(&[0.1]);
        assert_eq!(s.availability(), 0.0);
        assert_eq!(s.goodput(), 0.0);
    }
}
