//! Dynamic quorum reassignment driven by on-line estimates (§4.3).
//!
//! [`AdaptiveQr`] wraps the QR protocol of §2.2 with the paper's feedback
//! loop: every access contributes its observed component votes to a
//! decayed histogram (the on-line `f̂` of §4.2) and its kind to an EWMA
//! estimate of the read ratio `α̂`; periodically the Figure-1 optimizer is
//! run on the estimates and, if the predicted gain is worth it, the new
//! assignment is installed through `QrProtocol::try_reassign` (which
//! enforces the write-quorum-under-the-old-assignment rule).
//!
//! [`run_adaptive`] drives the whole loop through a phased workload whose
//! read ratio shifts between phases — the "shifting pattern of data
//! access" scenario the paper argues dynamic reassignment exists for.

use crate::results::BatchStats;
use crate::simulation::{NullObserver, Simulation};
use crate::workload::Workload;
use quorum_core::optimal::optimal_quorum;
use quorum_core::{
    Access, AvailabilityModel, ConsistencyProtocol, Decision, QrProtocol, QuorumSpec,
    SearchStrategy, VoteAssignment,
};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_stats::{DecayedHistogram, VoteHistogram};

/// Tuning of the adaptive loop.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Accesses between optimization attempts.
    pub reassign_interval: u64,
    /// Decay factor of the vote histogram (effective window `1/(1−λ)`).
    pub decay: f64,
    /// Decay factor of the read-ratio EWMA.
    pub alpha_decay: f64,
    /// Minimum predicted availability gain before attempting a switch
    /// (avoids thrashing on noise).
    pub min_gain: f64,
    /// Optimizer search strategy.
    pub strategy: SearchStrategy,
    /// Observations required before the first reassignment attempt.
    /// Should be close to the decay window `1/(1−λ)` (the weight's upper
    /// bound): the simulation starts from the biased all-up state, and
    /// optimizing on early observations installs assignments tuned to a
    /// network that is about to degrade.
    pub min_observations: f64,
    /// Optional §5.4 write-availability floor applied to candidate
    /// assignments. Besides guaranteeing write throughput, this keeps the
    /// protocol *re-assignable*: installing an assignment whose `q_w` is
    /// almost never attainable (e.g. read-one/write-all on a flaky ring)
    /// would freeze the QR protocol, since the next change needs a
    /// component holding the old `q_w`.
    pub write_floor: Option<f64>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            reassign_interval: 1_000,
            decay: 0.999,
            alpha_decay: 0.995,
            min_gain: 0.01,
            strategy: SearchStrategy::Exhaustive,
            // 90% of the decay window (= 1000 observations): the weight
            // reaches this around access ~2300, by which time the
            // alternating-renewal processes have mixed to steady state.
            min_observations: 900.0,
            write_floor: None,
        }
    }
}

/// The QR protocol + estimator feedback loop as a [`ConsistencyProtocol`].
#[derive(Debug, Clone)]
pub struct AdaptiveQr {
    qr: QrProtocol,
    hist: DecayedHistogram,
    alpha_est: f64,
    accesses: u64,
    cfg: AdaptiveConfig,
    attempts: u64,
    successes: u64,
}

impl AdaptiveQr {
    /// Starts from `initial` with an empty estimator.
    pub fn new(votes: VoteAssignment, initial: QuorumSpec, cfg: AdaptiveConfig) -> Self {
        let total = votes.total() as usize;
        Self {
            qr: QrProtocol::new(votes, initial),
            hist: DecayedHistogram::new(total, cfg.decay),
            alpha_est: 0.5,
            accesses: 0,
            cfg,
            attempts: 0,
            successes: 0,
        }
    }

    /// Successful reassignments so far.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    fn maybe_reassign(&mut self, members: &[usize]) {
        if members.is_empty() || self.hist.weight() < self.cfg.min_observations {
            return;
        }
        let d = self.hist.estimate();
        let model = AvailabilityModel::from_mixtures(&d, &d);
        let opt = match self.cfg.write_floor {
            // Infeasible floor (estimates too pessimistic): hold position.
            Some(floor) => match quorum_core::optimal::optimal_with_write_floor(
                &model,
                self.alpha_est,
                floor,
                self.cfg.strategy,
            ) {
                Some(o) => o,
                None => return,
            },
            None => optimal_quorum(&model, self.alpha_est, self.cfg.strategy),
        };
        let Some(current) = self.qr.effective(members) else {
            return;
        };
        if opt.spec == current.spec {
            return;
        }
        // Predicted availability of the *current* assignment under the
        // same estimates (computed from the tails directly: the current
        // q_r may sit outside the optimizer's 1..=⌊T/2⌋ domain, e.g. an
        // odd-T majority).
        let cur_value = self.alpha_est * model.read_availability(current.spec.q_r())
            + (1.0 - self.alpha_est) * model.write_availability(current.spec.q_w());
        if opt.availability - cur_value < self.cfg.min_gain {
            return;
        }
        self.attempts += 1;
        if self.qr.try_reassign(members, opt.spec).is_ok() {
            self.successes += 1;
        }
    }
}

impl ConsistencyProtocol for AdaptiveQr {
    fn can_grant(&self, kind: Access, members: &[usize], votes: u64) -> bool {
        self.qr.can_grant(kind, members, votes)
    }

    fn drain_refreshes(&mut self) -> Vec<Vec<usize>> {
        self.qr.drain_refreshes()
    }

    fn decide(&mut self, kind: Access, members: &[usize], votes: u64) -> Decision {
        self.accesses += 1;
        self.hist.record(votes as usize);
        let is_read = matches!(kind, Access::Read);
        self.alpha_est = self.cfg.alpha_decay * self.alpha_est
            + (1.0 - self.cfg.alpha_decay) * if is_read { 1.0 } else { 0.0 };
        if self.accesses.is_multiple_of(self.cfg.reassign_interval) {
            self.maybe_reassign(members);
        }
        self.qr.decide(kind, members, votes)
    }

    fn total_votes(&self) -> u64 {
        self.qr.total_votes()
    }
}

/// One phase of a shifting workload.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Read ratio during the phase.
    pub alpha: f64,
    /// Measured accesses in the phase.
    pub(crate) accesses: u64,
}

impl Phase {
    /// A phase of `accesses` measured accesses at read ratio `alpha`.
    pub fn new(alpha: f64, accesses: u64) -> Self {
        Self { alpha, accesses }
    }
}

/// Outcome of one phase.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// The phase definition.
    pub phase: Phase,
    /// Measured statistics.
    pub stats: BatchStats,
    /// Cumulative successful reassignments at the end of the phase.
    pub reassignments: u64,
    /// The assignment in force (highest-versioned) at the end of the phase.
    pub final_spec: QuorumSpec,
}

/// Runs a phased workload under any protocol, preserving protocol state
/// across phases (the network itself resets to all-up at each phase
/// boundary and re-warms briefly).
pub fn run_phased<P: ConsistencyProtocol>(
    topology: &Topology,
    base_params: SimParams,
    phases: &[Phase],
    protocol: &mut P,
    seed: u64,
) -> Vec<(Phase, BatchStats)> {
    let n = topology.num_sites();
    let mut out = Vec::with_capacity(phases.len());
    for (i, ph) in phases.iter().enumerate() {
        let params = SimParams {
            batch_accesses: ph.accesses,
            ..base_params
        };
        let mut sim = Simulation::new(topology, params, Workload::uniform(n, ph.alpha), seed);
        let stats = sim.run_indexed_batch(protocol, &mut NullObserver, i as u64);
        out.push((*ph, stats));
    }
    out
}

/// Runs the adaptive QR loop through `phases`, returning per-phase results.
pub fn run_adaptive(
    topology: &Topology,
    base_params: SimParams,
    phases: &[Phase],
    initial: QuorumSpec,
    cfg: AdaptiveConfig,
    seed: u64,
) -> Vec<PhaseResult> {
    let n = topology.num_sites();
    let mut proto = AdaptiveQr::new(VoteAssignment::uniform(n), initial, cfg);
    let mut results = Vec::with_capacity(phases.len());
    for (phase, stats) in run_phased(topology, base_params, phases, &mut proto, seed) {
        let all: Vec<usize> = (0..n).collect();
        results.push(PhaseResult {
            phase,
            stats,
            reassignments: proto.successes(),
            final_spec: proto.qr.effective_spec(&all),
        });
    }
    results
}

#[cfg(test)]
impl AdaptiveQr {
    /// Current read-ratio estimate `α̂`.
    fn alpha_estimate(&self) -> f64 {
        self.alpha_est
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SimParams {
        SimParams {
            warmup_accesses: 500,
            batch_accesses: 10_000,
            ..SimParams::paper()
        }
    }

    #[test]
    fn alpha_estimate_tracks_workload() {
        let topo = Topology::ring_with_chords(15, 4);
        let mut proto = AdaptiveQr::new(
            VoteAssignment::uniform(15),
            QuorumSpec::majority(15),
            AdaptiveConfig::default(),
        );
        run_phased(&topo, params(), &[Phase::new(0.9, 5_000)], &mut proto, 3);
        assert!(
            (proto.alpha_estimate() - 0.9).abs() < 0.1,
            "α̂ = {}",
            proto.alpha_estimate()
        );
    }

    #[test]
    fn adaptive_reassigns_toward_reads_on_ring() {
        // On a ring (tiny components) with a read-heavy workload the
        // optimizer strongly prefers small q_r; starting from majority,
        // the adaptive loop should install a smaller read quorum.
        let topo = Topology::ring(15);
        let results = run_adaptive(
            &topo,
            params(),
            &[Phase::new(1.0, 20_000)],
            QuorumSpec::majority(15),
            AdaptiveConfig::default(),
            9,
        );
        let last = results.last().unwrap();
        assert!(last.reassignments >= 1, "no reassignment happened");
        assert!(
            last.final_spec.q_r() < QuorumSpec::majority(15).q_r(),
            "final spec {:?} should favor reads",
            last.final_spec
        );
    }

    #[test]
    fn adaptive_beats_static_after_alpha_shift() {
        // Static protocol stays at the majority assignment; adaptive
        // follows the workload to read-one when α jumps to 1 on a ring,
        // where majority reads almost never reach 8 of 15 votes.
        let topo = Topology::ring(15);
        let phases = [Phase::new(0.0, 8_000), Phase::new(1.0, 20_000)];
        let adaptive = run_adaptive(
            &topo,
            params(),
            &phases,
            QuorumSpec::majority(15),
            AdaptiveConfig::default(),
            4,
        );
        let mut static_proto = quorum_core::QuorumConsensus::majority(15);
        let static_runs = run_phased(&topo, params(), &phases, &mut static_proto, 4);

        let a = adaptive[1].stats.availability();
        let s = static_runs[1].1.availability();
        assert!(
            a > s + 0.1,
            "adaptive ({a}) should clearly beat static ({s}) after the shift"
        );
    }

    #[test]
    fn adaptive_respects_min_gain() {
        // With an enormous min_gain nothing should ever be reassigned.
        let topo = Topology::ring(15);
        let results = run_adaptive(
            &topo,
            params(),
            &[Phase::new(1.0, 10_000)],
            QuorumSpec::majority(15),
            AdaptiveConfig {
                min_gain: 10.0,
                ..AdaptiveConfig::default()
            },
            5,
        );
        assert_eq!(results.last().unwrap().reassignments, 0);
    }

    #[test]
    fn write_floor_keeps_assignments_reassignable() {
        // Without a floor the controller may install a near-ROWA spec
        // whose q_w is unattainable on a ring, freezing QR. With a floor,
        // every installed spec keeps W(q_w) reasonably reachable.
        let topo = Topology::ring(15);
        let results = run_adaptive(
            &topo,
            params(),
            &[Phase::new(1.0, 15_000), Phase::new(0.0, 15_000)],
            QuorumSpec::majority(15),
            AdaptiveConfig {
                write_floor: Some(0.25),
                ..AdaptiveConfig::default()
            },
            12,
        );
        for r in &results {
            // The floor bounds q_w away from T (ROWA would be q_w = 15).
            assert!(
                r.final_spec.q_w() < 15,
                "installed spec {:?} violates the floor's intent",
                r.final_spec
            );
            assert_eq!(r.stats.stale_reads, 0);
            assert_eq!(r.stats.write_conflicts, 0);
        }
    }

    #[test]
    fn adaptive_is_one_copy_serializable() {
        let topo = Topology::ring_with_chords(15, 2);
        let results = run_adaptive(
            &topo,
            params(),
            &[Phase::new(0.2, 8_000), Phase::new(0.9, 8_000)],
            QuorumSpec::majority(15),
            AdaptiveConfig::default(),
            6,
        );
        for r in &results {
            assert_eq!(r.stats.stale_reads, 0, "QR must preserve 1SR");
        }
    }
}
