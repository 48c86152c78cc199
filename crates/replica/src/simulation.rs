//! The steady-state discrete-event simulation of one batch (§5.2).
//!
//! Event model:
//!
//! * every site and link runs an alternating up/down renewal process
//!   (`μ_f = μ_t/ρ`, `μ_r` from the 96 % reliability identity);
//! * accesses arrive as the superposition of the per-site Poisson streams —
//!   an aggregate Poisson process of rate `n/μ_t` whose submitting site is
//!   drawn from the workload's `r_i`/`w_i` distribution;
//! * all events are instantaneous; the connectivity kernel absorbs each
//!   failure/recovery as it happens, and an access reads its component
//!   straight from the kernel.
//!
//! The first `warmup_accesses` accesses after the all-up initial state are
//! discarded; the next `batch_accesses` are measured.

use crate::failure::{FailureWorld, Transition};
use crate::object::SerializabilityChecker;
use crate::results::BatchStats;
use crate::workload::Workload;
use quorum_core::{Access, ConsistencyProtocol, Decision, SiteEstimators, VoteAssignment};
use quorum_des::{EventQueue, PoissonProcess, SimParams, SimTime};
use quorum_graph::{BitSet, DeltaConnectivity, Topology};
use quorum_stats::rng::{derive_seed, rng_from_seed};
use quorum_stats::VoteHistogram;
use rand::rngs::StdRng;

/// One scheduled simulation event.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A site or link toggles up/down.
    Failure(Transition),
    /// An access arrives (kind and site sampled at dispatch).
    Access,
}

impl From<Transition> for Event {
    fn from(transition: Transition) -> Self {
        Self::Failure(transition)
    }
}

/// What the access path needs from one component beyond the kernel's
/// own reads, per kernel slot: the ascending member list (the `&[usize]`
/// the protocol and the observer take). An entry is filled on first use
/// and keyed by the slot's generation, so it stays valid across every
/// event that left its slot alone and is refilled only after the slot's
/// members moved.
#[derive(Default)]
struct ComponentMemo {
    entries: Vec<MemoEntry>,
}

/// One slot's memo entry; generation 0 (never stamped by the kernel)
/// marks it unfilled.
#[derive(Default)]
struct MemoEntry {
    generation: u64,
    members: Vec<usize>,
}

impl ComponentMemo {
    /// Member list of the component in `slot`, refilling the entry if
    /// the slot's generation moved.
    fn members(&mut self, partition: &DeltaConnectivity, slot: u32) -> &[usize] {
        let s = slot as usize;
        if s >= self.entries.len() {
            self.entries.resize_with(s + 1, MemoEntry::default);
        }
        let entry = &mut self.entries[s];
        let generation = partition.slot_generation(slot);
        if entry.generation != generation {
            entry.generation = generation;
            entry.members.clear();
            entry
                .members
                .extend(partition.slot_members(slot).iter_ones());
        }
        &entry.members
    }
}

/// A single-batch simulation of one topology.
///
/// Reusable across batches via [`Simulation::run_batch`], which resets the
/// network to the all-up initial state first (§5.2: "the network is reset
/// to the initial state before each batch").
pub struct Simulation<'a> {
    topology: &'a Topology,
    params: SimParams,
    votes: VoteAssignment,
    workload: Workload,
    master_seed: u64,
    batches_run: u64,
    probe_survivability: bool,
    time_weighted: bool,
}

/// Observer hooks invoked on every access. The per-site `f̂` bank
/// ([`SiteEstimators`]) is one; the no-op observer serves static runs.
pub trait AccessObserver {
    /// Called for every access *after* the decision, with the submitting
    /// site, its component members (empty if down), the component votes,
    /// the access kind, the decision, and the measured-access index
    /// (0-based within the batch; warm-up accesses report `None`).
    ///
    /// `members` is in ascending site order and is borrowed only for the
    /// call: the simulator reuses its storage, so copy it to keep it.
    fn on_access(
        &mut self,
        site: usize,
        members: &[usize],
        votes: u64,
        kind: Access,
        decision: Decision,
        measured_index: Option<u64>,
    );
}

/// No-op observer.
pub struct NullObserver;

impl AccessObserver for NullObserver {
    fn on_access(
        &mut self,
        _site: usize,
        _members: &[usize],
        _votes: u64,
        _kind: Access,
        _decision: Decision,
        _measured_index: Option<u64>,
    ) {
    }
}

/// The §4.2 on-line estimator: each measured access adds the submitting
/// site's component votes (0 if it is down) to that site's `f̂_i`.
/// Warm-up accesses are not recorded.
impl<H: VoteHistogram> AccessObserver for SiteEstimators<H> {
    fn on_access(
        &mut self,
        site: usize,
        _members: &[usize],
        votes: u64,
        _kind: Access,
        _decision: Decision,
        measured_index: Option<u64>,
    ) {
        if measured_index.is_some() {
            self.record(site, votes);
        }
    }
}

impl<'a> Simulation<'a> {
    /// Creates a simulation with uniform one-vote-per-site assignment.
    pub fn new(
        topology: &'a Topology,
        params: SimParams,
        workload: Workload,
        master_seed: u64,
    ) -> Self {
        Self::with_votes(
            topology,
            params,
            VoteAssignment::uniform(topology.num_sites()),
            workload,
            master_seed,
        )
    }

    /// Creates a simulation with an explicit vote assignment.
    ///
    /// # Panics
    /// Panics on inconsistent dimensions or invalid parameters.
    pub fn with_votes(
        topology: &'a Topology,
        params: SimParams,
        votes: VoteAssignment,
        workload: Workload,
        master_seed: u64,
    ) -> Self {
        params.validate();
        assert_eq!(
            votes.num_sites(),
            topology.num_sites(),
            "vote assignment must cover every site"
        );
        assert_eq!(
            workload.num_sites(),
            topology.num_sites(),
            "workload must cover every site"
        );
        Self {
            topology,
            params,
            votes,
            workload,
            master_seed,
            batches_run: 0,
            probe_survivability: false,
            time_weighted: false,
        }
    }

    /// Enables time-weighted vote accounting: between events, every site's
    /// component votes accrue duration-weighted mass. Used to verify PASTA
    /// (Poisson arrivals see time averages): the access-sampled histogram
    /// must match this time average. Costs O(n) per event.
    pub fn time_weighted(mut self, enable: bool) -> Self {
        self.time_weighted = enable;
        self
    }

    /// Enables per-access SURV probing: at every measured access the
    /// simulator asks every component (via the protocol's non-mutating
    /// [`ConsistencyProtocol::can_grant`]) whether it could serve the
    /// access, populating [`BatchStats::surv_possible`]. Costs an extra
    /// O(n) per access.
    pub fn probe_survivability(mut self, enable: bool) -> Self {
        self.probe_survivability = enable;
        self
    }

    /// The vote assignment.
    pub fn votes(&self) -> &VoteAssignment {
        &self.votes
    }

    /// Runs one warm-up + measurement batch under `protocol`, invoking
    /// `observer` on every access. Each batch uses an independent seed
    /// derived from the master seed and the batch index.
    pub fn run_batch<P: ConsistencyProtocol>(
        &mut self,
        protocol: &mut P,
        observer: &mut dyn AccessObserver,
    ) -> BatchStats {
        let batch_index = self.batches_run;
        self.batches_run += 1;
        self.run_indexed_batch(protocol, observer, batch_index)
    }

    /// Runs the batch with an explicit index (parallel runners assign
    /// disjoint indices to worker threads).
    pub fn run_indexed_batch<P: ConsistencyProtocol>(
        &mut self,
        protocol: &mut P,
        observer: &mut dyn AccessObserver,
        batch_index: u64,
    ) -> BatchStats {
        let n = self.topology.num_sites();
        let total_votes = self.votes.total() as usize;
        let seed = derive_seed(self.master_seed, batch_index);

        // Independent RNG streams: failures (stream 1, inside the world),
        // accesses, workload choices.
        let mut access_rng: StdRng = rng_from_seed(derive_seed(seed, 2));
        let mut workload_rng: StdRng = rng_from_seed(derive_seed(seed, 3));

        let mut world = FailureWorld::new(self.topology, self.votes.as_slice(), &self.params, seed);
        let mut checker = SerializabilityChecker::new(n);
        let mut stats = BatchStats::new(total_votes);
        let mut queue = EventQueue::new();

        // Schedule the first transition of every component.
        world.schedule_initial(&mut queue);
        // Aggregate access process: rate n/μ_t.
        let access_proc = PoissonProcess::new(n as f64 / self.params.mu_access);
        queue.schedule(
            SimTime::new(access_proc.next_gap(&mut access_rng)),
            Event::Access,
        );

        let warmup = self.params.warmup_accesses;
        let target = warmup + self.params.batch_accesses;
        let mut accesses_seen = 0u64;
        let mut memo = ComponentMemo::default();
        let no_members = BitSet::new(n);

        let mut last_time = SimTime::ZERO;
        while accesses_seen < target {
            let (t, ev) = queue.pop().expect("regenerative streams never drain");
            if self.time_weighted && accesses_seen >= warmup {
                let dt = t - last_time;
                if dt > 0.0 {
                    let partition = world.partition();
                    for site in 0..n {
                        stats.time_weighted_votes[partition.votes_of(site) as usize] += dt;
                    }
                    stats.measured_time += dt;
                }
            }
            last_time = t;
            match ev {
                Event::Failure(transition) => world.apply(transition, &mut queue),
                Event::Access => {
                    accesses_seen += 1;
                    queue.schedule_in(access_proc.next_gap(&mut access_rng), Event::Access);

                    let (kind, site) = self.workload.sample(&mut workload_rng);
                    let partition = world.partition();
                    let votes = partition.votes_of(site);
                    let largest = partition.largest_votes();
                    // The SURV probe asks every component, each answered
                    // from its memo entry.
                    let surv = self.probe_survivability
                        && partition.live_slots().any(|slot| {
                            let members = memo.members(partition, slot);
                            protocol.can_grant(kind, members, partition.slot_votes(slot))
                        });
                    // A site that is down, or whose component holds no
                    // votes, accesses with no members.
                    let (members, member_bits) = if votes > 0 {
                        let slot = partition.slot_of(site);
                        (memo.members(partition, slot), partition.slot_members(slot))
                    } else {
                        (&[][..], &no_members)
                    };
                    // The 1SR checker tracks *all* granted accesses —
                    // consistency must hold during warm-up too.
                    let (decision, consistent) =
                        checker.access(protocol, kind, members, member_bits, votes);

                    let measured = accesses_seen > warmup;
                    if measured {
                        if surv {
                            stats.surv_possible += 1;
                        }
                        stats.record_access(
                            kind,
                            votes,
                            largest,
                            decision.is_granted(),
                            consistent,
                        );
                    }
                    observer.on_access(
                        site,
                        members,
                        votes,
                        kind,
                        decision,
                        measured.then(|| accesses_seen - warmup - 1),
                    );
                }
            }
        }
        stats.site_transitions = world.site_transitions();
        stats.link_transitions = world.link_transitions();
        let network = world.network();
        stats.cache_recomputations = network.recomputations();
        stats.cache_hits = network.hits();
        let delta = network.delta_counters();
        stats.delta_merges = delta.merges;
        stats.delta_rescans = delta.rescans;
        stats.delta_noops = delta.noops;
        stats.full_recomputes = delta.full_recomputes;
        stats.events_processed = queue.popped();
        stats.accesses_dispatched = accesses_seen;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::{QuorumConsensus, QuorumSpec};

    fn quick_params() -> SimParams {
        SimParams {
            warmup_accesses: 500,
            batch_accesses: 4_000,
            ..SimParams::paper()
        }
    }

    #[test]
    fn batch_counts_add_up() {
        let topo = Topology::ring(11);
        let mut sim = Simulation::new(&topo, quick_params(), Workload::uniform(11, 0.5), 1);
        let mut proto = QuorumConsensus::new(VoteAssignment::uniform(11), QuorumSpec::majority(11));
        let mut bank = SiteEstimators::counting(11, 11);
        let stats = sim.run_batch(&mut proto, &mut bank);
        assert_eq!(stats.submitted(), 4_000);
        assert!(stats.granted() <= stats.submitted());
        assert_eq!(stats.access_votes().observations(), stats.submitted());
        assert_eq!(stats.largest_votes.observations(), 4_000);
        let bank_weight: f64 = (0..11).map(|site| bank.weight(site)).sum();
        assert_eq!(bank_weight, stats.submitted() as f64);
    }

    #[test]
    fn site_bank_skips_warm_up_accesses() {
        // A long warm-up and a short batch: recording warm-up accesses
        // would more than triple the bank's weight.
        let topo = Topology::ring(7);
        let params = SimParams {
            warmup_accesses: 2_000,
            batch_accesses: 600,
            ..SimParams::paper()
        };
        let mut sim = Simulation::new(&topo, params, Workload::uniform(7, 0.5), 12);
        let mut proto = QuorumConsensus::majority(7);
        let mut bank = SiteEstimators::counting(7, 7);
        let stats = sim.run_batch(&mut proto, &mut bank);
        assert_eq!(stats.accesses_dispatched, 2_600);
        let bank_weight: f64 = (0..7).map(|site| bank.weight(site)).sum();
        assert_eq!(bank_weight, 600.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = Topology::ring_with_chords(11, 3);
        let run = |seed| {
            let mut sim = Simulation::new(&topo, quick_params(), Workload::uniform(11, 0.25), seed);
            let mut proto = QuorumConsensus::new(
                VoteAssignment::uniform(11),
                QuorumSpec::from_read_quorum(2, 11).unwrap(),
            );
            let s = sim.run_batch(&mut proto, &mut NullObserver);
            (s.reads_granted, s.writes_granted, s.granted())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn batches_are_independent_streams() {
        let topo = Topology::ring(9);
        let mut sim = Simulation::new(&topo, quick_params(), Workload::uniform(9, 0.5), 3);
        let mut proto = QuorumConsensus::majority(9);
        let a = sim.run_batch(&mut proto, &mut NullObserver);
        let b = sim.run_batch(&mut proto, &mut NullObserver);
        assert_ne!(
            (a.reads_granted, a.writes_granted),
            (b.reads_granted, b.writes_granted),
            "consecutive batches must not replay the same randomness"
        );
    }

    #[test]
    fn valid_quorums_are_one_copy_serializable() {
        let topo = Topology::ring_with_chords(15, 4);
        for q_r in [1u64, 3, 7] {
            let mut sim = Simulation::new(&topo, quick_params(), Workload::uniform(15, 0.5), 11);
            let mut proto = QuorumConsensus::new(
                VoteAssignment::uniform(15),
                QuorumSpec::from_read_quorum(q_r, 15).unwrap(),
            );
            let stats = sim.run_batch(&mut proto, &mut NullObserver);
            assert_eq!(stats.stale_reads, 0, "q_r = {q_r} must be 1SR");
        }
    }

    #[test]
    fn rowa_reads_succeed_iff_site_up() {
        // q_r = 1: a read succeeds exactly when the submitting site is up
        // (96 % of the time), independent of topology (§5.3).
        let topo = Topology::ring(21);
        let mut params = quick_params();
        params.batch_accesses = 30_000;
        let mut sim = Simulation::new(&topo, params, Workload::uniform(21, 1.0), 5);
        let mut proto = QuorumConsensus::new(
            VoteAssignment::uniform(21),
            QuorumSpec::read_one_write_all(21),
        );
        let stats = sim.run_batch(&mut proto, &mut NullObserver);
        let ra = stats.read_availability();
        assert!((ra - 0.96).abs() < 0.01, "read availability {ra}");
    }

    #[test]
    fn observer_sees_every_access() {
        struct Counter {
            total: u64,
            measured: u64,
        }
        impl AccessObserver for Counter {
            fn on_access(
                &mut self,
                _s: usize,
                _m: &[usize],
                _v: u64,
                _k: Access,
                _d: Decision,
                idx: Option<u64>,
            ) {
                self.total += 1;
                if idx.is_some() {
                    self.measured += 1;
                }
            }
        }
        let topo = Topology::ring(7);
        let mut sim = Simulation::new(&topo, quick_params(), Workload::uniform(7, 0.5), 2);
        let mut proto = QuorumConsensus::majority(7);
        let mut obs = Counter {
            total: 0,
            measured: 0,
        };
        sim.run_batch(&mut proto, &mut obs);
        assert_eq!(obs.total, 4_500); // warmup + measured
        assert_eq!(obs.measured, 4_000);
    }

    #[test]
    fn event_counters_are_consistent() {
        let topo = Topology::ring(11);
        let mut sim = Simulation::new(&topo, quick_params(), Workload::uniform(11, 0.5), 6);
        let mut proto = QuorumConsensus::majority(11);
        let stats = sim.run_batch(&mut proto, &mut NullObserver);
        // Every processed event is a site transition, a link transition,
        // or an access.
        assert_eq!(
            stats.events_processed,
            stats.site_transitions + stats.link_transitions + stats.accesses_dispatched
        );
        // Warm-up (500) + measured (4000) accesses were dispatched.
        assert_eq!(stats.accesses_dispatched, 4_500);
        // Every access consulted the component view exactly once (plus
        // possible SURV probes, disabled here).
        assert_eq!(
            stats.cache_hits + stats.cache_recomputations,
            stats.accesses_dispatched
        );
        assert!(stats.site_transitions > 0);
        assert!(stats.link_transitions > 0);
    }

    #[test]
    fn cache_is_effective_on_sparse_topologies() {
        let topo = Topology::ring(31);
        let mut sim = Simulation::new(&topo, quick_params(), Workload::uniform(31, 0.5), 4);
        let mut proto = QuorumConsensus::majority(31);
        let stats = sim.run_batch(&mut proto, &mut NullObserver);
        assert!(
            stats.cache_hits > 0,
            "some consecutive accesses should share a view"
        );
        assert!(stats.cache_recomputations > 0);
    }

    #[test]
    fn pasta_access_sampling_equals_time_average() {
        // Poisson Arrivals See Time Averages: the histogram of component
        // votes sampled at access instants must equal the time-weighted
        // average over the whole measurement window. This justifies the
        // paper's access-driven on-line estimation of "availability at an
        // arbitrary time".
        let topo = Topology::ring(15);
        let params = SimParams {
            warmup_accesses: 2_000,
            batch_accesses: 60_000,
            ..SimParams::paper()
        };
        let mut sim =
            Simulation::new(&topo, params, Workload::uniform(15, 0.5), 44).time_weighted(true);
        let mut proto = QuorumConsensus::majority(15);
        let stats = sim.run_batch(&mut proto, &mut NullObserver);
        let sampled = stats.access_votes().estimate();
        let time_avg = stats.time_weighted_density(15);
        let tv = sampled.total_variation(&time_avg);
        assert!(tv < 0.02, "PASTA violated: TV = {tv}");
        assert!((time_avg.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn survivability_probe_dominates_acc() {
        // SURV counts accesses SOME component could serve; ACC counts the
        // submitting site's. SURV ≥ ACC always, and on a partition-prone
        // ring strictly more.
        let topo = Topology::ring(15);
        let mut params = quick_params();
        params.batch_accesses = 20_000;
        let mut sim =
            Simulation::new(&topo, params, Workload::uniform(15, 0.5), 8).probe_survivability(true);
        let mut proto = QuorumConsensus::majority(15);
        let stats = sim.run_batch(&mut proto, &mut NullObserver);
        let acc = stats.availability();
        let surv = stats.surv_availability();
        assert!(surv >= acc, "SURV {surv} < ACC {acc}");
        assert!(surv > acc + 0.01, "ring partitions should separate them");
        // And SURV of a majority protocol cannot exceed 1 or fall below
        // the single-site floor badly.
        assert!(surv <= 1.0);
    }

    #[test]
    fn probe_disabled_reports_zero_surv() {
        let topo = Topology::ring(9);
        let mut sim = Simulation::new(&topo, quick_params(), Workload::uniform(9, 0.5), 2);
        let mut proto = QuorumConsensus::majority(9);
        let stats = sim.run_batch(&mut proto, &mut NullObserver);
        assert_eq!(stats.surv_possible, 0);
        assert_eq!(stats.surv_availability(), 0.0);
    }

    #[test]
    fn invalid_quorums_violate_serializability() {
        // Deliberately break condition 1 by bypassing QuorumSpec: a raw
        // protocol with q_r + q_w <= T lets a read miss the latest write
        // during partitions. We emulate via a custom protocol.
        struct BrokenProtocol;
        impl ConsistencyProtocol for BrokenProtocol {
            fn decide(&mut self, kind: Access, m: &[usize], votes: u64) -> Decision {
                if self.can_grant(kind, m, votes) {
                    Decision::Granted
                } else {
                    Decision::Denied
                }
            }
            fn can_grant(&self, kind: Access, _m: &[usize], votes: u64) -> bool {
                // q_r = 1, q_w = 8 on T = 15: 1 + 8 = 9 <= 15 (unsafe).
                match kind {
                    Access::Read => votes >= 1,
                    Access::Write => votes >= 8,
                }
            }
            fn total_votes(&self) -> u64 {
                15
            }
        }
        let topo = Topology::ring(15); // rings partition often
        let mut params = quick_params();
        params.batch_accesses = 30_000;
        let mut sim = Simulation::new(&topo, params, Workload::uniform(15, 0.5), 21);
        let stats = sim.run_batch(&mut BrokenProtocol, &mut NullObserver);
        assert!(
            stats.stale_reads > 0,
            "an unsafe quorum pair must eventually produce a stale read"
        );
    }
}
