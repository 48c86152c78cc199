//! Discrete-event simulation of the single-bus architecture (§4.2).
//!
//! The graph simulator models point-to-point links; a bus is a shared
//! medium, so it gets its own small event loop over
//! [`quorum_graph::BusNetwork`]: one on/off process for the bus, one per
//! site, Poisson accesses. Each access goes through the replica engines'
//! one checked access step, `SerializabilityChecker::access`. Validates
//! the §4.2 bus densities (both architectural variants) end-to-end and
//! lets examples explore bus-backed replication.

use crate::object::SerializabilityChecker;
use crate::results::BatchStats;
use crate::workload::Workload;
use quorum_core::{ConsistencyProtocol, VoteAssignment};
use quorum_des::{EventQueue, OnOffProcess, PoissonProcess, SimParams, SimTime};
use quorum_graph::{BitSet, BusFailureMode, BusNetwork};
use quorum_stats::rng::{derive_seed, rng_from_seed};

#[derive(Debug, Clone, Copy)]
enum Event {
    SiteTransition(usize),
    BusTransition,
    Access,
}

/// Simulation of one bus-network batch.
pub struct BusSimulation {
    n: usize,
    mode: BusFailureMode,
    params: SimParams,
    votes: VoteAssignment,
    workload: Workload,
    master_seed: u64,
    batches_run: u64,
}

impl BusSimulation {
    /// Creates the simulation (uniform one-vote-per-site assignment).
    pub fn new(
        n: usize,
        mode: BusFailureMode,
        params: SimParams,
        workload: Workload,
        master_seed: u64,
    ) -> Self {
        params.validate();
        assert_eq!(workload.num_sites(), n, "workload must cover every site");
        Self {
            n,
            mode,
            params,
            votes: VoteAssignment::uniform(n),
            workload,
            master_seed,
            batches_run: 0,
        }
    }

    /// Runs one warm-up + measurement batch.
    pub fn run_batch<P: ConsistencyProtocol>(&mut self, protocol: &mut P) -> BatchStats {
        let idx = self.batches_run;
        self.batches_run += 1;
        self.run_indexed_batch(protocol, idx)
    }

    /// Runs a batch with an explicit index.
    pub fn run_indexed_batch<P: ConsistencyProtocol>(
        &mut self,
        protocol: &mut P,
        batch_index: u64,
    ) -> BatchStats {
        let n = self.n;
        let seed = derive_seed(self.master_seed, batch_index);
        let mut fail_rng = rng_from_seed(derive_seed(seed, 1));
        let mut access_rng = rng_from_seed(derive_seed(seed, 2));
        let mut workload_rng = rng_from_seed(derive_seed(seed, 3));

        let mut net = BusNetwork::new(n, self.mode);
        let mut checker = SerializabilityChecker::new(n);
        let mut stats = BatchStats::new(self.votes.total() as usize);

        let component_process =
            OnOffProcess::from_reliability(self.params.reliability, self.params.mu_fail());
        let mut site_procs = vec![component_process; n];
        let mut bus_proc = component_process;

        let mut queue: EventQueue<Event> = EventQueue::new();
        for (i, p) in site_procs.iter_mut().enumerate() {
            let (gap, _) = p.next_transition(&mut fail_rng);
            queue.schedule(SimTime::new(gap), Event::SiteTransition(i));
        }
        let (gap, _) = bus_proc.next_transition(&mut fail_rng);
        queue.schedule(SimTime::new(gap), Event::BusTransition);
        let access_proc = PoissonProcess::new(n as f64 / self.params.mu_access);
        queue.schedule(
            SimTime::new(access_proc.next_gap(&mut access_rng)),
            Event::Access,
        );

        let warmup = self.params.warmup_accesses;
        let target = warmup + self.params.batch_accesses;
        let mut seen = 0u64;
        let mut members: Vec<usize> = Vec::with_capacity(n);
        let mut member_bits = BitSet::new(n);
        while seen < target {
            let (_t, ev) = queue.pop().expect("streams never drain");
            match ev {
                Event::SiteTransition(i) => {
                    net.set_site(i, site_procs[i].is_up());
                    let (gap, _) = site_procs[i].next_transition(&mut fail_rng);
                    queue.schedule_in(gap, Event::SiteTransition(i));
                }
                Event::BusTransition => {
                    net.set_bus(bus_proc.is_up());
                    let (gap, _) = bus_proc.next_transition(&mut fail_rng);
                    queue.schedule_in(gap, Event::BusTransition);
                }
                Event::Access => {
                    seen += 1;
                    queue.schedule_in(access_proc.next_gap(&mut access_rng), Event::Access);
                    let (kind, site) = self.workload.sample(&mut workload_rng);
                    let votes = net.votes_of(site, self.votes.as_slice());
                    // The bus component is every up site; a site cut off
                    // by a bus failure is alone.
                    member_bits.fill(false);
                    if votes > 0 {
                        if net.bus_up() {
                            for s in 0..n {
                                member_bits.set(s, net.site_up(s));
                            }
                        } else {
                            member_bits.set(site, true);
                        }
                    }
                    members.clear();
                    members.extend(member_bits.iter_ones());
                    let (decision, consistent) =
                        checker.access(protocol, kind, &members, &member_bits, votes);
                    if seen > warmup {
                        // Largest component: the bus component if up, else
                        // the largest singleton (1 if any site up, 0 else).
                        let largest = if net.bus_up() {
                            (0..n).filter(|&s| net.site_up(s)).count() as u64
                        } else {
                            match self.mode {
                                BusFailureMode::SitesFailWithBus => 0,
                                BusFailureMode::SitesIndependent => {
                                    u64::from((0..n).any(|s| net.site_up(s)))
                                }
                            }
                        };
                        stats.record_access(
                            kind,
                            votes,
                            largest,
                            decision.is_granted(),
                            consistent,
                        );
                    }
                }
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::analytic::{bus_density_sites_fail, bus_density_sites_independent};
    use quorum_core::{QuorumConsensus, QuorumSpec};
    use quorum_stats::VoteHistogram;

    fn params() -> SimParams {
        SimParams {
            warmup_accesses: 2_000,
            batch_accesses: 60_000,
            ..SimParams::paper()
        }
    }

    #[test]
    fn sites_fail_variant_matches_analytic_density() {
        let n = 9;
        let mut sim = BusSimulation::new(
            n,
            BusFailureMode::SitesFailWithBus,
            params(),
            Workload::uniform(n, 0.5),
            1,
        );
        let mut proto = QuorumConsensus::majority(n);
        let stats = sim.run_batch(&mut proto);
        let empirical = stats.access_votes().estimate();
        let analytic = bus_density_sites_fail(n, 0.96, 0.96);
        let tv = empirical.total_variation(&analytic);
        // One 60k-access batch carries sampling error; with the bus-coupled
        // failure mode most mass sits on {0, n}, so the TV estimate is
        // noisier than the independent variant's. 0.05 still rules out a
        // wrong analytic density (a mismatched model is off by ≥ 0.2).
        assert!(tv < 0.05, "TV = {tv}");
    }

    #[test]
    fn independent_variant_matches_analytic_density() {
        let n = 9;
        let mut sim = BusSimulation::new(
            n,
            BusFailureMode::SitesIndependent,
            params(),
            Workload::uniform(n, 0.5),
            2,
        );
        let mut proto = QuorumConsensus::majority(n);
        let stats = sim.run_batch(&mut proto);
        let empirical = stats.access_votes().estimate();
        let analytic = bus_density_sites_independent(n, 0.96, 0.96);
        let tv = empirical.total_variation(&analytic);
        assert!(tv < 0.03, "TV = {tv}");
    }

    #[test]
    fn bus_simulation_is_serializable() {
        let n = 7;
        for mode in [
            BusFailureMode::SitesFailWithBus,
            BusFailureMode::SitesIndependent,
        ] {
            let mut sim = BusSimulation::new(n, mode, params(), Workload::uniform(n, 0.5), 3);
            let mut proto = QuorumConsensus::new(
                VoteAssignment::uniform(n),
                QuorumSpec::from_read_quorum(2, n as u64).unwrap(),
            );
            let stats = sim.run_batch(&mut proto);
            assert_eq!(stats.stale_reads, 0, "{mode:?}");
            assert_eq!(stats.write_conflicts, 0, "{mode:?}");
        }
    }

    #[test]
    fn rowa_reads_on_independent_bus_track_site_reliability() {
        // q_r = 1: reads succeed iff the submitting site is up, whether or
        // not the bus is (sites-independent variant).
        let n = 7;
        let mut sim = BusSimulation::new(
            n,
            BusFailureMode::SitesIndependent,
            params(),
            Workload::uniform(n, 1.0),
            4,
        );
        let mut proto = QuorumConsensus::read_one_write_all(n);
        let stats = sim.run_batch(&mut proto);
        let ra = stats.read_availability();
        assert!((ra - 0.96).abs() < 0.01, "read availability {ra}");
    }

    #[test]
    fn access_votes_merge_read_and_write_histograms() {
        let n = 7;
        let mut sim = BusSimulation::new(
            n,
            BusFailureMode::SitesIndependent,
            params(),
            Workload::uniform(n, 0.3),
            5,
        );
        let stats = sim.run_batch(&mut QuorumConsensus::majority(n));
        let (reads, writes) = (&stats.read_votes, &stats.write_votes);
        assert!(reads.observations() > 0 && writes.observations() > 0);
        // Per-level counts, recovered exactly from the integer-count pmf.
        let counts = |h: &quorum_stats::CountingHistogram| {
            let d = h.estimate();
            (0..=n)
                .map(|v| (d.pmf(v) * h.weight()).round() as u64)
                .collect::<Vec<_>>()
        };
        let merged: Vec<u64> = counts(reads)
            .iter()
            .zip(counts(writes))
            .map(|(r, w)| r + w)
            .collect();
        assert_eq!(counts(&stats.access_votes()), merged);
    }

    #[test]
    fn deterministic_given_seed() {
        let n = 5;
        let run = |seed| {
            let mut sim = BusSimulation::new(
                n,
                BusFailureMode::SitesFailWithBus,
                SimParams {
                    warmup_accesses: 100,
                    batch_accesses: 2_000,
                    ..SimParams::paper()
                },
                Workload::uniform(n, 0.5),
                seed,
            );
            let mut proto = QuorumConsensus::majority(n);
            let s = sim.run_batch(&mut proto);
            (s.reads_granted, s.writes_granted)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
