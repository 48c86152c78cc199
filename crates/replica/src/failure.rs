//! The §5.2 failure world, shared by every engine that replays it.
//!
//! The paper's model gives every site and every link one alternating
//! up/down renewal process, all with the same reliability. Three engines
//! replay that model: the instantaneous simulator ([`crate::Simulation`]),
//! the message-level cluster engine (`quorum-cluster`) and the shard
//! crate's per-run failure timeline (`quorum-shard`). All three run it
//! through one [`FailureWorld`]: the process bank, the failure RNG
//! stream and the [`LiveNetwork`] (the up/down state together with its
//! connectivity kernel), with one scheduling order and one transition
//! arm. That is what makes the engines consume the failure stream
//! identically, so the cluster engine's zero-latency degeneracy and the
//! timeline's per-epoch grants are exact rather than merely statistical.

use quorum_des::{EventQueue, OnOffProcess, SimParams, SimTime};
use quorum_graph::{DeltaConnectivity, LiveNetwork, Topology};
use quorum_stats::rng::{derive_seed, rng_from_seed};
use rand::rngs::StdRng;

/// One failure-process event: site or link `i` flips up/down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Site `i` toggles.
    Site(usize),
    /// Link `i` toggles.
    Link(usize),
}

/// The bank of per-site and per-link on/off processes of one batch.
#[derive(Debug)]
struct FailureProcesses {
    sites: Vec<OnOffProcess>,
    links: Vec<OnOffProcess>,
}

impl FailureProcesses {
    /// Creates the process bank: every component starts up, with the
    /// homogeneous parameters.
    fn new(params: &SimParams, n_sites: usize, n_links: usize) -> Self {
        let process = OnOffProcess::from_reliability(params.reliability, params.mu_fail());
        Self {
            sites: vec![process; n_sites],
            links: vec![process; n_links],
        }
    }

    /// The process behind `transition`.
    fn process(&mut self, transition: Transition) -> &mut OnOffProcess {
        match transition {
            Transition::Site(i) => &mut self.sites[i],
            Transition::Link(i) => &mut self.links[i],
        }
    }
}

/// One batch's replay of the §5.2 failure model over a topology.
///
/// Owns the process bank, the stream-1 failure RNG
/// (`derive_seed(batch_seed, 1)`) and the [`LiveNetwork`], and counts the
/// site and link transitions it applies. The caller owns the event
/// queue, so failure transitions interleave with whatever else the
/// engine schedules (accesses, messages, timers) without changing the
/// failure path: the world draws from its own stream, in the same order,
/// whatever else is queued.
#[derive(Debug)]
pub struct FailureWorld<'a> {
    procs: FailureProcesses,
    rng: StdRng,
    network: LiveNetwork<'a>,
    site_transitions: u64,
    link_transitions: u64,
}

impl<'a> FailureWorld<'a> {
    /// The all-up world of batch seed `batch_seed`, weighting components
    /// by `votes`. Every component is `params.reliability` reliable.
    ///
    /// # Panics
    /// Panics if `votes` does not cover the topology.
    pub fn new(topology: &'a Topology, votes: &[u64], params: &SimParams, batch_seed: u64) -> Self {
        Self {
            procs: FailureProcesses::new(params, topology.num_sites(), topology.num_links()),
            rng: rng_from_seed(derive_seed(batch_seed, 1)),
            network: LiveNetwork::new(topology, votes),
            site_transitions: 0,
            link_transitions: 0,
        }
    }

    /// Schedules the first transition of every component into `queue`:
    /// all sites in index order, then all links — the canonical stream
    /// order every engine shares. Call it before scheduling anything else
    /// that draws sequence numbers at time zero.
    pub fn schedule_initial<E: From<Transition>>(&mut self, queue: &mut EventQueue<E>) {
        let sites = (0..self.procs.sites.len()).map(Transition::Site);
        let links = (0..self.procs.links.len()).map(Transition::Link);
        for transition in sites.chain(links) {
            let (gap, _) = self
                .procs
                .process(transition)
                .next_transition(&mut self.rng);
            queue.schedule(SimTime::new(gap), transition.into());
        }
    }

    /// Applies one popped transition: flips the component in the live
    /// network (whose kernel absorbs an actual change) and schedules the
    /// component's next transition into `queue`.
    pub fn apply<E: From<Transition>>(
        &mut self,
        transition: Transition,
        queue: &mut EventQueue<E>,
    ) {
        let process = self.procs.process(transition);
        let up = process.is_up();
        let (gap, _) = process.next_transition(&mut self.rng);
        match transition {
            Transition::Site(site) => {
                self.site_transitions += 1;
                self.network.set_site(site, up);
            }
            Transition::Link(link) => {
                self.link_transitions += 1;
                self.network.set_link(link, up);
            }
        }
        queue.schedule_in(gap, transition.into());
    }

    /// True if `site` is up.
    #[inline]
    pub fn site_up(&self, site: usize) -> bool {
        self.network.site_up(site)
    }

    /// The current partition, read straight from the connectivity
    /// kernel: slot of a site, slot votes, members and generation, the
    /// largest vote total and `connected(a, b)`. Each call counts as one
    /// read (a hit, or a recomputation if the partition changed since
    /// the last read).
    #[inline]
    pub fn partition(&mut self) -> &DeltaConnectivity {
        self.network.partition()
    }

    /// The live network, for its state and its read and kernel counters.
    pub fn network(&self) -> &LiveNetwork<'a> {
        &self.network
    }

    /// Site transitions applied so far.
    pub fn site_transitions(&self) -> u64 {
        self.site_transitions
    }

    /// Link transitions applied so far.
    pub fn link_transitions(&self) -> u64 {
        self.link_transitions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_graph::ComponentView;

    fn world<'a>(t: &'a Topology, votes: &[u64], seed: u64) -> FailureWorld<'a> {
        FailureWorld::new(t, votes, &SimParams::quick(), seed)
    }

    #[test]
    fn bank_sizes_and_defaults() {
        let p = SimParams::quick();
        let f = FailureProcesses::new(&p, 5, 7);
        assert_eq!((f.sites.len(), f.links.len()), (5, 7));
        assert!(f.sites.iter().all(|s| s.reliability() == p.reliability));
    }

    #[test]
    fn initial_schedule_covers_every_component() {
        let t = Topology::ring_with_chords(5, 2);
        let votes = vec![1; 5];
        let mut w = world(&t, &votes, 1);
        let mut q: EventQueue<Transition> = EventQueue::new();
        w.schedule_initial(&mut q);
        assert_eq!(q.len(), 5 + t.num_links());
        let mut sites = 0;
        let mut links = 0;
        while let Some((_, transition)) = q.pop() {
            match transition {
                Transition::Site(_) => sites += 1,
                Transition::Link(_) => links += 1,
            }
        }
        assert_eq!((sites, links), (5, t.num_links()));
    }

    #[test]
    fn transitions_alternate_state() {
        let t = Topology::ring(3);
        let votes = vec![1; 3];
        let mut w = world(&t, &votes, 2);
        let mut q: EventQueue<Transition> = EventQueue::new();
        w.schedule_initial(&mut q);
        let mut flips = [0u32; 3];
        for _ in 0..40 {
            let (_, transition) = q.pop().expect("renewal processes never drain");
            w.apply(transition, &mut q);
            if let Transition::Site(i) = transition {
                flips[i] += 1;
                // The first transition is the failure, the next the repair.
                assert_eq!(w.site_up(i), flips[i] % 2 == 0);
            }
        }
        assert_eq!(
            w.site_transitions() + w.link_transitions(),
            40,
            "every applied transition is counted once"
        );
    }

    #[test]
    fn view_tracks_every_transition() {
        let t = Topology::ring_with_chords(9, 3);
        let votes: Vec<u64> = (0..9).map(|i| i % 3 + 1).collect();
        let mut w = world(&t, &votes, 3);
        let mut q: EventQueue<Transition> = EventQueue::new();
        w.schedule_initial(&mut q);
        for _ in 0..200 {
            let (_, transition) = q.pop().expect("renewal processes never drain");
            w.apply(transition, &mut q);
            let oracle = ComponentView::compute(&t, w.network().state(), &votes);
            assert_eq!(w.partition().to_view(), oracle);
        }
        // Transitions alternate, so each one is a real change the kernel
        // classifies exactly once.
        let delta = w.network().delta_counters();
        assert_eq!(delta.total(), w.site_transitions() + w.link_transitions());
        assert_eq!(w.network().hits() + w.network().recomputations(), 200);
    }
}
