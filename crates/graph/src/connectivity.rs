//! Component labelling over the up-subgraph.
//!
//! A *component* (paper §2.2) is a maximal set of operational sites that can
//! communicate through operational links. Its vote total is precisely the
//! `v` in the paper's density `f_i(v)`. Down sites are "members of a
//! component of size zero" (§5.2), represented here by [`ComponentView::DOWN`].
//!
//! [`LiveNetwork`] is the one owner of the live network: it holds the
//! site and link up/down state, hands every change to the incremental
//! [`DeltaConnectivity`] kernel, serves the partition straight from the
//! kernel's slots, and counts reads as hits or recomputations. The
//! kernel's slot reads are the only partition representation the
//! engines use.
//!
//! [`ComponentView`] is the reference: [`ComponentView::compute`] labels
//! every up site by a full BFS and totals the votes per component. The
//! tests and `kernel_replay` compare the kernel against it through
//! [`DeltaConnectivity::to_view`].

use crate::bitset::BitSet;
use crate::delta::{DeltaConnectivity, DeltaCounters, DeltaOutcome, TopologyEvent};
use crate::state::NetworkState;
use crate::topology::Topology;

/// A snapshot of the network's partition into components.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentView {
    /// Component id per site; [`ComponentView::DOWN`] for down sites.
    comp_id: Vec<u32>,
    /// Total votes per component id.
    comp_votes: Vec<u64>,
    /// Number of up sites per component id.
    comp_sizes: Vec<u32>,
    /// Member bitset per component id.
    members: Vec<BitSet>,
}

impl ComponentView {
    /// Marker id for non-operational sites.
    pub const DOWN: u32 = u32::MAX;

    /// Computes the partition of `topology` under `state`, weighting each
    /// site by `votes[site]`.
    ///
    /// # Panics
    /// Panics if `votes.len()` differs from the site count.
    pub fn compute(topology: &Topology, state: &NetworkState, votes: &[u64]) -> Self {
        let n = topology.num_sites();
        assert_eq!(votes.len(), n, "one vote weight per site");
        let mut comp_id = vec![Self::DOWN; n];
        let mut comp_votes = Vec::new();
        let mut comp_sizes = Vec::new();
        let mut members = Vec::new();
        let mut queue = Vec::with_capacity(n);
        for start in 0..n {
            if !state.site_up(start) || comp_id[start] != Self::DOWN {
                continue;
            }
            let id = comp_votes.len() as u32;
            comp_votes.push(0u64);
            comp_sizes.push(0u32);
            members.push(BitSet::new(n));
            comp_id[start] = id;
            queue.clear();
            queue.push(start);
            while let Some(s) = queue.pop() {
                comp_votes[id as usize] += votes[s];
                comp_sizes[id as usize] += 1;
                members[id as usize].set(s, true);
                for &(nb, link) in topology.neighbors(s) {
                    if state.link_up(link) && state.site_up(nb) && comp_id[nb] == Self::DOWN {
                        comp_id[nb] = id;
                        queue.push(nb);
                    }
                }
            }
        }
        Self {
            comp_id,
            comp_votes,
            comp_sizes,
            members,
        }
    }

    /// Assembles a view from precomputed parts (the incremental kernel's
    /// canonical materialization).
    pub(crate) fn from_parts(
        comp_id: Vec<u32>,
        comp_votes: Vec<u64>,
        comp_sizes: Vec<u32>,
        members: Vec<BitSet>,
    ) -> Self {
        Self {
            comp_id,
            comp_votes,
            comp_sizes,
            members,
        }
    }

    /// Component id of `site`, or [`Self::DOWN`].
    #[inline]
    pub fn component_of(&self, site: usize) -> u32 {
        self.comp_id[site]
    }

    /// Votes reachable from `site` (0 if the site is down — the paper's
    /// "component of size zero" convention).
    #[inline]
    pub fn votes_of(&self, site: usize) -> u64 {
        match self.comp_id[site] {
            Self::DOWN => 0,
            id => self.comp_votes[id as usize],
        }
    }

    /// Number of components (down sites excluded).
    pub fn num_components(&self) -> usize {
        self.comp_votes.len()
    }

    /// Vote totals per component.
    pub fn component_votes(&self) -> &[u64] {
        &self.comp_votes
    }

    /// Maximum votes held by any component (0 if every site is down).
    ///
    /// This is the quantity behind the SURV metric (§3, footnote 3).
    pub fn largest_component_votes(&self) -> u64 {
        self.comp_votes.iter().copied().max().unwrap_or(0)
    }

    /// True if `a` and `b` are both up and mutually reachable.
    pub fn connected(&self, a: usize, b: usize) -> bool {
        self.comp_id[a] != Self::DOWN && self.comp_id[a] == self.comp_id[b]
    }
}

/// The live network: the up/down state of every site and link, the
/// incremental [`DeltaConnectivity`] kernel kept in step with it, and
/// the partition's read accounting.
///
/// This is the one owner of the network the engines simulate.
/// [`LiveNetwork::set_site`] and [`LiveNetwork::set_link`] change the
/// state and hand every actual change to the kernel, so the kernel can
/// never miss an event. [`LiveNetwork::partition`] serves the partition
/// straight from the kernel: an access costs a few array reads, and
/// nothing is rebuilt between events.
///
/// The kernel is built lazily from the state, by the first read or the
/// first change. A change that builds it counts as a full recompute, so
/// every change lands in exactly one delta counter. Every read counts
/// once: as a *recomputation* if it is the first read after a partition
/// change (or the first read at all), else as a *hit*. So
/// `hits + recomputations` equals the number of reads. The kernel's
/// answers are bit-identical to [`ComponentView::compute`], the
/// full-BFS oracle the tests pin it against.
#[derive(Debug, Clone)]
pub struct LiveNetwork<'a> {
    topology: &'a Topology,
    votes: Vec<u64>,
    state: NetworkState,
    kernel: Option<DeltaConnectivity>,
    /// True once a read has been served since the last partition change.
    read_since_change: bool,
    recomputations: u64,
    hits: u64,
    delta: DeltaCounters,
}

impl<'a> LiveNetwork<'a> {
    /// The all-up network over `topology`, weighting each site by
    /// `votes[site]`.
    ///
    /// # Panics
    /// Panics if `votes.len()` differs from the site count.
    pub fn new(topology: &'a Topology, votes: &[u64]) -> Self {
        assert_eq!(
            votes.len(),
            topology.num_sites(),
            "one vote weight per site"
        );
        Self {
            topology,
            votes: votes.to_vec(),
            state: NetworkState::all_up(topology),
            kernel: None,
            read_since_change: false,
            recomputations: 0,
            hits: 0,
            delta: DeltaCounters::default(),
        }
    }

    /// Sets `site` up or down. Returns `true` if its state changed; the
    /// kernel absorbs exactly those changes.
    pub fn set_site(&mut self, site: usize, up: bool) -> bool {
        let changed = self.state.set_site(site, up);
        if changed {
            self.absorb(TopologyEvent::Site { site, up });
        }
        changed
    }

    /// Sets `link` up or down. Returns `true` if its state changed; the
    /// kernel absorbs exactly those changes.
    pub fn set_link(&mut self, link: usize, up: bool) -> bool {
        let changed = self.state.set_link(link, up);
        if changed {
            self.absorb(TopologyEvent::Link { link, up });
        }
        changed
    }

    /// Hands one actual change, already in `state`, to the kernel — or,
    /// if no kernel is built yet, builds it from `state`, which absorbs
    /// the change wholesale (counted as a full recompute).
    fn absorb(&mut self, event: TopologyEvent) {
        let changed = match &mut self.kernel {
            Some(kernel) => {
                let applied = kernel.apply(event);
                match applied.outcome {
                    DeltaOutcome::Merge => self.delta.merges += 1,
                    DeltaOutcome::Rescan => self.delta.rescans += 1,
                    DeltaOutcome::Noop => self.delta.noops += 1,
                }
                applied.changed
            }
            None => {
                self.kernel = Some(DeltaConnectivity::new(
                    self.topology,
                    &self.state,
                    &self.votes,
                ));
                self.delta.full_recomputes += 1;
                true
            }
        };
        if changed {
            self.read_since_change = false;
        }
    }

    /// True if `site` is up.
    #[inline]
    pub fn site_up(&self, site: usize) -> bool {
        self.state.site_up(site)
    }

    /// The up/down state of every site and link.
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// The partition, read straight from the kernel (one counted read);
    /// the kernel is built from the state on first use.
    pub fn partition(&mut self) -> &DeltaConnectivity {
        if self.read_since_change {
            self.hits += 1;
        } else {
            self.recomputations += 1;
            self.read_since_change = true;
        }
        let (topology, state, votes) = (self.topology, &self.state, &self.votes);
        self.kernel
            .get_or_insert_with(|| DeltaConnectivity::new(topology, state, votes))
    }

    /// Number of reads that were the first after a partition change.
    pub fn recomputations(&self) -> u64 {
        self.recomputations
    }

    /// Number of reads of a partition already read since it last
    /// changed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime fast-path totals.
    pub fn delta_counters(&self) -> DeltaCounters {
        self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_votes(n: usize) -> Vec<u64> {
        vec![1; n]
    }

    #[test]
    fn fully_up_ring_is_one_component() {
        let t = Topology::ring(7);
        let s = NetworkState::all_up(&t);
        let v = ComponentView::compute(&t, &s, &uniform_votes(7));
        assert_eq!(v.num_components(), 1);
        assert_eq!(v.votes_of(3), 7);
        assert_eq!(v.largest_component_votes(), 7);
        assert!(v.connected(0, 6));
    }

    #[test]
    fn down_site_has_zero_votes() {
        let t = Topology::ring(5);
        let mut s = NetworkState::all_up(&t);
        s.set_site(2, false);
        let v = ComponentView::compute(&t, &s, &uniform_votes(5));
        assert_eq!(v.votes_of(2), 0);
        assert_eq!(v.component_of(2), ComponentView::DOWN);
        // Remaining 4 sites still connected around the ring.
        assert_eq!(v.votes_of(0), 4);
    }

    #[test]
    fn ring_partitions_with_two_link_failures() {
        let t = Topology::ring(6); // links (0,1),(1,2),(2,3),(3,4),(4,5),(5,0)
        let mut s = NetworkState::all_up(&t);
        s.set_link(0, false); // cut (0,1)
        s.set_link(3, false); // cut (3,4)
        let v = ComponentView::compute(&t, &s, &uniform_votes(6));
        assert_eq!(v.num_components(), 2);
        assert!(v.connected(1, 3));
        assert!(v.connected(4, 0));
        assert!(!v.connected(1, 4));
        assert_eq!(v.votes_of(1), 3); // {1,2,3}
        assert_eq!(v.votes_of(5), 3); // {4,5,0}
    }

    #[test]
    fn single_link_failure_does_not_partition_ring() {
        let t = Topology::ring(6);
        let mut s = NetworkState::all_up(&t);
        s.set_link(2, false);
        let v = ComponentView::compute(&t, &s, &uniform_votes(6));
        assert_eq!(v.num_components(), 1);
        assert_eq!(v.votes_of(0), 6);
    }

    #[test]
    fn weighted_votes_counted() {
        let t = Topology::path(3);
        let mut s = NetworkState::all_up(&t);
        s.set_link(1, false); // separates {0,1} from {2}
        let v = ComponentView::compute(&t, &s, &[5, 2, 9]);
        assert_eq!(v.votes_of(0), 7);
        assert_eq!(v.votes_of(2), 9);
        assert_eq!(v.largest_component_votes(), 9);
    }

    #[test]
    fn site_failure_partitions_star() {
        let t = Topology::star(5);
        let mut s = NetworkState::all_up(&t);
        s.set_site(0, false); // hub down
        let v = ComponentView::compute(&t, &s, &uniform_votes(5));
        assert_eq!(v.num_components(), 4);
        for site in 1..5 {
            assert_eq!(v.votes_of(site), 1);
        }
    }

    #[test]
    fn members_of_lists_component() {
        let t = Topology::ring(6);
        let votes = uniform_votes(6);
        let mut net = LiveNetwork::new(&t, &votes);
        net.set_link(0, false);
        net.set_link(3, false);
        let p = net.partition();
        let members: Vec<usize> = p.slot_members(p.slot_of(2)).iter_ones().collect();
        assert_eq!(members, vec![1, 2, 3]);
        net.set_site(1, false);
        let p = net.partition();
        assert_eq!(p.slot_of(1), ComponentView::DOWN, "down site has no slot");
        let members: Vec<usize> = p.slot_members(p.slot_of(2)).iter_ones().collect();
        assert_eq!(members, vec![2, 3]);
    }

    #[test]
    fn all_components_partitions_up_sites() {
        let t = Topology::ring(6);
        let votes = uniform_votes(6);
        let mut net = LiveNetwork::new(&t, &votes);
        net.set_link(0, false);
        net.set_link(3, false);
        net.set_site(5, false);
        let p = net.partition();
        let mut all = Vec::new();
        for slot in p.live_slots() {
            for m in p.slot_members(slot).iter_ones() {
                assert_eq!(p.slot_of(m), slot);
                all.push(m);
            }
        }
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4], "every up site in exactly one");
    }

    #[test]
    fn all_down_network() {
        let t = Topology::ring(4);
        let s = NetworkState::all_down(&t);
        let v = ComponentView::compute(&t, &s, &uniform_votes(4));
        assert_eq!(v.num_components(), 0);
        assert_eq!(v.largest_component_votes(), 0);
    }

    /// Toggles `site`; every toggle is an actual change.
    fn toggle_site(net: &mut LiveNetwork<'_>, site: usize) {
        let up = !net.site_up(site);
        assert!(net.set_site(site, up));
    }

    /// Toggles `link`; every toggle is an actual change.
    fn toggle_link(net: &mut LiveNetwork<'_>, link: usize) {
        let up = !net.state().link_up(link);
        assert!(net.set_link(link, up));
    }

    /// The full-BFS oracle's view of `net`'s current state.
    fn oracle(net: &LiveNetwork<'_>, t: &Topology, votes: &[u64]) -> ComponentView {
        ComponentView::compute(t, net.state(), votes)
    }

    #[test]
    fn setters_report_only_actual_changes() {
        let t = Topology::ring(4);
        let votes = uniform_votes(4);
        let mut net = LiveNetwork::new(&t, &votes);
        assert!(!net.set_site(2, true), "an up site is already up");
        assert!(!net.set_link(1, true));
        assert_eq!(net.delta_counters().total(), 0, "no change, no event");
        assert!(net.set_site(2, false));
        assert!(!net.set_site(2, false), "idempotent set is not a change");
        assert!(net.set_link(1, false));
        assert_eq!(net.delta_counters().total(), 2);
    }

    #[test]
    fn cache_recomputes_only_when_invalidated() {
        let t = Topology::ring(5);
        let votes = uniform_votes(5);
        let mut net = LiveNetwork::new(&t, &votes);
        assert_eq!(net.partition().votes_of(0), 5);
        assert_eq!(net.partition().votes_of(1), 5);
        assert_eq!(net.recomputations(), 1);
        assert_eq!(net.hits(), 1);

        toggle_site(&mut net, 0);
        assert_eq!(net.partition().votes_of(1), 4);
        assert_eq!(net.recomputations(), 2);
    }

    #[test]
    fn cache_observation_matches_its_own_counters() {
        let t = Topology::ring(5);
        let votes = uniform_votes(5);
        let mut net = LiveNetwork::new(&t, &votes);
        for i in 0..6 {
            if i % 3 == 0 {
                toggle_site(&mut net, i % 5);
            }
            net.partition();
        }
        assert_eq!(net.hits() + net.recomputations(), 6);
    }

    #[test]
    fn view_matches_fresh_compute_after_many_mutations() {
        let t = Topology::ring_with_chords(21, 8);
        let votes = uniform_votes(21);
        let mut net = LiveNetwork::new(&t, &votes);
        for i in 0..10 {
            if net.site_up(i) != (i % 2 == 0) {
                toggle_site(&mut net, i);
            }
            if net.state().link_up(i) != (i % 3 != 0) {
                toggle_link(&mut net, i);
            }
            let cached: Vec<u64> = (0..21).map(|x| net.partition().votes_of(x)).collect();
            let fresh = oracle(&net, &t, &votes);
            let direct: Vec<u64> = (0..21).map(|x| fresh.votes_of(x)).collect();
            assert_eq!(cached, direct);
        }
    }

    #[test]
    fn incremental_cache_matches_reference_cache() {
        let t = Topology::ring_with_chords(21, 8);
        let votes: Vec<u64> = (0..21).map(|i| (i % 3 + 1) as u64).collect();
        let mut net = LiveNetwork::new(&t, &votes);
        let mut view_calls = 0u64;
        for i in 0..40usize {
            if i % 2 == 0 {
                toggle_site(&mut net, (i * 7) % 21);
            } else {
                toggle_link(&mut net, (i * 11) % t.num_links());
            }
            // Two reads per event: the second is always a hit.
            for _ in 0..2 {
                let got = net.partition().to_view();
                view_calls += 1;
                assert_eq!(got, oracle(&net, &t, &votes), "kernel diverged at step {i}");
            }
        }
        assert_eq!(net.hits() + net.recomputations(), view_calls);
        // Only a read after a partition change recomputes, and every
        // read here follows an event.
        assert!(net.recomputations() <= 40);
        // Every event classified exactly once.
        assert_eq!(net.delta_counters().total(), 40);
    }

    #[test]
    fn incremental_cache_survives_invalidate() {
        let t = Topology::ring(7);
        let votes = uniform_votes(7);
        let mut net = LiveNetwork::new(&t, &votes);
        assert_eq!(net.partition().votes_of(0), 7);
        // The kernel built by the first read absorbs every later event
        // incrementally: two failures cut the ring, a repair re-joins.
        toggle_site(&mut net, 2);
        toggle_site(&mut net, 3);
        assert_eq!(net.partition().votes_of(0), 5);
        toggle_site(&mut net, 3);
        let counters = net.delta_counters();
        assert_eq!((counters.merges, counters.full_recomputes), (1, 0));
        let fresh = oracle(&net, &t, &votes);
        assert_eq!(net.partition().to_view(), fresh);
    }

    #[test]
    fn view_survives_a_partition_preserving_cut() {
        let t = Topology::ring(6);
        let votes = uniform_votes(6);
        let mut net = LiveNetwork::new(&t, &votes);
        net.partition();
        // The first cut of an intact ring leaves a path: same partition,
        // so the next read is a hit.
        toggle_link(&mut net, 0);
        let view = net.partition().to_view();
        assert_eq!(view, oracle(&net, &t, &votes));
        assert_eq!((net.recomputations(), net.hits()), (1, 1));
        // The second cut splits it: the next read recomputes.
        toggle_link(&mut net, 3);
        let view = net.partition().to_view();
        assert_eq!(view.num_components(), 2);
        assert_eq!(net.recomputations(), 2);
        assert_eq!(net.partition().votes_of(0), 3);
        assert_eq!(net.hits() + net.recomputations(), 4);
    }

    #[test]
    fn event_before_first_view_counts_full_recompute() {
        let t = Topology::ring(5);
        let votes = uniform_votes(5);
        let mut net = LiveNetwork::new(&t, &votes);
        toggle_site(&mut net, 1);
        assert_eq!(net.delta_counters().full_recomputes, 1);
        assert_eq!(net.delta_counters().total(), 1);
        let fresh = oracle(&net, &t, &votes);
        assert_eq!(net.partition().to_view(), fresh);
    }

    #[test]
    fn member_index_reads_match_scan() {
        let t = Topology::ring(6);
        let votes: Vec<u64> = vec![1, 2, 3, 4, 5, 6];
        let mut net = LiveNetwork::new(&t, &votes);
        net.set_link(0, false);
        net.set_link(3, false);
        net.set_site(5, false);
        let s = net.state().clone();
        let p = net.partition();
        for site in 0..6 {
            let slot = p.slot_of(site);
            if slot == ComponentView::DOWN {
                assert!(!s.site_up(site));
                continue;
            }
            let via_bits: u64 = p.slot_members(slot).iter_ones().map(|m| votes[m]).sum();
            assert_eq!(via_bits, p.votes_of(site));
            assert_eq!(via_bits, p.slot_votes(slot));
        }
    }

    #[test]
    #[should_panic(expected = "one vote weight per site")]
    fn wrong_vote_len_rejected() {
        let t = Topology::ring(4);
        let s = NetworkState::all_up(&t);
        ComponentView::compute(&t, &s, &[1, 1, 1]);
    }
}
