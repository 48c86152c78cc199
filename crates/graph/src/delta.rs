//! Incremental component maintenance over the up-subgraph.
//!
//! [`ComponentView::compute`] re-runs a whole-graph BFS over edge lists
//! after every topology event. At paper scale (101 sites, chord variants
//! up to 5 050 links) that BFS dominates batch wall-clock. This module
//! maintains the partition *incrementally* instead:
//!
//! * **Recovery merges, never scans.** A site or link coming up can only
//!   join existing components. Joining is a union-find-style
//!   smaller-into-larger relabel over member bitsets — no BFS at all.
//! * **Failure re-scans one component.** A site or link going down can
//!   only split the single component that contained it, so the re-scan
//!   BFS is seeded from that component's member bitset and never touches
//!   the rest of the graph.
//! * **Provable no-ops are filtered.** Toggling a link with a down
//!   endpoint, failing an already-isolated site, or restoring a link
//!   inside one component cannot change the partition; these events cost
//!   O(1).
//!
//! All scans are *word-parallel*: per-site adjacency lives in
//! [`BitSet`]s keyed by live (up) links, so a BFS frontier expands by
//! OR-ing 64 sites at a time rather than walking `(neighbor, link)`
//! pairs. [`DeltaConnectivity::to_view`] renumbers the internal
//! component slots in first-site order, which makes the materialized
//! [`ComponentView`] *bit-identical* to a fresh
//! [`ComponentView::compute`] — the kernel can never change a reported
//! number (pinned against that full-BFS oracle by the event-sequence
//! proptests in `tests/delta_kernel.rs`). The replica, cluster and shard
//! engines all reach this kernel through one `quorum_replica`
//! `FailureWorld`, which feeds it every site and link transition via
//! `ComponentCache::apply_event`.

// Hot kernel: it absorbs every topology event of every batch, so a
// panic or a silently wrapping cast here corrupts a whole run. Indexing
// stays unlinted: the slot arrays are sized by construction.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros,
        clippy::cast_possible_truncation,
    )
)]

use crate::bitset::BitSet;
use crate::connectivity::ComponentView;
use crate::state::NetworkState;
use crate::topology::Topology;

/// One site/link up-down transition, as applied by the simulation
/// engines after `NetworkState::set_site`/`set_link` reported a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyEvent {
    /// Site `site` transitioned to `up`.
    Site {
        /// The site index.
        site: usize,
        /// Its new state.
        up: bool,
    },
    /// Link `link` transitioned to `up`.
    Link {
        /// The link index.
        link: usize,
        /// Its new state.
        up: bool,
    },
}

/// How the kernel disposed of one event (drives the `graph.delta_*`
/// observability counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// Recovery handled by component merging (no BFS).
    Merge,
    /// Failure handled by re-scanning the single affected component.
    Rescan,
    /// Provably partition-preserving; nothing recomputed.
    Noop,
}

/// Lifetime totals of the kernel fast paths. The fourth counter,
/// `full_recomputes`, counts events absorbed by rebuilding the kernel
/// from scratch (an event arriving while no kernel was built).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaCounters {
    /// Events handled by the union-find merge path.
    pub merges: u64,
    /// Events handled by a single-component re-scan.
    pub rescans: u64,
    /// Events filtered as partition-preserving no-ops.
    pub noops: u64,
    /// Events absorbed by a from-scratch kernel rebuild.
    pub full_recomputes: u64,
}

impl DeltaCounters {
    /// Total events classified — every applied event lands in exactly
    /// one bucket, so this must equal the engine's transition count.
    pub fn total(&self) -> u64 {
        self.merges + self.rescans + self.noops + self.full_recomputes
    }
}

/// One maintained component: its member bitset and cached totals.
#[derive(Debug, Clone)]
struct CompSlot {
    members: BitSet,
    votes: u64,
    size: u32,
}

/// Incrementally-maintained partition of the up-subgraph.
///
/// Mirrors the site/link state it was built from; callers must feed it
/// every subsequent state change through [`DeltaConnectivity::apply`]
/// (the engines' shared failure world routes this via
/// `ComponentCache::apply_event`).
#[derive(Debug, Clone)]
pub struct DeltaConnectivity {
    n: usize,
    votes: Vec<u64>,
    /// Endpoints per link index (copied so the kernel is self-contained).
    link_ends: Vec<(usize, usize)>,
    /// Mirror of the site up/down bits.
    site_up: BitSet,
    /// `live_adj[s]`: neighbors of `s` joined by an *up* link,
    /// irrespective of site state (site state is applied as a mask).
    live_adj: Vec<BitSet>,
    /// Component slot per site, [`ComponentView::DOWN`] for down sites.
    comp_of: Vec<u32>,
    slots: Vec<CompSlot>,
    free: Vec<u32>,
    // Scratch buffers so steady-state events allocate nothing.
    scratch: BitSet,
    frontier: BitSet,
    next: BitSet,
}

impl DeltaConnectivity {
    /// Builds the kernel from the current state with a word-parallel BFS.
    ///
    /// # Panics
    /// Panics if `votes.len()` differs from the site count.
    #[expect(
        clippy::disallowed_macros,
        reason = "shape validation runs once per kernel build, never per topology event"
    )]
    pub fn new(topology: &Topology, state: &NetworkState, votes: &[u64]) -> Self {
        let n = topology.num_sites();
        assert_eq!(votes.len(), n, "one vote weight per site");
        let mut live_adj = vec![BitSet::new(n); n];
        let mut link_ends = Vec::with_capacity(topology.num_links());
        for (l, &(a, b)) in topology.links().iter().enumerate() {
            link_ends.push((a, b));
            if state.link_up(l) {
                live_adj[a].set(b, true);
                live_adj[b].set(a, true);
            }
        }
        let site_up = state.site_bits().clone();
        let mut kernel = Self {
            n,
            votes: votes.to_vec(),
            link_ends,
            site_up: site_up.clone(),
            live_adj,
            comp_of: vec![ComponentView::DOWN; n],
            slots: Vec::new(),
            free: Vec::new(),
            scratch: BitSet::new(n),
            frontier: BitSet::new(n),
            next: BitSet::new(n),
        };
        kernel.carve_components(site_up);
        kernel
    }

    /// Applies one state transition and reports which fast path handled
    /// it. The event must describe an actual change (the engines guard
    /// with `NetworkState::set_site`/`set_link` returning `true`).
    pub fn apply(&mut self, event: TopologyEvent) -> DeltaOutcome {
        match event {
            TopologyEvent::Site { site, up: true } => self.site_recovered(site),
            TopologyEvent::Site { site, up: false } => self.site_failed(site),
            TopologyEvent::Link { link, up: true } => self.link_recovered(link),
            TopologyEvent::Link { link, up: false } => self.link_failed(link),
        }
    }

    /// Materializes the canonical [`ComponentView`]: internal slots are
    /// renumbered in order of their lowest site index, which is exactly
    /// the id order [`ComponentView::compute`] assigns.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "component count <= site count; topologies are tens of sites, so u32 has nine decimal orders of headroom"
    )]
    pub fn to_view(&self) -> ComponentView {
        let mut remap = vec![u32::MAX; self.slots.len()];
        let mut comp_id = vec![ComponentView::DOWN; self.n];
        let mut comp_votes = Vec::new();
        let mut comp_sizes = Vec::new();
        let mut members = Vec::new();
        for (site, id) in comp_id.iter_mut().enumerate() {
            let slot = self.comp_of[site];
            if slot == ComponentView::DOWN {
                continue;
            }
            let s = slot as usize;
            if remap[s] == u32::MAX {
                remap[s] = comp_votes.len() as u32;
                comp_votes.push(self.slots[s].votes);
                comp_sizes.push(self.slots[s].size);
                members.push(self.slots[s].members.clone());
            }
            *id = remap[s];
        }
        ComponentView::from_parts(comp_id, comp_votes, comp_sizes, members)
    }

    /// True if the mirrored site bits match `state` (cheap sync check
    /// for debug assertions — a mismatch means a missed event).
    pub fn in_sync_with(&self, state: &NetworkState) -> bool {
        &self.site_up == state.site_bits()
    }

    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! compiles out of release builds"
    )]
    fn site_recovered(&mut self, site: usize) -> DeltaOutcome {
        debug_assert!(!self.site_up.get(site), "recovery of an up site");
        self.site_up.set(site, true);
        let slot = self.alloc_slot();
        let s = slot as usize;
        self.slots[s].members.set(site, true);
        self.slots[s].votes = self.votes[site];
        self.slots[s].size = 1;
        self.comp_of[site] = slot;
        // Union with every component reachable over a live link to an up
        // neighbor. Re-read `comp_of[site]` each step: merging relabels
        // the smaller side, which may be ours.
        let mut reach = std::mem::take(&mut self.scratch);
        reach.copy_from(&self.live_adj[site]);
        reach.and_assign(&self.site_up);
        for nb in reach.iter_ones() {
            let mine = self.comp_of[site];
            let other = self.comp_of[nb];
            if other != mine {
                self.merge_slots(mine, other);
            }
        }
        self.scratch = reach;
        DeltaOutcome::Merge
    }

    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! compiles out of release builds"
    )]
    fn site_failed(&mut self, site: usize) -> DeltaOutcome {
        debug_assert!(self.site_up.get(site), "failure of a down site");
        self.site_up.set(site, false);
        let slot = self.comp_of[site];
        let s = slot as usize;
        self.comp_of[site] = ComponentView::DOWN;
        self.slots[s].members.set(site, false);
        self.slots[s].votes -= self.votes[site];
        self.slots[s].size -= 1;
        if self.slots[s].size == 0 {
            // Already-isolated site: removing it deletes a singleton and
            // provably cannot re-partition anything else.
            self.free_slot(slot);
            return DeltaOutcome::Noop;
        }
        // The remaining members may have split; re-scan only them.
        let remaining = std::mem::take(&mut self.slots[s].members);
        self.free_slot(slot);
        self.carve_components(remaining);
        DeltaOutcome::Rescan
    }

    fn link_recovered(&mut self, link: usize) -> DeltaOutcome {
        let (a, b) = self.link_ends[link];
        self.live_adj[a].set(b, true);
        self.live_adj[b].set(a, true);
        if !self.site_up.get(a) || !self.site_up.get(b) {
            // A down endpoint keeps the link out of the up-subgraph.
            return DeltaOutcome::Noop;
        }
        let (ca, cb) = (self.comp_of[a], self.comp_of[b]);
        if ca == cb {
            // Intra-component edge: the partition is unchanged.
            return DeltaOutcome::Noop;
        }
        self.merge_slots(ca, cb);
        DeltaOutcome::Merge
    }

    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! compiles out of release builds"
    )]
    fn link_failed(&mut self, link: usize) -> DeltaOutcome {
        let (a, b) = self.link_ends[link];
        self.live_adj[a].set(b, false);
        self.live_adj[b].set(a, false);
        if !self.site_up.get(a) || !self.site_up.get(b) {
            // The link was not part of the up-subgraph to begin with.
            return DeltaOutcome::Noop;
        }
        // Both endpoints up ⇒ same component; only it can split (into at
        // most two parts — but carve handles the general case anyway).
        let slot = self.comp_of[a];
        debug_assert_eq!(slot, self.comp_of[b], "up endpoints must share a slot");
        let remaining = std::mem::take(&mut self.slots[slot as usize].members);
        self.free_slot(slot);
        self.carve_components(remaining);
        DeltaOutcome::Rescan
    }

    /// Partitions the sites in `pool` into components via word-parallel
    /// BFS, allocating one slot per component found. `pool` must contain
    /// only up sites; it is consumed.
    fn carve_components(&mut self, mut pool: BitSet) {
        let mut frontier = std::mem::take(&mut self.frontier);
        let mut next = std::mem::take(&mut self.next);
        while let Some(seed) = pool.first_one() {
            let slot = self.alloc_slot();
            let s = slot as usize;
            let mut members = std::mem::take(&mut self.slots[s].members);
            members.set(seed, true);
            pool.set(seed, false);
            frontier.fill(false);
            frontier.set(seed, true);
            loop {
                next.fill(false);
                for site in frontier.iter_ones() {
                    next.or_assign(&self.live_adj[site]);
                }
                next.and_assign(&pool);
                if next.is_all_clear() {
                    break;
                }
                pool.and_not_assign(&next);
                members.or_assign(&next);
                std::mem::swap(&mut frontier, &mut next);
            }
            let mut votes = 0u64;
            let mut size = 0u32;
            for site in members.iter_ones() {
                self.comp_of[site] = slot;
                votes += self.votes[site];
                size += 1;
            }
            self.slots[s].members = members;
            self.slots[s].votes = votes;
            self.slots[s].size = size;
        }
        self.frontier = frontier;
        self.next = next;
    }

    /// Relabels the smaller component into the larger (amortized
    /// smaller-half argument — the classic union-by-size bound).
    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! compiles out of release builds"
    )]
    fn merge_slots(&mut self, x: u32, y: u32) {
        debug_assert_ne!(x, y);
        let (keep, drop) = if self.slots[x as usize].size >= self.slots[y as usize].size {
            (x, y)
        } else {
            (y, x)
        };
        let mut moved = std::mem::take(&mut self.slots[drop as usize].members);
        for site in moved.iter_ones() {
            self.comp_of[site] = keep;
        }
        let k = keep as usize;
        self.slots[k].members.or_assign(&moved);
        self.slots[k].votes += self.slots[drop as usize].votes;
        self.slots[k].size += self.slots[drop as usize].size;
        moved.fill(false);
        self.slots[drop as usize].members = moved;
        self.free_slot(drop);
    }

    /// Pops a cleared slot off the free list (or grows the slab). The
    /// free list bounds the slab at the peak live component count, so
    /// long runs never grow it past `n`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "slot ids are bounded by 2n-1 slots for n sites; u32 holds any representable topology"
    )]
    fn alloc_slot(&mut self) -> u32 {
        if let Some(slot) = self.free.pop() {
            slot
        } else {
            self.slots.push(CompSlot {
                members: BitSet::new(self.n),
                votes: 0,
                size: 0,
            });
            (self.slots.len() - 1) as u32
        }
    }

    fn free_slot(&mut self, slot: u32) {
        let s = slot as usize;
        if self.slots[s].members.len() == self.n {
            self.slots[s].members.fill(false);
        } else {
            // The member bitset was moved out to seed a re-scan; restore
            // capacity so the slot can be reused.
            self.slots[s].members = BitSet::new(self.n);
        }
        self.slots[s].votes = 0;
        self.slots[s].size = 0;
        self.free.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_matches_fresh(
        topology: &Topology,
        state: &NetworkState,
        votes: &[u64],
        kernel: &DeltaConnectivity,
    ) {
        let fresh = ComponentView::compute(topology, state, votes);
        assert_eq!(kernel.to_view(), fresh);
    }

    #[test]
    fn build_matches_compute_on_degraded_ring() {
        let t = Topology::ring_with_chords(21, 4);
        let mut s = NetworkState::all_up(&t);
        s.set_site(3, false);
        s.set_site(17, false);
        s.set_link(0, false);
        s.set_link(9, false);
        let votes: Vec<u64> = (0..21).map(|i| (i % 4 + 1) as u64).collect();
        let kernel = DeltaConnectivity::new(&t, &s, &votes);
        check_matches_fresh(&t, &s, &votes, &kernel);
    }

    #[test]
    fn link_cut_splits_and_repair_merges() {
        let t = Topology::ring(6);
        let mut s = NetworkState::all_up(&t);
        let votes = vec![1u64; 6];
        let mut k = DeltaConnectivity::new(&t, &s, &votes);
        // One cut: still connected (rescan, no split).
        s.set_link(0, false);
        assert_eq!(
            k.apply(TopologyEvent::Link { link: 0, up: false }),
            DeltaOutcome::Rescan
        );
        check_matches_fresh(&t, &s, &votes, &k);
        // Second cut: the ring splits in two.
        s.set_link(3, false);
        assert_eq!(
            k.apply(TopologyEvent::Link { link: 3, up: false }),
            DeltaOutcome::Rescan
        );
        check_matches_fresh(&t, &s, &votes, &k);
        assert_eq!(k.to_view().num_components(), 2);
        // Repair one: merge without BFS.
        s.set_link(0, true);
        assert_eq!(
            k.apply(TopologyEvent::Link { link: 0, up: true }),
            DeltaOutcome::Merge
        );
        check_matches_fresh(&t, &s, &votes, &k);
        assert_eq!(k.to_view().num_components(), 1);
    }

    #[test]
    fn noop_filters_fire() {
        let t = Topology::ring(5);
        let mut s = NetworkState::all_up(&t);
        let votes = vec![1u64; 5];
        let mut k = DeltaConnectivity::new(&t, &s, &votes);
        // Fail site 1: its links (0,1) and (1,2) now have a down endpoint.
        s.set_site(1, false);
        assert_eq!(
            k.apply(TopologyEvent::Site { site: 1, up: false }),
            DeltaOutcome::Rescan
        );
        // Toggling a link with a down endpoint is a no-op both ways.
        s.set_link(0, false);
        assert_eq!(
            k.apply(TopologyEvent::Link { link: 0, up: false }),
            DeltaOutcome::Noop
        );
        s.set_link(0, true);
        assert_eq!(
            k.apply(TopologyEvent::Link { link: 0, up: true }),
            DeltaOutcome::Noop
        );
        check_matches_fresh(&t, &s, &votes, &k);
        // Isolate site 3 fully, then fail it: singleton removal no-op.
        s.set_link(2, false); // (2,3)
        k.apply(TopologyEvent::Link { link: 2, up: false });
        s.set_link(3, false); // (3,4)
        k.apply(TopologyEvent::Link { link: 3, up: false });
        check_matches_fresh(&t, &s, &votes, &k);
        s.set_site(3, false);
        assert_eq!(
            k.apply(TopologyEvent::Site { site: 3, up: false }),
            DeltaOutcome::Noop
        );
        check_matches_fresh(&t, &s, &votes, &k);
    }

    #[test]
    fn intra_component_link_repair_is_noop() {
        let t = Topology::ring_with_chords(8, 2);
        let mut s = NetworkState::all_up(&t);
        let votes = vec![1u64; 8];
        let mut k = DeltaConnectivity::new(&t, &s, &votes);
        // Drop one ring edge: chords keep everything connected, so the
        // eventual repair reconnects within one component.
        s.set_link(0, false);
        k.apply(TopologyEvent::Link { link: 0, up: false });
        s.set_link(0, true);
        assert_eq!(
            k.apply(TopologyEvent::Link { link: 0, up: true }),
            DeltaOutcome::Noop
        );
        check_matches_fresh(&t, &s, &votes, &k);
    }

    #[test]
    fn hub_failure_and_recovery_on_star() {
        let t = Topology::star(6);
        let mut s = NetworkState::all_up(&t);
        let votes: Vec<u64> = (1..=6).map(|v| v as u64).collect();
        let mut k = DeltaConnectivity::new(&t, &s, &votes);
        s.set_site(0, false);
        assert_eq!(
            k.apply(TopologyEvent::Site { site: 0, up: false }),
            DeltaOutcome::Rescan
        );
        check_matches_fresh(&t, &s, &votes, &k);
        assert_eq!(k.to_view().num_components(), 5);
        s.set_site(0, true);
        assert_eq!(
            k.apply(TopologyEvent::Site { site: 0, up: true }),
            DeltaOutcome::Merge
        );
        check_matches_fresh(&t, &s, &votes, &k);
        assert_eq!(k.to_view().num_components(), 1);
    }

    #[test]
    fn all_down_and_back_up() {
        let t = Topology::ring(4);
        let mut s = NetworkState::all_up(&t);
        let votes = vec![2u64; 4];
        let mut k = DeltaConnectivity::new(&t, &s, &votes);
        for i in 0..4 {
            s.set_site(i, false);
            k.apply(TopologyEvent::Site { site: i, up: false });
            check_matches_fresh(&t, &s, &votes, &k);
        }
        assert_eq!(k.to_view().num_components(), 0);
        for i in 0..4 {
            s.set_site(i, true);
            k.apply(TopologyEvent::Site { site: i, up: true });
            check_matches_fresh(&t, &s, &votes, &k);
        }
        assert_eq!(k.to_view().num_components(), 1);
        assert!(k.in_sync_with(&s));
    }

    #[test]
    fn slab_stays_bounded_under_churn() {
        let t = Topology::ring(9);
        let mut s = NetworkState::all_up(&t);
        let votes = vec![1u64; 9];
        let mut k = DeltaConnectivity::new(&t, &s, &votes);
        for round in 0..50usize {
            let site = (round * 5) % 9;
            let up = !s.site_up(site);
            s.set_site(site, up);
            k.apply(TopologyEvent::Site { site, up });
            let link = (round * 3) % 9;
            let lup = !s.link_up(link);
            s.set_link(link, lup);
            k.apply(TopologyEvent::Link { link, up: lup });
            check_matches_fresh(&t, &s, &votes, &k);
        }
        assert!(k.slots.len() <= 9, "slab grew past peak: {}", k.slots.len());
    }
}
