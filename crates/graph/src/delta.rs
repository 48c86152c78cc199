//! Incremental component maintenance over the up-subgraph.
//!
//! [`ComponentView::compute`] re-runs a whole-graph BFS over edge lists
//! after every topology event. At paper scale (101 sites, chord variants
//! up to 5 050 links) that BFS dominates batch wall-clock. This module
//! maintains the partition *incrementally* instead, as a slab of
//! component slots (member bitset, vote total, size):
//!
//! * **Recovery merges, never scans.** A site or link coming up can only
//!   join existing components. Joining is a union-find-style
//!   smaller-into-larger relabel over member bitsets — no BFS at all.
//! * **A link failure searches from both ends.** Cutting a link between
//!   two up sites runs a lockstep breadth-first search from each
//!   endpoint inside their component, one level per side per turn. If
//!   the searches meet, the partition is unchanged and nothing is
//!   relabelled; meeting at depth one is the common-neighbour witness,
//!   which costs a few word operations on dense graphs. If one side runs
//!   out first, that side is the whole split-off component and only it
//!   moves to a new slot.
//! * **A site failure searches only when it must.** An isolated site
//!   just deletes its singleton; a leaf (one live neighbour) leaves a
//!   connected remainder; a site with two live neighbours runs the same
//!   two-sided search between them. Only a site with three or more live
//!   neighbours re-scans its component's remaining members.
//! * **Provable no-ops are filtered.** Toggling a link with a down
//!   endpoint or restoring a link inside one component cannot change the
//!   partition; these events cost O(1).
//!
//! All scans are *word-parallel*: per-site adjacency lives in
//! [`BitSet`]s keyed by live (up) links, so a BFS frontier expands by
//! OR-ing 64 sites at a time rather than walking `(neighbor, link)`
//! pairs.
//!
//! **Reads.** The kernel is the only partition representation the
//! engines read: [`DeltaConnectivity::slot_of`],
//! [`DeltaConnectivity::slot_votes`], [`DeltaConnectivity::slot_members`],
//! [`DeltaConnectivity::votes_of`], [`DeltaConnectivity::connected`] and
//! [`DeltaConnectivity::largest_votes`], which the kernel keeps current.
//! Every slot carries a *generation* stamp
//! ([`DeltaConnectivity::slot_generation`]) drawn from one counter and
//! moved whenever the slot's membership moves (allocated, merged, split,
//! a member removed, freed), so `(slot, generation)` names one member set
//! for the kernel's lifetime and per-component data keyed on it stays
//! valid across every event that did not touch that slot. Every engine
//! reaches this kernel through a [`LiveNetwork`](crate::LiveNetwork),
//! the one owner of the up/down state: its `set_site` and `set_link`
//! hand each actual change to [`DeltaConnectivity::apply`], so no caller
//! can change the state without the kernel seeing it. The replica,
//! cluster and shard engines share one `quorum_replica` `FailureWorld`,
//! which drives its `LiveNetwork`; the scripted scenarios drive one
//! directly.
//!
//! **Oracle bridge.** [`DeltaConnectivity::to_view`] renumbers the slots
//! in first-site order, which makes the materialized [`ComponentView`]
//! *bit-identical* to a fresh [`ComponentView::compute`]. Only the tests
//! and `kernel_replay`'s oracle arms call it: the event-sequence
//! proptests in `tests/delta_kernel.rs` pin the kernel against that
//! full-BFS oracle, so the kernel can never change a reported number.

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

/// One site/link up-down transition, as [`LiveNetwork`](crate::LiveNetwork)
/// hands it to the kernel after its state reported a change.
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
pub(crate) enum DeltaOutcome {
    /// Recovery handled by component merging (no BFS).
    Merge,
    /// A site failure in a component of two or more sites, or a link
    /// failure that split its component.
    Rescan,
    /// Nothing to re-partition: a link the up-subgraph did not use, a
    /// link cut whose endpoints stay joined, or the failure of an
    /// isolated site.
    Noop,
}

/// What [`DeltaConnectivity::apply`] did with one event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Applied {
    /// The fast path that handled the event.
    pub(crate) outcome: DeltaOutcome,
    /// Whether the partition changed: an up site appeared or vanished,
    /// or components merged or split. Only a link event can leave it
    /// unchanged.
    pub changed: bool,
}

/// Lifetime totals of the kernel fast paths. The fourth counter,
/// `full_recomputes`, counts events absorbed by rebuilding the kernel
/// from scratch (an event arriving while no kernel was built).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaCounters {
    /// Events handled by the union-find merge path.
    pub merges: u64,
    /// Site failures in multi-site components, and link failures that
    /// split a component.
    pub rescans: u64,
    /// Events that needed no re-partitioning.
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

/// One maintained component: its member bitset, cached totals and the
/// generation of its current member set.
#[derive(Debug, Clone)]
struct CompSlot {
    members: BitSet,
    votes: u64,
    size: u32,
    generation: u64,
}

/// Incrementally-maintained partition of the up-subgraph.
///
/// Mirrors the site/link state it was built from; every subsequent state
/// change must reach it through [`DeltaConnectivity::apply`].
/// [`LiveNetwork`](crate::LiveNetwork) owns the state and the kernel
/// together, so its setters are the only way the engines change either.
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
    /// The last generation stamped on a slot (stamps start at 1).
    generation: u64,
    /// Vote total of the largest component (0 when every site is down).
    largest: u64,
    // Scratch buffers so steady-state events allocate nothing: the
    // two-sided search's visited sets and frontiers, one per side, and
    // the expansion buffer shared with the re-scan.
    seen: [BitSet; 2],
    frontier: [BitSet; 2],
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
            generation: 0,
            largest: 0,
            seen: [BitSet::new(n), BitSet::new(n)],
            frontier: [BitSet::new(n), BitSet::new(n)],
            next: BitSet::new(n),
        };
        kernel.carve_components(site_up);
        kernel.refresh_largest();
        kernel
    }

    /// Applies one state transition and reports which fast path handled
    /// it and whether the partition changed. The event must describe an
    /// actual change (`LiveNetwork`'s setters pass on only those).
    pub fn apply(&mut self, event: TopologyEvent) -> Applied {
        let applied = match event {
            TopologyEvent::Site { site, up: true } => self.site_recovered(site),
            TopologyEvent::Site { site, up: false } => self.site_failed(site),
            TopologyEvent::Link { link, up: true } => self.link_recovered(link),
            TopologyEvent::Link { link, up: false } => self.link_failed(link),
        };
        if applied.changed {
            self.refresh_largest();
        }
        applied
    }

    /// Slot of the component holding `site`, or [`ComponentView::DOWN`]
    /// if the site is down. Slot ids are internal: they are stable only
    /// while the slot's generation does not move.
    #[inline]
    pub fn slot_of(&self, site: usize) -> u32 {
        self.comp_of[site]
    }

    /// Vote total of the live component in `slot`.
    #[inline]
    pub fn slot_votes(&self, slot: u32) -> u64 {
        self.slots[slot as usize].votes
    }

    /// Member bitset of the live component in `slot`.
    #[inline]
    pub fn slot_members(&self, slot: u32) -> &BitSet {
        &self.slots[slot as usize].members
    }

    /// Generation of `slot`'s member set: it moves whenever the members
    /// move, and no two member sets of one kernel share a generation.
    #[inline]
    pub fn slot_generation(&self, slot: u32) -> u64 {
        self.slots[slot as usize].generation
    }

    /// Slots holding a live component, in slot order.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "slot ids are bounded by 2n-1 slots for n sites; u32 holds any representable topology"
    )]
    pub fn live_slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.size > 0)
            .map(|(s, _)| s as u32)
    }

    /// Votes reachable from `site` (0 if the site is down).
    #[inline]
    pub fn votes_of(&self, site: usize) -> u64 {
        match self.comp_of[site] {
            ComponentView::DOWN => 0,
            slot => self.slots[slot as usize].votes,
        }
    }

    /// True if `a` and `b` are both up and mutually reachable.
    #[inline]
    pub fn connected(&self, a: usize, b: usize) -> bool {
        self.comp_of[a] != ComponentView::DOWN && self.comp_of[a] == self.comp_of[b]
    }

    /// Vote total of the largest component (0 if every site is down):
    /// the quantity behind the SURV metric.
    #[inline]
    pub fn largest_votes(&self) -> u64 {
        self.largest
    }

    /// Materializes the canonical [`ComponentView`] for comparison with
    /// the full-BFS oracle: internal slots are renumbered in order of
    /// their lowest site index, which is exactly the id order
    /// [`ComponentView::compute`] assigns.
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

    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! compiles out of release builds"
    )]
    fn site_recovered(&mut self, site: usize) -> Applied {
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
        let mut reach = std::mem::take(&mut self.next);
        reach.copy_from(&self.live_adj[site]);
        reach.and_assign(&self.site_up);
        for nb in reach.iter_ones() {
            let mine = self.comp_of[site];
            let other = self.comp_of[nb];
            if other != mine {
                self.merge_slots(mine, other);
            }
        }
        self.next = reach;
        Applied {
            outcome: DeltaOutcome::Merge,
            changed: true,
        }
    }

    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! compiles out of release builds"
    )]
    fn site_failed(&mut self, site: usize) -> Applied {
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
            return Applied {
                outcome: DeltaOutcome::Noop,
                changed: true,
            };
        }
        self.stamp(slot);
        // Its live neighbours are exactly its component's sites adjacent
        // to it; with the site gone, only they can have come apart.
        let mut around = std::mem::take(&mut self.next);
        around.copy_from(&self.live_adj[site]);
        around.and_assign(&self.site_up);
        let (first, second, third) = {
            let mut near = around.iter_ones();
            (near.next(), near.next(), near.next())
        };
        self.next = around;
        match (first, second, third) {
            // A leaf: the rest of its component stays connected.
            (Some(_), None, _) => {}
            (Some(u), Some(v), None) => {
                self.cut_between(slot, u, v);
            }
            _ => {
                // Three or more neighbours: re-scan the remaining members.
                let remaining = std::mem::take(&mut self.slots[s].members);
                self.free_slot(slot);
                self.carve_components(remaining);
            }
        }
        Applied {
            outcome: DeltaOutcome::Rescan,
            changed: true,
        }
    }

    fn link_recovered(&mut self, link: usize) -> Applied {
        let (a, b) = self.link_ends[link];
        self.live_adj[a].set(b, true);
        self.live_adj[b].set(a, true);
        let (ca, cb) = (self.comp_of[a], self.comp_of[b]);
        // A down endpoint keeps the link out of the up-subgraph, and an
        // intra-component edge leaves the partition as it was.
        if !self.site_up.get(a) || !self.site_up.get(b) || ca == cb {
            return Applied {
                outcome: DeltaOutcome::Noop,
                changed: false,
            };
        }
        self.merge_slots(ca, cb);
        Applied {
            outcome: DeltaOutcome::Merge,
            changed: true,
        }
    }

    #[expect(
        clippy::disallowed_macros,
        reason = "debug_assert! compiles out of release builds"
    )]
    fn link_failed(&mut self, link: usize) -> Applied {
        let (a, b) = self.link_ends[link];
        self.live_adj[a].set(b, false);
        self.live_adj[b].set(a, false);
        let unchanged = Applied {
            outcome: DeltaOutcome::Noop,
            changed: false,
        };
        if !self.site_up.get(a) || !self.site_up.get(b) {
            // The link was not part of the up-subgraph to begin with.
            return unchanged;
        }
        // Both endpoints up ⇒ same component; only it can split, and
        // into at most two parts.
        let slot = self.comp_of[a];
        debug_assert_eq!(slot, self.comp_of[b], "up endpoints must share a slot");
        if !self.cut_between(slot, a, b) {
            return unchanged;
        }
        Applied {
            outcome: DeltaOutcome::Rescan,
            changed: true,
        }
    }

    /// Settles whether `u` and `v`, both members of `slot`, are still
    /// joined after an edge or a site between them went away. A lockstep
    /// breadth-first search runs from each, one level per side per turn.
    /// If the searches meet, nothing moves. If one side runs out first,
    /// its visited set is a whole component, and only it moves to a new
    /// slot; `slot` keeps the other side under a new generation.
    /// Returns whether the component split.
    fn cut_between(&mut self, slot: u32, u: usize, v: usize) -> bool {
        let [mut seen_u, mut seen_v] = std::mem::take(&mut self.seen);
        let [mut front_u, mut front_v] = std::mem::take(&mut self.frontier);
        let mut next = std::mem::take(&mut self.next);
        for (seen, front, start) in [
            (&mut seen_u, &mut front_u, u),
            (&mut seen_v, &mut front_v, v),
        ] {
            seen.fill(false);
            seen.set(start, true);
            front.fill(false);
            front.set(start, true);
        }
        let ran_out = 'search: loop {
            for side in 0..2 {
                let (seen, front, other) = if side == 0 {
                    (&mut seen_u, &mut front_u, &seen_v)
                } else {
                    (&mut seen_v, &mut front_v, &seen_u)
                };
                next.fill(false);
                for site in front.iter_ones() {
                    next.or_assign(&self.live_adj[site]);
                }
                next.and_assign(&self.site_up);
                next.and_not_assign(seen);
                if next.intersects(other) {
                    break 'search None;
                }
                if next.is_all_clear() {
                    break 'search Some(side);
                }
                seen.or_assign(&next);
                std::mem::swap(front, &mut next);
            }
        };
        match ran_out {
            Some(0) => self.split_off(slot, &seen_u),
            Some(_) => self.split_off(slot, &seen_v),
            None => {}
        }
        self.seen = [seen_u, seen_v];
        self.frontier = [front_u, front_v];
        self.next = next;
        ran_out.is_some()
    }

    /// Moves the sites of `part`, a whole component inside `slot`, to a
    /// new slot.
    fn split_off(&mut self, slot: u32, part: &BitSet) {
        let new = self.alloc_slot();
        let (mut votes, mut size) = (0u64, 0u32);
        for site in part.iter_ones() {
            self.comp_of[site] = new;
            votes += self.votes[site];
            size += 1;
        }
        let moved = &mut self.slots[new as usize];
        moved.members.copy_from(part);
        moved.votes = votes;
        moved.size = size;
        let kept = &mut self.slots[slot as usize];
        kept.members.and_not_assign(part);
        kept.votes -= votes;
        kept.size -= size;
        self.stamp(slot);
    }

    /// Partitions the sites in `pool` into components via word-parallel
    /// BFS, allocating one slot per component found. `pool` must contain
    /// only up sites; it is consumed.
    fn carve_components(&mut self, mut pool: BitSet) {
        let [mut frontier, spare] = std::mem::take(&mut self.frontier);
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
        self.frontier = [frontier, spare];
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
        self.stamp(keep);
        moved.fill(false);
        self.slots[drop as usize].members = moved;
        self.free_slot(drop);
    }

    /// Gives `slot` a fresh generation: its member set just moved.
    fn stamp(&mut self, slot: u32) {
        self.generation += 1;
        self.slots[slot as usize].generation = self.generation;
    }

    /// Recomputes the largest component vote total over the live slots
    /// (free slots hold zero votes).
    fn refresh_largest(&mut self) {
        self.largest = self.slots.iter().map(|s| s.votes).max().unwrap_or(0);
    }

    /// Pops a cleared slot off the free list (or grows the slab) and
    /// stamps it. The free list bounds the slab at the peak live
    /// component count, so long runs never grow it past `n`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "slot ids are bounded by 2n-1 slots for n sites; u32 holds any representable topology"
    )]
    fn alloc_slot(&mut self) -> u32 {
        let slot = if let Some(slot) = self.free.pop() {
            slot
        } else {
            self.slots.push(CompSlot {
                members: BitSet::new(self.n),
                votes: 0,
                size: 0,
                generation: 0,
            });
            (self.slots.len() - 1) as u32
        };
        self.stamp(slot);
        slot
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
        self.stamp(slot);
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
        // One cut: the two-sided search meets, so the ring stays one
        // component and nothing is relabelled.
        s.set_link(0, false);
        assert_eq!(
            k.apply(TopologyEvent::Link { link: 0, up: false }),
            Applied {
                outcome: DeltaOutcome::Noop,
                changed: false
            }
        );
        check_matches_fresh(&t, &s, &votes, &k);
        // Second cut: the ring splits in two.
        s.set_link(3, false);
        assert_eq!(
            k.apply(TopologyEvent::Link { link: 3, up: false }).outcome,
            DeltaOutcome::Rescan
        );
        check_matches_fresh(&t, &s, &votes, &k);
        assert_eq!(k.to_view().num_components(), 2);
        // Repair one: merge without BFS.
        s.set_link(0, true);
        assert_eq!(
            k.apply(TopologyEvent::Link { link: 0, up: true }).outcome,
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
            k.apply(TopologyEvent::Site { site: 1, up: false }).outcome,
            DeltaOutcome::Rescan
        );
        // Toggling a link with a down endpoint is a no-op both ways.
        s.set_link(0, false);
        assert_eq!(
            k.apply(TopologyEvent::Link { link: 0, up: false }).outcome,
            DeltaOutcome::Noop
        );
        s.set_link(0, true);
        assert_eq!(
            k.apply(TopologyEvent::Link { link: 0, up: true }).outcome,
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
            k.apply(TopologyEvent::Site { site: 3, up: false }).outcome,
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
            k.apply(TopologyEvent::Link { link: 0, up: true }).outcome,
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
            k.apply(TopologyEvent::Site { site: 0, up: false }).outcome,
            DeltaOutcome::Rescan
        );
        check_matches_fresh(&t, &s, &votes, &k);
        assert_eq!(k.to_view().num_components(), 5);
        s.set_site(0, true);
        assert_eq!(
            k.apply(TopologyEvent::Site { site: 0, up: true }).outcome,
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
        assert_eq!(&k.site_up, s.site_bits(), "the kernel saw every event");
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

    /// `(slot, generation, members)` of every live slot.
    fn slot_table(k: &DeltaConnectivity) -> Vec<(u32, u64, Vec<usize>)> {
        k.live_slots()
            .map(|slot| {
                let members = k.slot_members(slot).iter_ones().collect();
                (slot, k.slot_generation(slot), members)
            })
            .collect()
    }

    #[test]
    fn cut_of_an_intact_ring_preserves_the_partition() {
        let t = Topology::ring(9);
        let mut s = NetworkState::all_up(&t);
        let votes: Vec<u64> = (1..=9).collect();
        let mut k = DeltaConnectivity::new(&t, &s, &votes);
        let before = slot_table(&k);
        s.set_link(4, false);
        let applied = k.apply(TopologyEvent::Link { link: 4, up: false });
        assert_eq!(
            applied,
            Applied {
                outcome: DeltaOutcome::Noop,
                changed: false
            }
        );
        assert_eq!(slot_table(&k), before, "nothing relabelled or restamped");
        assert_eq!(k.largest_votes(), 45);
        check_matches_fresh(&t, &s, &votes, &k);
    }

    #[test]
    fn path_cut_moves_only_the_side_that_ran_out() {
        // Path 0-1-2-…-7; cutting (1,2) leaves {0,1} and {2..=7}. The
        // search from 1 runs out after one level, so {0,1} moves to a
        // new slot and the long side keeps its slot under a new
        // generation.
        let t = Topology::path(8);
        let mut s = NetworkState::all_up(&t);
        let votes = vec![1u64; 8];
        let mut k = DeltaConnectivity::new(&t, &s, &votes);
        let (slot, generation) = (k.slot_of(5), k.slot_generation(k.slot_of(5)));
        s.set_link(1, false);
        let applied = k.apply(TopologyEvent::Link { link: 1, up: false });
        assert_eq!(
            applied,
            Applied {
                outcome: DeltaOutcome::Rescan,
                changed: true
            }
        );
        for site in 2..8 {
            assert_eq!(k.slot_of(site), slot, "site {site} stayed put");
        }
        assert_ne!(k.slot_generation(slot), generation);
        assert_eq!(k.slot_votes(slot), 6);
        let short = k.slot_of(0);
        assert_ne!(short, slot);
        assert_eq!(k.slot_of(1), short);
        assert_eq!(
            k.slot_members(short).iter_ones().collect::<Vec<_>>(),
            [0, 1]
        );
        assert!(k.connected(0, 1) && !k.connected(1, 2));
        assert_eq!(k.largest_votes(), 6);
        check_matches_fresh(&t, &s, &votes, &k);
    }

    #[test]
    fn dense_graph_cut_meets_at_depth_one() {
        // Every pair of a complete graph has common neighbours, so each
        // cut is settled by the first level of each search.
        let t = Topology::fully_connected(7);
        let mut s = NetworkState::all_up(&t);
        let votes = vec![1u64; 7];
        let mut k = DeltaConnectivity::new(&t, &s, &votes);
        let before = slot_table(&k);
        // Links 0..5 are five of site 0's six: it keeps one.
        for link in 0..5 {
            s.set_link(link, false);
            let applied = k.apply(TopologyEvent::Link { link, up: false });
            assert_eq!(applied.outcome, DeltaOutcome::Noop);
            assert!(!applied.changed);
        }
        assert_eq!(slot_table(&k), before);
        check_matches_fresh(&t, &s, &votes, &k);
    }

    #[test]
    fn site_failure_with_two_neighbours_on_a_ring() {
        let t = Topology::ring(6);
        let mut s = NetworkState::all_up(&t);
        let votes: Vec<u64> = (1..=6).collect();
        let mut k = DeltaConnectivity::new(&t, &s, &votes);
        let slot = k.slot_of(3);
        let generation = k.slot_generation(slot);
        // Site 0's neighbours 1 and 5 stay joined the long way round.
        s.set_site(0, false);
        let applied = k.apply(TopologyEvent::Site { site: 0, up: false });
        assert_eq!(
            applied,
            Applied {
                outcome: DeltaOutcome::Rescan,
                changed: true
            }
        );
        assert_eq!(k.slot_of(3), slot, "the remainder keeps its slot");
        assert_ne!(k.slot_generation(slot), generation, "a member left");
        assert_eq!((k.slot_votes(slot), k.largest_votes()), (20, 20));
        check_matches_fresh(&t, &s, &votes, &k);
        // Site 3's neighbours 2 and 4 are now cut apart: {1,2} | {4,5}.
        s.set_site(3, false);
        let applied = k.apply(TopologyEvent::Site { site: 3, up: false });
        assert_eq!(applied.outcome, DeltaOutcome::Rescan);
        assert!(!k.connected(2, 4));
        assert_eq!(k.largest_votes(), 11);
        check_matches_fresh(&t, &s, &votes, &k);
        assert_eq!(k.to_view().num_components(), 2);
    }

    #[test]
    fn leaf_failure_keeps_the_slot() {
        let t = Topology::path(4);
        let mut s = NetworkState::all_up(&t);
        let votes = vec![2u64; 4];
        let mut k = DeltaConnectivity::new(&t, &s, &votes);
        let slot = k.slot_of(0);
        s.set_site(3, false);
        let applied = k.apply(TopologyEvent::Site { site: 3, up: false });
        assert_eq!(applied.outcome, DeltaOutcome::Rescan);
        assert_eq!((k.slot_of(0), k.slot_votes(slot)), (slot, 6));
        check_matches_fresh(&t, &s, &votes, &k);
    }
}
