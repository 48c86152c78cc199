//! Equivalence pinning for the incremental connectivity kernel.
//!
//! The contract under test: the kernel must never change a reported
//! number. [`LiveNetwork`]'s kernel (merge on recovery, single-component
//! rescan on failure, no-op filtering) must produce component views
//! bit-identical to the full-BFS oracle [`ComponentView::compute`] after
//! *every* event of *any* event sequence, and must classify every event
//! into exactly one fast-path counter. The kernel's direct reads — the
//! ones the engines' access paths use — must agree with the oracle too,
//! and a slot whose generation did not move must hold the same members.

use proptest::prelude::*;
use quorum_graph::{
    BitSet, ComponentView, DeltaConnectivity, LiveNetwork, NetworkState, Topology, TopologyEvent,
};

/// The topology families named by the paper's §5 experiments plus the
/// weighted-bus encoding (star whose hub carries zero votes).
fn family(kind: usize, n: usize) -> (Topology, Vec<u64>) {
    let n = n.max(5);
    match kind % 4 {
        0 => (Topology::ring(n), vec![1; n]),
        1 => {
            // Weighted votes: exercise non-uniform component vote sums.
            let votes = (0..n).map(|i| (i % 3 + 1) as u64).collect();
            (Topology::ring_with_chords(n, n / 2), votes)
        }
        2 => {
            // Bus as in the §4.2 experiments: hub relays but votes 0.
            let mut votes = vec![1u64; n];
            votes[0] = 0;
            (Topology::star(n), votes)
        }
        _ => (Topology::star(n), vec![1; n]),
    }
}

/// [`family`] plus a complete graph (kind 4), where every cut is settled
/// by a common neighbour.
fn kernel_family(kind: usize, n: usize) -> (Topology, Vec<u64>) {
    if kind == 4 {
        let n = n.max(5);
        (
            Topology::fully_connected(n),
            (0..n).map(|i| (i % 2 + 1) as u64).collect(),
        )
    } else {
        family(kind, n)
    }
}

/// Applies one toggle chosen by `pick`, keeping every event a real
/// transition (`up = !current`). Returns the event applied.
fn toggle(state: &mut NetworkState, topo: &Topology, pick: usize) -> TopologyEvent {
    let n = topo.num_sites();
    let m = topo.num_links();
    let idx = pick % (n + m);
    if idx < n {
        let up = !state.site_up(idx);
        assert!(state.set_site(idx, up));
        TopologyEvent::Site { site: idx, up }
    } else {
        let link = idx - n;
        let up = !state.link_up(link);
        assert!(state.set_link(link, up));
        TopologyEvent::Link { link, up }
    }
}

/// [`toggle`] applied to a live network through its setters.
fn toggle_live(net: &mut LiveNetwork<'_>, topo: &Topology, pick: usize) {
    let mut state = net.state().clone();
    let changed = match toggle(&mut state, topo, pick) {
        TopologyEvent::Site { site, up } => net.set_site(site, up),
        TopologyEvent::Link { link, up } => net.set_link(link, up),
    };
    assert!(changed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every event of a random sequence, the incremental cache's
    /// view equals the reference BFS bit-for-bit: same `comp_id`, same
    /// vote sums, same sizes, same member bitsets.
    #[test]
    fn random_event_sequences_match_reference(
        kind in 0usize..4,
        n in 4usize..22,
        picks in proptest::collection::vec(0usize..10_000, 1..70),
    ) {
        let (topo, votes) = family(kind, n);
        let mut net = LiveNetwork::new(&topo, &votes);
        // Build the kernel before any event so merges/rescans (not rebuild
        // fallbacks) carry the sequence.
        net.partition();
        for &pick in &picks {
            toggle_live(&mut net, &topo, pick);
            let expected = ComponentView::compute(&topo, net.state(), &votes);
            prop_assert_eq!(net.partition().to_view(), expected);
        }
    }

    /// After every event of a random sequence, the kernel's direct reads
    /// equal the oracle: each site's slot votes, `connected` for every
    /// pair and the largest vote total. A slot whose generation did not
    /// move holds the members it held before the event, and an event
    /// reported as partition-preserving left the oracle's view as it was.
    #[test]
    fn kernel_reads_match_reference(
        kind in 0usize..5,
        n in 4usize..22,
        picks in proptest::collection::vec(0usize..10_000, 1..70),
    ) {
        let (topo, votes) = kernel_family(kind, n);
        let n = topo.num_sites();
        let mut state = NetworkState::all_up(&topo);
        let mut kernel = DeltaConnectivity::new(&topo, &state, &votes);
        let mut previous = ComponentView::compute(&topo, &state, &votes);
        for &pick in &picks {
            let before: Vec<(u32, u64, BitSet)> = kernel
                .live_slots()
                .map(|slot| {
                    let members = kernel.slot_members(slot).clone();
                    (slot, kernel.slot_generation(slot), members)
                })
                .collect();
            let ev = toggle(&mut state, &topo, pick);
            let applied = kernel.apply(ev);
            let expected = ComponentView::compute(&topo, &state, &votes);
            for a in 0..n {
                prop_assert_eq!(kernel.votes_of(a), expected.votes_of(a));
                let slot = kernel.slot_of(a);
                if expected.component_of(a) == ComponentView::DOWN {
                    prop_assert_eq!(slot, ComponentView::DOWN);
                } else {
                    prop_assert_eq!(kernel.slot_votes(slot), expected.votes_of(a));
                    prop_assert!(kernel.slot_members(slot).get(a));
                }
                for b in 0..n {
                    prop_assert_eq!(kernel.connected(a, b), expected.connected(a, b));
                }
            }
            prop_assert_eq!(kernel.largest_votes(), expected.largest_component_votes());
            for (slot, generation, members) in before {
                if kernel.slot_generation(slot) == generation {
                    prop_assert_eq!(kernel.slot_members(slot), &members);
                }
            }
            if !applied.changed {
                prop_assert_eq!(&expected, &previous);
            }
            previous = expected;
        }
    }

    /// Every applied event lands in exactly one fast-path counter, so
    /// the counter sum equals the event count (the invariant the CI jq
    /// gate asserts on run manifests).
    #[test]
    fn counter_sum_equals_event_count(
        kind in 0usize..4,
        n in 4usize..22,
        picks in proptest::collection::vec(0usize..10_000, 1..70),
    ) {
        let (topo, votes) = family(kind, n);
        let mut net = LiveNetwork::new(&topo, &votes);
        for &pick in &picks {
            toggle_live(&mut net, &topo, pick);
        }
        prop_assert_eq!(net.delta_counters().total(), picks.len() as u64);
    }
}

/// Everything down, then everything back up: the emptiest and fullest
/// component structures, reached through pure fast paths.
#[test]
fn all_down_then_all_up_matches_reference() {
    let (topo, votes) = family(1, 12);
    let mut net = LiveNetwork::new(&topo, &votes);
    net.partition();
    let n = topo.num_sites();
    for phase in [false, true] {
        for s in 0..n {
            assert!(net.set_site(s, phase));
            let expected = ComponentView::compute(&topo, net.state(), &votes);
            assert_eq!(net.partition().to_view(), expected);
        }
    }
    assert_eq!(net.partition().to_view().num_components(), 1);
}

/// Hub failure on a star shatters one component into n−1 singletons in a
/// single rescan; hub recovery re-merges them.
#[test]
fn star_hub_failure_and_recovery_match_reference() {
    let (topo, votes) = family(3, 9);
    let mut net = LiveNetwork::new(&topo, &votes);
    net.partition();
    for up in [false, true] {
        assert!(net.set_site(0, up));
        let expected = ComponentView::compute(&topo, net.state(), &votes);
        assert_eq!(net.partition().to_view(), expected);
        let want = if up { 1 } else { topo.num_sites() - 1 };
        assert_eq!(net.partition().to_view().num_components(), want);
    }
    let counters = net.delta_counters();
    assert_eq!(counters.rescans, 1, "hub failure is one component rescan");
    assert_eq!(counters.merges, 1, "hub recovery is one merge cascade");
}
