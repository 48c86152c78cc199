//! Property tests on the network substrate: component labelling agrees
//! with union-find on arbitrary random graphs and failure patterns, and
//! topology constructors maintain their structural invariants.

use proptest::prelude::*;
use quorum_graph::{ComponentView, NetworkState, Topology};
use rand::SeedableRng;
use union_find::UnionFind;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// BFS component labelling ≡ union-find over up links, on random
    /// G(n,p) graphs with random site/link failures.
    #[test]
    fn bfs_equals_union_find(
        n in 2usize..24,
        p in 0.0f64..1.0,
        graph_seed in 0u64..1_000,
        fail_bits in 0u64..u64::MAX,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(graph_seed);
        let topo = Topology::gnp(n, p, &mut rng);
        let mut state = NetworkState::all_up(&topo);
        // Derive failures from fail_bits.
        for s in 0..n {
            if fail_bits >> (s % 64) & 1 == 1 {
                state.set_site(s, false);
            }
        }
        for l in 0..topo.num_links() {
            if fail_bits >> ((l + 17) % 64) & 1 == 1 {
                state.set_link(l, false);
            }
        }
        let votes = vec![1u64; n];
        let view = ComponentView::compute(&topo, &state, &votes);
        let mut uf = UnionFind::new(n);
        for (idx, &(a, b)) in topo.links().iter().enumerate() {
            if state.link_up(idx) && state.site_up(a) && state.site_up(b) {
                uf.union(a, b);
            }
        }
        for a in 0..n {
            prop_assert_eq!(view.votes_of(a) == 0, !state.site_up(a));
            for b in 0..n {
                if state.site_up(a) && state.site_up(b) {
                    prop_assert_eq!(view.connected(a, b), uf.same(a, b));
                }
            }
        }
    }

    /// Component vote totals partition the up votes.
    #[test]
    fn component_votes_partition_up_votes(
        n in 2usize..20,
        p in 0.1f64..0.9,
        seed in 0u64..500,
        down_mask in 0u32..u32::MAX,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = Topology::gnp(n, p, &mut rng);
        let mut state = NetworkState::all_up(&topo);
        for s in 0..n {
            if down_mask >> (s % 32) & 1 == 1 {
                state.set_site(s, false);
            }
        }
        let votes = vec![1u64; n];
        let view = ComponentView::compute(&topo, &state, &votes);
        let total_in_components: u64 = view.component_votes().iter().sum();
        prop_assert_eq!(total_in_components, state.sites_up() as u64);
        prop_assert!(view.largest_component_votes() <= state.sites_up() as u64);
    }

    /// Ring-with-chords always embeds the ring and never duplicates links.
    #[test]
    fn chorded_ring_invariants(n in 5usize..40, frac in 0.0f64..1.0) {
        let max_chords = n * (n - 1) / 2 - n;
        let k = (frac * max_chords as f64) as usize;
        let topo = Topology::ring_with_chords(n, k);
        prop_assert_eq!(topo.num_links(), n + k);
        // Ring links present.
        for i in 0..n {
            let a = i;
            let b = (i + 1) % n;
            let key = (a.min(b), a.max(b));
            prop_assert!(topo.links().contains(&key), "missing ring link {key:?}");
        }
        // All links valid and unique (construction would panic otherwise,
        // so just probe adjacency symmetry).
        for s in 0..n {
            for &(nb, li) in topo.neighbors(s) {
                prop_assert!(topo.neighbors(nb).iter().any(|&(x, l)| x == s && l == li));
            }
        }
    }

    /// Degree sums to twice the link count on every constructor.
    #[test]
    fn handshake_lemma(kind in 0usize..6, size in 4usize..30) {
        let topo = match kind {
            0 => Topology::ring(size.max(3)),
            1 => Topology::fully_connected(size),
            2 => Topology::star(size),
            3 => Topology::grid(3, size.max(2)),
            4 => Topology::torus(3, size.max(3)),
            _ => Topology::path(size),
        };
        let degree_sum: usize = (0..topo.num_sites()).map(|s| topo.degree(s)).sum();
        prop_assert_eq!(degree_sum, 2 * topo.num_links());
    }

    /// A fully-up network is one component containing everything.
    #[test]
    fn fully_up_is_connected_for_connected_constructors(
        kind in 0usize..5,
        size in 4usize..30,
    ) {
        let topo = match kind {
            0 => Topology::ring(size.max(3)),
            1 => Topology::fully_connected(size),
            2 => Topology::star(size),
            3 => Topology::torus(3, size.max(3)),
            _ => Topology::grid(2, size.max(2)),
        };
        let n = topo.num_sites();
        let state = NetworkState::all_up(&topo);
        let view = ComponentView::compute(&topo, &state, &vec![1; n]);
        prop_assert_eq!(view.num_components(), 1);
        prop_assert_eq!(view.votes_of(0), n as u64);
    }
}

#[test]
fn hypercube_is_d_connected() {
    // Removing any d−1 sites leaves a d-cube connected (Menger); check a
    // sampled version: removing 3 sites from a 4-cube never disconnects
    // the rest.
    let topo = Topology::hypercube(4);
    let n = 16;
    let votes = vec![1u64; n];
    for a in 0..n {
        for b in (a + 1)..n {
            for c in (b + 1)..n {
                let mut state = NetworkState::all_up(&topo);
                state.set_site(a, false);
                state.set_site(b, false);
                state.set_site(c, false);
                let view = ComponentView::compute(&topo, &state, &votes);
                assert_eq!(
                    view.num_components(),
                    1,
                    "removing {{{a},{b},{c}}} disconnected the 4-cube"
                );
            }
        }
    }
}

/// Union-find (disjoint set union) with path halving and union by size:
/// the reference the BFS component labelling is checked against.
mod union_find {
    /// Disjoint-set forest over `0..n`.
    #[derive(Debug, Clone)]
    pub(super) struct UnionFind {
        parent: Vec<usize>,
        size: Vec<usize>,
        components: usize,
    }

    impl UnionFind {
        /// `n` singleton sets.
        pub(super) fn new(n: usize) -> Self {
            Self {
                parent: (0..n).collect(),
                size: vec![1; n],
                components: n,
            }
        }

        /// Representative of `x`'s set (path halving).
        fn find(&mut self, mut x: usize) -> usize {
            while self.parent[x] != x {
                self.parent[x] = self.parent[self.parent[x]];
                x = self.parent[x];
            }
            x
        }

        /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
        pub(super) fn union(&mut self, a: usize, b: usize) -> bool {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra == rb {
                return false;
            }
            let (big, small) = if self.size[ra] >= self.size[rb] {
                (ra, rb)
            } else {
                (rb, ra)
            };
            self.parent[small] = big;
            self.size[big] += self.size[small];
            self.components -= 1;
            true
        }

        /// True if `a` and `b` share a set.
        pub(super) fn same(&mut self, a: usize, b: usize) -> bool {
            self.find(a) == self.find(b)
        }

        /// Size of the set containing `x`.
        pub(super) fn size_of(&mut self, x: usize) -> usize {
            let r = self.find(x);
            self.size[r]
        }

        /// Number of disjoint sets.
        pub(super) fn num_components(&self) -> usize {
            self.components
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use quorum_graph::{ComponentView, NetworkState, Topology};

        #[test]
        fn starts_as_singletons() {
            let mut uf = UnionFind::new(5);
            assert_eq!(uf.num_components(), 5);
            assert!(!uf.same(0, 1));
            assert_eq!(uf.size_of(3), 1);
        }

        #[test]
        fn union_merges() {
            let mut uf = UnionFind::new(5);
            assert!(uf.union(0, 1));
            assert!(uf.union(1, 2));
            assert!(!uf.union(0, 2), "already same set");
            assert!(uf.same(0, 2));
            assert_eq!(uf.size_of(1), 3);
            assert_eq!(uf.num_components(), 3);
        }

        #[test]
        fn chain_union_all() {
            let n = 100;
            let mut uf = UnionFind::new(n);
            for i in 0..n - 1 {
                uf.union(i, i + 1);
            }
            assert_eq!(uf.num_components(), 1);
            assert_eq!(uf.size_of(0), n);
            assert!(uf.same(0, n - 1));
        }

        #[test]
        fn matches_bfs_components() {
            let t = Topology::ring_with_chords(15, 5);
            let mut s = NetworkState::all_up(&t);
            s.set_site(3, false);
            s.set_link(0, false);
            s.set_link(7, false);
            let view = ComponentView::compute(&t, &s, &[1; 15]);
            let mut uf = UnionFind::new(15);
            for (idx, &(a, b)) in t.links().iter().enumerate() {
                if s.link_up(idx) && s.site_up(a) && s.site_up(b) {
                    uf.union(a, b);
                }
            }
            for a in 0..15 {
                for b in 0..15 {
                    if s.site_up(a) && s.site_up(b) {
                        assert_eq!(view.connected(a, b), uf.same(a, b), "({a},{b})");
                    }
                }
            }
        }
    }
}
