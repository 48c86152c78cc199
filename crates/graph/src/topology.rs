//! Immutable network topologies.
//!
//! The paper's simulation study (§5.1) uses 101-site networks "configured
//! into various topologies beginning with a ring, and adding links until all
//! the sites are fully connected", denoting by *Topology k* a ring plus `k`
//! chords for `k ∈ {0, 1, 2, 4, 16, 256, 4949}` (4949 chords on a 101-ring
//! is the complete graph). The exact chord placement is in the authors'
//! unavailable companion paper; we substitute the deterministic placement
//! documented on [`Topology::ring_with_chords`], which interpolates ring →
//! complete graph symmetrically.

use rand::Rng;

/// An immutable undirected multigraph-free topology of sites and links.
///
/// Sites are identified by `0..n`; links by their index into
/// [`Topology::links`]. Self-loops and duplicate links are rejected at
/// construction.
///
/// # Examples
/// ```
/// use quorum_graph::Topology;
///
/// // The paper's Topology 16: a 101-ring plus 16 chords.
/// let t = Topology::ring_with_chords(101, 16);
/// assert_eq!(t.num_sites(), 101);
/// assert_eq!(t.num_links(), 117);
/// // 4949 chords complete the graph.
/// let full = Topology::ring_with_chords(101, 4949);
/// assert_eq!(full.num_links(), 101 * 100 / 2);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    links: Vec<(usize, usize)>,
    /// adjacency[s] = list of (neighbor, link index)
    adjacency: Vec<Vec<(usize, usize)>>,
    name: String,
}

/// `Ok` if `ok`, else the violated `rule`.
fn require(ok: bool, rule: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(rule.to_string())
    }
}

/// Panics with the violated rule, if any.
fn enforce(check: Result<(), String>) {
    if let Err(rule) = check {
        panic!("{rule}");
    }
}

impl Topology {
    /// Checks the site count of any topology (at least one site),
    /// returning the violated rule.
    pub fn check_nonempty(n: usize) -> Result<(), String> {
        require(n > 0, "topology needs at least one site")
    }

    /// Checks the site count of a [`Topology::ring`], returning the
    /// violated rule.
    pub fn check_ring(n: usize) -> Result<(), String> {
        require(n >= 3, "a ring needs at least 3 sites")
    }

    /// Checks the site count of a [`Topology::bus`], returning the
    /// violated rule.
    pub fn check_bus(sites: usize) -> Result<(), String> {
        require(sites >= 2, "a bus needs at least 2 sites")
    }

    /// Builds a topology from an explicit link list.
    ///
    /// # Panics
    /// Panics on self-loops, out-of-range endpoints, duplicate links, or
    /// `n == 0`.
    pub fn from_links(n: usize, links: Vec<(usize, usize)>, name: impl Into<String>) -> Self {
        enforce(Self::check_nonempty(n));
        #[expect(
            clippy::disallowed_types,
            reason = "membership only: constructor-time duplicate-link check, never iterated"
        )]
        let mut seen = std::collections::HashSet::with_capacity(links.len());
        let mut canonical = Vec::with_capacity(links.len());
        for &(a, b) in &links {
            assert!(a < n && b < n, "link ({a},{b}) out of range for n={n}");
            assert_ne!(a, b, "self-loop at site {a}");
            let key = (a.min(b), a.max(b));
            assert!(seen.insert(key), "duplicate link ({a},{b})");
            canonical.push(key);
        }
        let mut adjacency = vec![Vec::new(); n];
        for (idx, &(a, b)) in canonical.iter().enumerate() {
            adjacency[a].push((b, idx));
            adjacency[b].push((a, idx));
        }
        Self {
            n,
            links: canonical,
            adjacency,
            name: name.into(),
        }
    }

    /// A ring of `n ≥ 3` sites: links `(i, i+1 mod n)`.
    pub fn ring(n: usize) -> Self {
        enforce(Self::check_ring(n));
        let links = (0..n).map(|i| (i, (i + 1) % n)).collect();
        Self::from_links(n, links, format!("ring-{n}"))
    }

    /// A path (line) of `n ≥ 2` sites.
    pub fn path(n: usize) -> Self {
        assert!(n >= 2, "a path needs at least 2 sites");
        let links = (0..n - 1).map(|i| (i, i + 1)).collect();
        Self::from_links(n, links, format!("path-{n}"))
    }

    /// The complete graph on `n ≥ 1` sites.
    pub fn fully_connected(n: usize) -> Self {
        enforce(Self::check_nonempty(n));
        let mut links = Vec::with_capacity(n * (n - 1) / 2);
        for a in 0..n {
            for b in a + 1..n {
                links.push((a, b));
            }
        }
        Self::from_links(n, links, format!("complete-{n}"))
    }

    /// A star: site 0 is the hub.
    pub fn star(n: usize) -> Self {
        assert!(n >= 2, "a star needs at least 2 sites");
        let links = (1..n).map(|i| (0, i)).collect();
        Self::from_links(n, links, format!("star-{n}"))
    }

    /// A single-bus network of `sites` database sites expressed over the
    /// point-to-point machinery: node 0 models the shared medium (the bus)
    /// and nodes `1..=sites` are the database sites, each attached to the
    /// medium by one link. When the medium node fails every site is
    /// isolated — the §4.2 sites-independent bus. Callers give node 0 zero
    /// votes and zero workload weight so it never counts or submits.
    ///
    /// Returns `sites + 1` nodes; the medium is index 0.
    pub fn bus(sites: usize) -> Self {
        enforce(Self::check_bus(sites));
        let links = (1..=sites).map(|i| (0, i)).collect();
        Self::from_links(sites + 1, links, format!("bus-{sites}"))
    }

    /// A `rows × cols` grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1 && rows * cols >= 2, "grid too small");
        let at = |r: usize, c: usize| r * cols + c;
        let mut links = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    links.push((at(r, c), at(r, c + 1)));
                }
                if r + 1 < rows {
                    links.push((at(r, c), at(r + 1, c)));
                }
            }
        }
        Self::from_links(rows * cols, links, format!("grid-{rows}x{cols}"))
    }

    /// A `rows × cols` torus (grid with wraparound in both dimensions).
    ///
    /// # Panics
    /// Panics unless both dimensions are ≥ 3 (smaller wraps duplicate
    /// links).
    pub fn torus(rows: usize, cols: usize) -> Self {
        assert!(rows >= 3 && cols >= 3, "torus needs both dimensions >= 3");
        let at = |r: usize, c: usize| r * cols + c;
        let mut links = Vec::with_capacity(2 * rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                links.push((at(r, c), at(r, (c + 1) % cols)));
                links.push((at(r, c), at((r + 1) % rows, c)));
            }
        }
        Self::from_links(rows * cols, links, format!("torus-{rows}x{cols}"))
    }

    /// A `d`-dimensional hypercube on `2^d` sites (neighbors differ in one
    /// bit).
    ///
    /// # Panics
    /// Panics unless `1 <= d <= 16`.
    pub fn hypercube(d: u32) -> Self {
        assert!((1..=16).contains(&d), "hypercube dimension must be 1..=16");
        let n = 1usize << d;
        let mut links = Vec::with_capacity(n * d as usize / 2);
        for a in 0..n {
            for bit in 0..d {
                let b = a ^ (1 << bit);
                if a < b {
                    links.push((a, b));
                }
            }
        }
        Self::from_links(n, links, format!("hypercube-{d}"))
    }

    /// Erdős–Rényi `G(n, p)` random graph (each possible link present
    /// independently with probability `p`).
    pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must lie in [0,1]");
        let mut links = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if rng.random::<f64>() < p {
                    links.push((a, b));
                }
            }
        }
        Self::from_links(n, links, format!("gnp-{n}-{p}"))
    }

    /// The paper's *Topology k*: an `n`-ring plus `k` chords.
    ///
    /// Chord placement (our substitution for the unavailable companion
    /// paper \[14\]): chords are grouped by ring distance `d`, longest
    /// (`⌊n/2⌋`) first — a chord's value for shrinking the diameter grows
    /// with its span. Within a distance class the chords `(i, (i+d) mod n)`
    /// are taken in **golden-stride** order, `i_j = j·s mod n` with
    /// `s ≈ n/φ²` coprime to `n`: consecutive picks land far apart
    /// (low-discrepancy), so small `k` yields *crossing* diameters rather
    /// than chords sharing an endpoint, and every class is eventually
    /// covered. The enumeration reaches every non-ring pair, so
    /// `k = n(n−1)/2 − n` yields the complete graph.
    ///
    /// # Panics
    /// Panics if `k` exceeds the number of non-ring pairs or `n < 5`.
    pub fn ring_with_chords(n: usize, k: usize) -> Self {
        assert!(n >= 5, "chorded rings need at least 5 sites");
        let max_chords = n * (n - 1) / 2 - n;
        assert!(
            k <= max_chords,
            "at most {max_chords} chords fit on a {n}-ring, requested {k}"
        );
        fn gcd(a: usize, b: usize) -> usize {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        // Golden-section stride, adjusted to be coprime with n.
        let mut stride = ((n as f64) * 0.381_966_011).round() as usize;
        stride = stride.clamp(1, n - 1);
        while gcd(stride, n) != 1 {
            stride += 1;
        }
        let mut links: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        #[expect(
            clippy::disallowed_types,
            reason = "membership only: chord dedup, the insert result gates the push and order is never observed"
        )]
        let mut seen: std::collections::HashSet<(usize, usize)> =
            links.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        let mut remaining = k;
        let mut d = n / 2;
        while remaining > 0 && d >= 2 {
            for j in 0..n {
                if remaining == 0 {
                    break;
                }
                let i = (j * stride) % n;
                let a = i;
                let b = (i + d) % n;
                let key = (a.min(b), a.max(b));
                // For even n the distance-n/2 class contains each chord
                // twice ((i, i+d) == (i+d, i+2d)); `seen` dedupes.
                if seen.insert(key) {
                    links.push(key);
                    remaining -= 1;
                }
            }
            d -= 1;
        }
        assert_eq!(remaining, 0, "chord enumeration exhausted early");
        Self::from_links(n, links, format!("ring-{n}+{k}chords"))
    }

    /// Number of sites.
    pub fn num_sites(&self) -> usize {
        self.n
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Link endpoint list (canonicalized `a < b`).
    pub fn links(&self) -> &[(usize, usize)] {
        &self.links
    }

    /// Neighbors of `site` as `(neighbor, link index)` pairs.
    pub fn neighbors(&self, site: usize) -> &[(usize, usize)] {
        &self.adjacency[site]
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Degree of `site`.
    pub fn degree(&self, site: usize) -> usize {
        self.adjacency[site].len()
    }

    /// Diameter of the (fully-up) topology: the longest shortest path, or
    /// `None` if disconnected. O(n·m) BFS.
    pub fn diameter(&self) -> Option<usize> {
        let n = self.n;
        let mut diameter = 0usize;
        for start in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[start] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                for &(v, _) in self.neighbors(u) {
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            let far = *dist.iter().max().expect("n > 0");
            if far == usize::MAX {
                return None;
            }
            diameter = diameter.max(far);
        }
        Some(diameter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ring_structure() {
        let t = Topology::ring(5);
        assert_eq!(t.num_sites(), 5);
        assert_eq!(t.num_links(), 5);
        for s in 0..5 {
            assert_eq!(t.degree(s), 2);
        }
    }

    #[test]
    fn bus_shape() {
        let t = Topology::bus(7);
        assert_eq!(t.num_sites(), 8, "7 sites + the medium node");
        assert_eq!(t.num_links(), 7, "one attachment per site");
        assert_eq!(t.degree(0), 7, "the medium reaches every site");
        for s in 1..8 {
            assert_eq!(t.degree(s), 1);
        }
        assert_eq!(t.name(), "bus-7");
    }

    #[test]
    fn complete_graph_link_count() {
        let t = Topology::fully_connected(101);
        assert_eq!(t.num_links(), 5050);
        for s in 0..101 {
            assert_eq!(t.degree(s), 100);
        }
    }

    #[test]
    fn paper_link_counts() {
        // §1: "101 sites and up to 5050 links (fully-connected)".
        for (k, expect) in [
            (0, 101),
            (1, 102),
            (2, 103),
            (4, 105),
            (16, 117),
            (256, 357),
        ] {
            let t = Topology::ring_with_chords(101, k);
            assert_eq!(t.num_links(), expect, "topology {k}");
        }
        let full = Topology::ring_with_chords(101, 4949);
        assert_eq!(full.num_links(), 5050);
    }

    #[test]
    fn max_chords_yields_complete_graph() {
        let t = Topology::ring_with_chords(101, 4949);
        for s in 0..101 {
            assert_eq!(t.degree(s), 100, "site {s}");
        }
    }

    #[test]
    fn single_chord_is_diametric() {
        let t = Topology::ring_with_chords(101, 1);
        // Ring links + one chord (0, 50).
        assert!(t.links().contains(&(0, 50)));
    }

    #[test]
    fn chords_are_deterministic() {
        let a = Topology::ring_with_chords(101, 16);
        let b = Topology::ring_with_chords(101, 16);
        assert_eq!(a.links(), b.links());
    }

    #[test]
    fn chord_spread_for_small_k() {
        // Even n: the distance-n/2 class duplicates each chord; dedup must
        // still deliver exactly k distinct chords.
        let t = Topology::ring_with_chords(100, 2);
        assert_eq!(t.num_links(), 102);
    }

    #[test]
    fn small_k_chords_cross_rather_than_share_endpoints() {
        // Golden-stride placement: the first few diametric chords must not
        // share endpoints (a shared endpoint makes both chords die with
        // one site, defeating the redundancy they exist for).
        let t = Topology::ring_with_chords(101, 4);
        let chords: Vec<(usize, usize)> = t.links()[101..].to_vec();
        assert_eq!(chords.len(), 4);
        for (i, &(a1, b1)) in chords.iter().enumerate() {
            for &(a2, b2) in &chords[i + 1..] {
                assert!(
                    a1 != a2 && a1 != b2 && b1 != a2 && b1 != b2,
                    "chords ({a1},{b1}) and ({a2},{b2}) share an endpoint"
                );
            }
        }
        // All early chords are (near-)diametric.
        for &(a, b) in &chords {
            let d = (b - a).min(101 - (b - a));
            assert_eq!(d, 50, "chord ({a},{b}) is not diametric");
        }
    }

    #[test]
    fn even_ring_full_chords() {
        let n = 10;
        let max = n * (n - 1) / 2 - n;
        let t = Topology::ring_with_chords(n, max);
        assert_eq!(t.num_links(), n * (n - 1) / 2);
    }

    #[test]
    fn grid_counts() {
        let t = Topology::grid(3, 4);
        assert_eq!(t.num_sites(), 12);
        // 3*3 horizontal + 2*4 vertical = 17.
        assert_eq!(t.num_links(), 17);
    }

    #[test]
    fn star_structure() {
        let t = Topology::star(6);
        assert_eq!(t.degree(0), 5);
        for s in 1..6 {
            assert_eq!(t.degree(s), 1);
        }
    }

    #[test]
    fn path_structure() {
        let t = Topology::path(4);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.degree(0), 1);
        assert_eq!(t.degree(1), 2);
    }

    #[test]
    fn torus_structure() {
        let t = Topology::torus(3, 4);
        assert_eq!(t.num_sites(), 12);
        assert_eq!(t.num_links(), 24, "2 links per site on a torus");
        for s in 0..12 {
            assert_eq!(t.degree(s), 4);
        }
    }

    #[test]
    fn hypercube_structure() {
        let t = Topology::hypercube(4);
        assert_eq!(t.num_sites(), 16);
        assert_eq!(t.num_links(), 32); // n·d/2
        for s in 0..16 {
            assert_eq!(t.degree(s), 4);
        }
        // Neighbors differ in exactly one bit.
        for &(a, b) in t.links() {
            assert_eq!((a ^ b).count_ones(), 1, "({a},{b})");
        }
    }

    #[test]
    fn hypercube_dimension_one_is_single_edge() {
        let t = Topology::hypercube(1);
        assert_eq!(t.num_sites(), 2);
        assert_eq!(t.num_links(), 1);
    }

    #[test]
    #[should_panic(expected = "both dimensions")]
    fn tiny_torus_rejected() {
        Topology::torus(2, 5);
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let empty = Topology::gnp(10, 0.0, &mut rng);
        assert_eq!(empty.num_links(), 0);
        let full = Topology::gnp(10, 1.0, &mut rng);
        assert_eq!(full.num_links(), 45);
    }

    #[test]
    fn diameters_of_known_topologies() {
        assert_eq!(Topology::ring(8).diameter(), Some(4));
        assert_eq!(Topology::ring(9).diameter(), Some(4));
        assert_eq!(Topology::fully_connected(10).diameter(), Some(1));
        assert_eq!(Topology::star(7).diameter(), Some(2));
        assert_eq!(Topology::path(5).diameter(), Some(4));
        assert_eq!(Topology::hypercube(4).diameter(), Some(4));
        assert_eq!(
            Topology::from_links(3, vec![(0, 1)], "disconnected").diameter(),
            None
        );
    }

    #[test]
    fn chords_shrink_ring_diameter() {
        let ring = Topology::ring_with_chords(101, 0).diameter().unwrap();
        let t16 = Topology::ring_with_chords(101, 16).diameter().unwrap();
        let t256 = Topology::ring_with_chords(101, 256).diameter().unwrap();
        assert_eq!(ring, 50);
        assert!(t16 < ring, "16 chords must shrink the diameter: {t16}");
        assert!(t256 < t16, "256 chords shrink it further: {t256}");
    }

    #[test]
    fn adjacency_is_symmetric() {
        let t = Topology::ring_with_chords(21, 8);
        for s in 0..21 {
            for &(nb, li) in t.neighbors(s) {
                assert!(t.neighbors(nb).iter().any(|&(x, l)| x == s && l == li));
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_links_rejected() {
        Topology::from_links(3, vec![(0, 1), (1, 0)], "dup");
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Topology::from_links(3, vec![(1, 1)], "loop");
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_chords_rejected() {
        Topology::ring_with_chords(101, 4950);
    }

    #[test]
    fn size_checks_match_the_constructors() {
        assert!(Topology::check_ring(3).is_ok() && Topology::check_ring(2).is_err());
        assert!(Topology::check_bus(2).is_ok() && Topology::check_bus(1).is_err());
        assert!(Topology::check_nonempty(1).is_ok() && Topology::check_nonempty(0).is_err());
        assert_eq!(Topology::fully_connected(1).num_links(), 0);
        for build in [Topology::ring, Topology::bus, Topology::fully_connected] {
            let panicked = std::panic::catch_unwind(|| build(0)).unwrap_err();
            assert!(panicked
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("needs at least")));
        }
    }
}
