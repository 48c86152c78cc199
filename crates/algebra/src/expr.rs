//! Quorum expressions: the `Node`/`And`/`Or`/`Choose` algebra.
//!
//! A quorum expression is a monotone boolean formula over site
//! identifiers. A site-set `X` *satisfies* an expression when
//!
//! * `Node(s)` — `s ∈ X`;
//! * `And(es)` — `X` satisfies every subexpression;
//! * `Or(es)` — `X` satisfies at least one subexpression;
//! * `Choose(k, es)` — `X` satisfies at least `k` subexpressions.
//!
//! The satisfying sets of an expression form an *access structure*; its
//! minimal elements are the expression's **quorums**. This is the
//! quoracle formalism (PAPERS.md, "Read-Write Quorum Systems Made
//! Practical"): every coterie is expressible, and — unlike the vote
//! vectors the paper optimizes — so are grids, trees, and hierarchies
//! that no weighted-voting assignment can realize.
//!
//! Two facts carry the whole module:
//!
//! 1. **Duality.** `dual` swaps `And`↔`Or` and maps `Choose(k, es)` to
//!    `Choose(|es|−k+1, es)`. A set satisfies `dual(e)` exactly when its
//!    complement fails `e` (for `Choose`, fewer than `k` of `es` can be
//!    satisfied without it when `|es|−k+1` are satisfied within it, and
//!    this composes inductively). Hence the dual's quorums are the
//!    minimal *transversals* of `e`'s quorums: pairing an expression
//!    with its dual yields read/write families that always intersect.
//!    `dual` is an involution on the syntax tree — `dual(dual(e)) ≡ e`
//!    structurally, not just semantically.
//! 2. **Weighted thresholds are `Choose` with repetition.** A vote
//!    assignment `v` with quorum `q` is `Choose(q, leaves)` where site
//!    `i` contributes `v_i` copies of `Node(i)`: a set satisfies `≥ q`
//!    leaves exactly when its votes total `≥ q`. The conversion is
//!    therefore *exact*, including ties at exactly `q` votes, and
//!    `dual` maps threshold `q` to threshold `T − q + 1` — precisely
//!    the tight §2.1 condition-1 companion quorum.

use quorum_core::VoteAssignment;
use std::fmt;

/// Maximum universe size for quorum *enumeration* and the other `2^n`
/// scans (powerset reference, non-partitionable availability,
/// domination witness). Masks are `u64`; expressions themselves may
/// mention more sites — evaluation and duality never enumerate.
pub(crate) const MAX_ENUM_SITES: usize = 20;

/// Cap on intermediate quorum-family size during structural
/// enumeration; exceeding it indicates the caller should switch to the
/// heuristic (non-enumerating) strategy path.
const MAX_FAMILY: usize = 1 << 18;

/// A monotone quorum expression over site identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A single site.
    Node(usize),
    /// Every subexpression must be satisfied.
    And(Vec<Expr>),
    /// At least one subexpression must be satisfied.
    Or(Vec<Expr>),
    /// At least `k` subexpressions must be satisfied
    /// (`And` ≡ `Choose(len)`, `Or` ≡ `Choose(1)`).
    Choose(usize, Vec<Expr>),
}

/// Removes dominated masks, returning the minimal family sorted by
/// `(popcount, value)` — a canonical, deterministic order.
pub(crate) fn minimalize(mut masks: Vec<u64>) -> Vec<u64> {
    masks.sort_unstable_by_key(|&m| (m.count_ones(), m));
    masks.dedup();
    let mut minimal: Vec<u64> = Vec::new();
    for m in masks {
        // Sorted by popcount: any subset of `m` already kept is smaller.
        if !minimal.iter().any(|&q| q & !m == 0) {
            minimal.push(m);
        }
    }
    minimal
}

/// Unions every pair from two minimal families (the `And` combiner),
/// then re-minimalizes.
fn cross_union(a: &[u64], b: &[u64]) -> Vec<u64> {
    assert!(
        a.len().saturating_mul(b.len()) <= MAX_FAMILY,
        "quorum enumeration exceeded {MAX_FAMILY} intermediate sets; \
         use the heuristic strategy path for systems this large"
    );
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &x in a {
        for &y in b {
            out.push(x | y);
        }
    }
    minimalize(out)
}

impl Expr {
    /// `And` of the given subexpressions.
    ///
    /// # Panics
    /// Panics if `es` is empty.
    pub fn and(es: Vec<Expr>) -> Expr {
        assert!(!es.is_empty(), "And needs at least one subexpression");
        Expr::And(es)
    }

    /// `Or` of the given subexpressions.
    ///
    /// # Panics
    /// Panics if `es` is empty.
    pub fn or(es: Vec<Expr>) -> Expr {
        assert!(!es.is_empty(), "Or needs at least one subexpression");
        Expr::Or(es)
    }

    /// `Choose(k, es)`: at least `k` of the subexpressions.
    ///
    /// # Panics
    /// Panics unless `1 <= k <= es.len()`.
    pub fn choose(k: usize, es: Vec<Expr>) -> Expr {
        assert!(
            k >= 1 && k <= es.len(),
            "Choose needs 1 <= k <= {}, got {k}",
            es.len()
        );
        Expr::Choose(k, es)
    }

    /// One `Node` per site id in `ids`.
    pub fn nodes(ids: impl IntoIterator<Item = usize>) -> Vec<Expr> {
        ids.into_iter().map(Expr::Node).collect()
    }

    /// The exact expression-tree image of a weighted vote threshold:
    /// `Choose(quorum, leaves)` where site `i` contributes
    /// `votes.votes_of(i)` copies of `Node(i)`. A set satisfies the
    /// expression iff its vote total reaches `quorum` — the conversion
    /// is exact for every weighted assignment, including ties at
    /// exactly `quorum` votes (see module docs).
    ///
    /// # Panics
    /// Panics if `quorum` is zero or exceeds the total votes.
    pub fn weighted_threshold(votes: &VoteAssignment, quorum: u64) -> Expr {
        assert!(
            quorum >= 1 && quorum <= votes.total(),
            "threshold {quorum} outside 1..={}",
            votes.total()
        );
        let mut leaves = Vec::with_capacity(votes.total() as usize);
        for site in 0..votes.num_sites() {
            for _ in 0..votes.votes_of(site) {
                leaves.push(Expr::Node(site));
            }
        }
        Expr::choose(quorum as usize, leaves)
    }

    /// Does the site-set `mask` (bit `s` = site `s` present) satisfy
    /// this expression?
    pub fn is_quorum(&self, mask: u64) -> bool {
        match self {
            Expr::Node(s) => mask >> s & 1 == 1,
            Expr::And(es) => es.iter().all(|e| e.is_quorum(mask)),
            Expr::Or(es) => es.iter().any(|e| e.is_quorum(mask)),
            Expr::Choose(k, es) => {
                let mut satisfied = 0usize;
                for e in es {
                    if e.is_quorum(mask) {
                        satisfied += 1;
                        if satisfied >= *k {
                            return true;
                        }
                    }
                }
                false
            }
        }
    }

    /// The dual expression (see module docs). An involution:
    /// `e.dual().dual() == e` structurally.
    pub fn dual(&self) -> Expr {
        match self {
            Expr::Node(s) => Expr::Node(*s),
            Expr::And(es) => Expr::Or(es.iter().map(Expr::dual).collect()),
            Expr::Or(es) => Expr::And(es.iter().map(Expr::dual).collect()),
            Expr::Choose(k, es) => {
                Expr::Choose(es.len() - k + 1, es.iter().map(Expr::dual).collect())
            }
        }
    }

    /// Bitmask of every site mentioned by the expression.
    pub(crate) fn support(&self) -> u64 {
        match self {
            Expr::Node(s) => {
                assert!(*s < 64, "site {s} exceeds the u64 mask width");
                1u64 << s
            }
            Expr::And(es) | Expr::Or(es) | Expr::Choose(_, es) => {
                es.iter().fold(0, |acc, e| acc | e.support())
            }
        }
    }

    /// Enumerates the minimal quorums by structural recursion:
    /// `Or` unions families, `And` cross-unions them, `Choose(k)`
    /// cross-unions every `k`-subset of subexpression families; each
    /// step re-minimalizes. Returns masks sorted by `(popcount, value)`.
    ///
    /// # Panics
    /// Panics if an intermediate family exceeds the enumeration cap —
    /// systems that large must use the non-enumerating heuristic path.
    pub fn min_quorums(&self) -> Vec<u64> {
        match self {
            Expr::Node(s) => {
                assert!(*s < 64, "site {s} exceeds the u64 mask width");
                vec![1u64 << s]
            }
            Expr::Or(es) => {
                let mut all = Vec::new();
                for e in es {
                    all.extend(e.min_quorums());
                    assert!(
                        all.len() <= MAX_FAMILY,
                        "quorum enumeration exceeded {MAX_FAMILY} sets"
                    );
                }
                minimalize(all)
            }
            Expr::And(es) => {
                let mut acc = vec![0u64];
                for e in es {
                    acc = cross_union(&acc, &e.min_quorums());
                }
                acc
            }
            Expr::Choose(k, es) => {
                let families: Vec<Vec<u64>> = es.iter().map(Expr::min_quorums).collect();
                let mut all = Vec::new();
                let mut chosen = Vec::with_capacity(*k);
                k_subsets(&families, *k, 0, &mut chosen, &mut all);
                minimalize(all)
            }
        }
    }

    /// Brute-force reference enumeration: scan every subset of `0..n`
    /// and keep the minimal satisfying ones. Exponential in `n`; the
    /// property-test oracle [`Expr::min_quorums`] is pinned against.
    ///
    /// # Panics
    /// Panics if `n > MAX_ENUM_SITES`.
    pub fn min_quorums_powerset(&self, n: usize) -> Vec<u64> {
        assert!(
            n <= MAX_ENUM_SITES,
            "powerset enumeration capped at {MAX_ENUM_SITES} sites"
        );
        let mut satisfying = Vec::new();
        for mask in 1u64..(1 << n) {
            if self.is_quorum(mask) {
                satisfying.push(mask);
            }
        }
        minimalize(satisfying)
    }
}

/// Recursively expands every `k`-subset of `families` through the
/// `And` combiner, appending each subset's cross-unions to `out`.
///
/// When `out` outgrows the family cap it is minimalized in place, which
/// leaves the final minimal family unchanged; only a family still over
/// half the cap after that is too large. A weighted threshold repeats
/// each site's leaf once per vote, so `C(T, q)` subsets can collapse to
/// a handful of minimal quorums (7 sites with 3 votes each, `q = 11`:
/// 352 716 subsets, 35 quorums).
fn k_subsets(
    families: &[Vec<u64>],
    k: usize,
    start: usize,
    chosen: &mut Vec<usize>,
    out: &mut Vec<u64>,
) {
    if k == 0 {
        let mut acc = vec![0u64];
        for &idx in chosen.iter() {
            acc = cross_union(&acc, &families[idx]);
        }
        out.extend(acc);
        if out.len() > MAX_FAMILY {
            *out = minimalize(std::mem::take(out));
            assert!(
                out.len() <= MAX_FAMILY / 2,
                "quorum enumeration exceeded {MAX_FAMILY} sets"
            );
        }
        return;
    }
    // Not enough families left to fill the subset: prune.
    for idx in start..=families.len().saturating_sub(k) {
        chosen.push(idx);
        k_subsets(families, k - 1, idx + 1, chosen, out);
        chosen.pop();
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn join(f: &mut fmt::Formatter<'_>, es: &[Expr], sep: &str) -> fmt::Result {
            for (i, e) in es.iter().enumerate() {
                if i > 0 {
                    write!(f, "{sep}")?;
                }
                write!(f, "{e}")?;
            }
            Ok(())
        }
        match self {
            Expr::Node(s) => write!(f, "s{s}"),
            Expr::And(es) => {
                write!(f, "(")?;
                join(f, es, " * ")?;
                write!(f, ")")
            }
            Expr::Or(es) => {
                write!(f, "(")?;
                join(f, es, " + ")?;
                write!(f, ")")
            }
            Expr::Choose(k, es) => {
                write!(f, "choose{k}(")?;
                join(f, es, ", ")?;
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
impl Expr {
    /// Simple majority over sites `offset..offset+n`:
    /// `Choose(⌊n/2⌋+1, nodes)`.
    pub(crate) fn majority(n: usize, offset: usize) -> Expr {
        assert!(n >= 1, "majority needs at least one site");
        Expr::choose(n / 2 + 1, Expr::nodes(offset..offset + n))
    }

    /// Largest site id mentioned, or `None` for an impossible empty
    /// expression (constructors forbid those).
    fn max_site(&self) -> Option<usize> {
        let support = self.support();
        if support == 0 {
            None
        } else {
            Some(63 - support.leading_zeros() as usize)
        }
    }

    /// Capped structural enumeration — the heuristic path at scale.
    ///
    /// Identical recursion to [`Expr::min_quorums`], but every
    /// intermediate family is truncated to its `cap` canonically
    /// smallest sets after minimalization, and `Choose` expands
    /// deterministic sliding windows of `k` subexpressions instead of
    /// all `C(n, k)` subsets. Every returned mask is a genuine
    /// satisfying set (a union of satisfying sets of subexpressions),
    /// so a strategy over them yields an *achievable* load — but the
    /// family may omit minimal quorums, so it must never substitute for
    /// [`Expr::min_quorums`] in safety certification.
    pub(crate) fn quorums_capped(&self, cap: usize) -> Vec<u64> {
        assert!(cap >= 1, "cap must be positive");
        let trunc = |mut v: Vec<u64>| {
            v.truncate(cap);
            v
        };
        let combine = |acc: Vec<u64>, fam: &[u64]| {
            let mut out = Vec::with_capacity(acc.len() * fam.len());
            for &x in &acc {
                for &y in fam {
                    out.push(x | y);
                }
            }
            trunc(minimalize(out))
        };
        match self {
            Expr::Node(s) => {
                assert!(*s < 64, "site {s} exceeds the u64 mask width");
                vec![1u64 << s]
            }
            Expr::Or(es) => {
                let mut all = Vec::new();
                for e in es {
                    all.extend(e.quorums_capped(cap));
                }
                trunc(minimalize(all))
            }
            Expr::And(es) => {
                let mut acc = vec![0u64];
                for e in es {
                    acc = combine(acc, &e.quorums_capped(cap));
                }
                acc
            }
            Expr::Choose(k, es) => {
                let mut all = Vec::new();
                for start in 0..=es.len() - k {
                    let mut acc = vec![0u64];
                    for e in &es[start..start + k] {
                        acc = combine(acc, &e.quorums_capped(cap));
                    }
                    all.extend(acc);
                    if all.len() >= cap.saturating_mul(4) {
                        break;
                    }
                }
                trunc(minimalize(all))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn masks(sets: &[&[usize]]) -> Vec<u64> {
        minimalize(
            sets.iter()
                .map(|s| s.iter().fold(0u64, |m, &b| m | 1 << b))
                .collect(),
        )
    }

    #[test]
    fn node_and_or_quorums() {
        let e = Expr::or(vec![
            Expr::and(Expr::nodes([0, 1])),
            Expr::and(Expr::nodes([2, 3])),
        ]);
        assert_eq!(e.min_quorums(), masks(&[&[0, 1], &[2, 3]]));
        assert!(e.is_quorum(0b0011));
        assert!(e.is_quorum(0b1100));
        assert!(!e.is_quorum(0b0101));
    }

    #[test]
    fn choose_majority_of_three() {
        let e = Expr::majority(3, 0);
        assert_eq!(e.min_quorums(), masks(&[&[0, 1], &[0, 2], &[1, 2]]));
    }

    #[test]
    fn and_absorbs_redundant_or() {
        // (s0 + s1) * s0 ≡ s0: minimalization removes the dominated set.
        let e = Expr::and(vec![Expr::or(Expr::nodes([0, 1])), Expr::Node(0)]);
        assert_eq!(e.min_quorums(), vec![1]);
    }

    #[test]
    fn dual_is_structural_involution() {
        let e = Expr::choose(
            2,
            vec![
                Expr::majority(3, 0),
                Expr::and(Expr::nodes([3, 4])),
                Expr::or(Expr::nodes([5, 6])),
            ],
        );
        assert_eq!(e.dual().dual(), e);
        // And the dual differs from the original (not self-dual here).
        assert_ne!(e.dual(), e);
    }

    #[test]
    fn majority_odd_is_self_dual() {
        let e = Expr::majority(5, 0);
        assert_eq!(e.dual(), e, "odd majority: Choose(3,5) ↔ Choose(3,5)");
    }

    #[test]
    fn dual_quorums_are_transversals() {
        // Every dual quorum must intersect every primal quorum, and be
        // minimal with that property (checked against the powerset).
        let e = Expr::or(vec![
            Expr::and(Expr::nodes([0, 1, 2])),
            Expr::and(Expr::nodes([2, 3])),
            Expr::and(Expr::nodes([0, 3, 4])),
        ]);
        let primal = e.min_quorums();
        let dual = e.dual().min_quorums();
        for &d in &dual {
            for &p in &primal {
                assert_ne!(d & p, 0, "dual quorum misses a primal quorum");
            }
        }
        // Reference: minimal transversals computed by powerset scan.
        let n = 5;
        let mut transversals = Vec::new();
        for mask in 1u64..(1 << n) {
            if primal.iter().all(|&p| p & mask != 0) {
                transversals.push(mask);
            }
        }
        assert_eq!(dual, minimalize(transversals));
    }

    #[test]
    fn weighted_threshold_matches_vote_counting() {
        let votes = VoteAssignment::weighted(vec![3, 1, 1, 2]);
        let e = Expr::weighted_threshold(&votes, 4);
        for mask in 0u64..16 {
            let sum: u64 = (0..4)
                .filter(|&s| mask >> s & 1 == 1)
                .map(|s| votes.votes_of(s))
                .sum();
            assert_eq!(e.is_quorum(mask), sum >= 4, "mask {mask:#b}");
        }
        // Tie at exactly the threshold: {0,1} holds 4 votes — a quorum.
        assert!(e.is_quorum(0b0011));
        // One vote short: {1,3} holds 3.
        assert!(!e.is_quorum(0b1010));
    }

    #[test]
    fn repeated_leaves_collapse_under_the_family_cap() {
        // Seven sites with three votes each, q = 11: C(21, 11) = 352 716
        // leaf subsets, more than the cap, but only the C(7, 4) = 35
        // four-site sets are minimal.
        let votes = VoteAssignment::weighted(vec![3; 7]);
        let e = Expr::weighted_threshold(&votes, 11);
        let quorums = e.min_quorums();
        assert_eq!(quorums.len(), 35);
        assert!(quorums.iter().all(|q| q.count_ones() == 4));
        assert_eq!(quorums, e.min_quorums_powerset(7));
    }

    #[test]
    fn weighted_threshold_dual_is_complementary_threshold() {
        // dual(Choose(q, T leaves)) = Choose(T-q+1, ...): the tight
        // condition-1 companion. Check semantically on all subsets.
        let votes = VoteAssignment::weighted(vec![2, 2, 1, 1, 1]);
        let q = 3u64;
        let dual = Expr::weighted_threshold(&votes, q).dual();
        let companion = Expr::weighted_threshold(&votes, votes.total() - q + 1);
        assert_eq!(dual, companion);
    }

    #[test]
    fn structural_matches_powerset_on_examples() {
        let exprs = [
            Expr::majority(7, 0),
            Expr::weighted_threshold(&VoteAssignment::weighted(vec![2, 1, 1, 1]), 3),
            Expr::choose(
                2,
                vec![Expr::majority(3, 0), Expr::majority(3, 3), Expr::Node(6)],
            ),
            Expr::and(vec![
                Expr::or(Expr::nodes([0, 1, 2])),
                Expr::or(Expr::nodes([3, 4])),
                Expr::or(Expr::nodes([5])),
            ]),
        ];
        for e in &exprs {
            let n = e.max_site().expect("non-empty") + 1;
            assert_eq!(e.min_quorums(), e.min_quorums_powerset(n), "{e}");
        }
    }

    #[test]
    fn support_and_max_site() {
        let e = Expr::or(vec![Expr::Node(2), Expr::and(Expr::nodes([5, 9]))]);
        assert_eq!(e.support(), 1 << 2 | 1 << 5 | 1 << 9);
        assert_eq!(e.max_site(), Some(9));
    }

    #[test]
    fn display_round_trips_shape() {
        let e = Expr::choose(2, vec![Expr::Node(0), Expr::Node(1), Expr::Node(2)]);
        assert_eq!(e.to_string(), "choose2(s0, s1, s2)");
        let f = Expr::and(vec![Expr::or(Expr::nodes([0, 1])), Expr::Node(2)]);
        assert_eq!(f.to_string(), "((s0 + s1) * s2)");
    }

    #[test]
    #[should_panic(expected = "Choose needs")]
    fn choose_k_zero_rejected() {
        Expr::choose(0, Expr::nodes([0, 1]));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_and_rejected() {
        Expr::and(vec![]);
    }
}
