//! Read/write quorum systems assembled from expressions, with
//! intersection certificates and exact f-resilience.
//!
//! A [`QuorumSystem`] pairs a read expression with a write expression
//! and materializes both minimal-quorum families. Safety is *checked*,
//! not assumed: [`QuorumSystem::certify`] verifies that every read
//! quorum meets every write quorum (the set-theoretic form of §2.1
//! condition 1) and that write quorums pairwise intersect (condition
//! 2), returning an explicit [`IntersectionCertificate`] — the
//! FBAS-complexity literature's argument for carrying a checkable
//! witness instead of trusting a construction.
//!
//! A coterie `C` in the sense of Garcia-Molina & Barbara \[8\] is the
//! system with reads = writes = `C`
//! (`QuorumSystem::from_exprs(name, n, e.clone(), e)`);
//! [`QuorumSystem::dominates`] and [`QuorumSystem::is_dominated`] carry
//! their domination order.

use crate::expr::Expr;
use quorum_core::{QuorumSpec, VoteAssignment};
use std::fmt;

/// A named read/write quorum system over sites `0..n`.
///
/// `reads` and `writes` hold the minimal quorums as `u64` site masks in
/// the canonical `(popcount, value)` order [`Expr::min_quorums`]
/// produces — deterministic by construction, so downstream strategy
/// optimization and manifests are byte-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumSystem {
    name: String,
    n: usize,
    read_expr: Expr,
    write_expr: Expr,
    reads: Vec<u64>,
    writes: Vec<u64>,
}

/// Which intersection requirement a certification found violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertFailure {
    /// A read quorum and a write quorum are disjoint (condition 1).
    ReadWrite(u64, u64),
    /// Two write quorums are disjoint (condition 2).
    WriteWrite(u64, u64),
}

impl fmt::Display for CertFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertFailure::ReadWrite(r, w) => {
                write!(f, "read quorum {r:#b} misses write quorum {w:#b}")
            }
            CertFailure::WriteWrite(a, b) => {
                write!(f, "write quorums {a:#b} and {b:#b} are disjoint")
            }
        }
    }
}

/// The result of exhaustively checking a system's intersection
/// properties: how many quorum pairs were examined, and the first
/// violation if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntersectionCertificate {
    /// Quorum pairs examined (read×write plus write×write).
    pub(crate) pairs_checked: u64,
    /// First violated pair, if the system is unsafe.
    pub failure: Option<CertFailure>,
}

impl IntersectionCertificate {
    /// True when every required intersection holds.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

impl QuorumSystem {
    /// Builds a system from explicit read and write expressions over
    /// sites `0..n`, enumerating both minimal-quorum families.
    ///
    /// The families are *not* implicitly certified — call
    /// [`Self::certify`]; unsafe systems are representable on purpose
    /// so the checker has something to reject.
    ///
    /// # Panics
    /// Panics if either expression mentions a site `>= n`, or if
    /// enumeration exceeds the family cap (see [`Expr::min_quorums`]).
    pub fn from_exprs(name: &str, n: usize, read_expr: Expr, write_expr: Expr) -> Self {
        let support = read_expr.support() | write_expr.support();
        let max = 63 - support.leading_zeros() as usize;
        assert!(max < n, "expression mentions site {max} but n = {n}");
        let reads = read_expr.min_quorums();
        let writes = write_expr.min_quorums();
        Self {
            name: name.to_string(),
            n,
            read_expr,
            write_expr,
            reads,
            writes,
        }
    }

    /// Builds a system whose write expression is the dual of the read
    /// expression: writes are then minimal transversals of the reads,
    /// so condition 1 (read/write intersection) holds by construction.
    /// Condition 2 (write/write) does *not* follow automatically —
    /// certify before use.
    pub(crate) fn from_read_expr(name: &str, n: usize, read_expr: Expr) -> Self {
        let write_expr = read_expr.dual();
        Self::from_exprs(name, n, read_expr, write_expr)
    }

    /// The `rows × cols` grid system on sites `offset + r*cols + c`.
    ///
    /// Reads collect one site from every column; writes take one full
    /// column plus one site from each other column, so two writes that
    /// pick different full columns still meet (each write's cover hits
    /// the other's full column), and every read crosses every write's
    /// full column. Note the *naive* dual of the read expression — "one
    /// full column" — is not a valid write family: two distinct full
    /// columns are disjoint, which [`Self::certify`] duly rejects.
    pub fn grid(rows: usize, cols: usize, offset: usize) -> Self {
        assert!(rows >= 1 && cols >= 1, "grid needs positive dimensions");
        let col = |c: usize| (0..rows).map(move |r| offset + r * cols + c);
        let read = Expr::and((0..cols).map(|c| Expr::or(Expr::nodes(col(c)))).collect());
        let write = Expr::or(
            (0..cols)
                .map(|full| {
                    let mut parts: Vec<Expr> = Expr::nodes(col(full));
                    parts.extend(
                        (0..cols)
                            .filter(|&c| c != full)
                            .map(|c| Expr::or(Expr::nodes(col(c)))),
                    );
                    Expr::and(parts)
                })
                .collect(),
        );
        Self::from_exprs(
            &format!("grid-{rows}x{cols}"),
            offset + rows * cols,
            read,
            write,
        )
    }

    /// A two-level hierarchical system: `groups` groups of
    /// `group_size` consecutive sites starting at `offset`; a quorum
    /// needs `k_members` members in each of `k_groups` groups (reads),
    /// with writes the dual. With `2·k_groups > groups` and
    /// `2·k_members > group_size` the system is self-dual (recursive
    /// majority), e.g. `hierarchical(3, 3, 2, 2, _)` on nine sites.
    pub fn hierarchical(
        groups: usize,
        group_size: usize,
        k_groups: usize,
        k_members: usize,
        offset: usize,
    ) -> Self {
        let read = Expr::choose(
            k_groups,
            (0..groups)
                .map(|g| {
                    let base = offset + g * group_size;
                    Expr::choose(k_members, Expr::nodes(base..base + group_size))
                })
                .collect(),
        );
        Self::from_read_expr(
            &format!("hier-{groups}x{group_size}-{k_groups}/{k_members}"),
            offset + groups * group_size,
            read,
        )
    }

    /// The system induced by a vote assignment and quorum pair: reads
    /// are the minimal site-sets reaching `q_r` votes, writes those
    /// reaching `q_w` — via the exact [`Expr::weighted_threshold`]
    /// conversion, so ties at exactly the threshold are quorums and the
    /// round-trip to threshold semantics is lossless (including
    /// zero-vote sites, which simply contribute no leaves).
    ///
    /// # Panics
    /// Panics if the spec's total differs from the assignment's.
    pub fn from_spec(name: &str, votes: &VoteAssignment, spec: QuorumSpec) -> Self {
        assert_eq!(votes.total(), spec.total(), "vote/spec total mismatch");
        Self::from_exprs(
            name,
            votes.num_sites(),
            Expr::weighted_threshold(votes, spec.q_r()),
            Expr::weighted_threshold(votes, spec.q_w()),
        )
    }

    /// System name (used in manifests and tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Universe size.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Minimal read quorums as site masks, canonically ordered.
    pub fn reads(&self) -> &[u64] {
        &self.reads
    }

    /// Minimal write quorums as site masks, canonically ordered.
    pub fn writes(&self) -> &[u64] {
        &self.writes
    }

    /// Does the up-site set `mask` contain some read quorum?
    pub(crate) fn read_available(&self, mask: u64) -> bool {
        self.reads.iter().any(|&q| q & !mask == 0)
    }

    /// Does the up-site set `mask` contain some write quorum?
    pub(crate) fn write_available(&self, mask: u64) -> bool {
        self.writes.iter().any(|&q| q & !mask == 0)
    }

    /// Exhaustively checks both intersection conditions over the
    /// enumerated families and returns the certificate.
    pub fn certify(&self) -> IntersectionCertificate {
        let mut pairs = 0u64;
        for &r in &self.reads {
            for &w in &self.writes {
                pairs += 1;
                if r & w == 0 {
                    return IntersectionCertificate {
                        pairs_checked: pairs,
                        failure: Some(CertFailure::ReadWrite(r, w)),
                    };
                }
            }
        }
        for (i, &a) in self.writes.iter().enumerate() {
            for &b in self.writes.iter().skip(i + 1) {
                pairs += 1;
                if a & b == 0 {
                    return IntersectionCertificate {
                        pairs_checked: pairs,
                        failure: Some(CertFailure::WriteWrite(a, b)),
                    };
                }
            }
        }
        IntersectionCertificate {
            pairs_checked: pairs,
            failure: None,
        }
    }

    /// Crash f-resilience: the largest `f` such that after *any* `f`
    /// site failures some read quorum **and** some write quorum remain
    /// fully alive. Equals `min(τ(reads), τ(writes)) − 1` where `τ` is
    /// the minimum transversal (hitting-set) size of a family — a
    /// failure set disables a family exactly when it hits every quorum.
    /// Exact branch-and-bound; families here are small by the
    /// enumeration cap.
    pub fn resilience(&self) -> u32 {
        min_transversal(&self.reads).min(min_transversal(&self.writes)) - 1
    }

    /// Exact availability in the non-partitionable model (site `i` up
    /// with probability `p[i]`, up sites fully connected):
    /// `α·P[read quorum alive] + (1−α)·P[write quorum alive]` over the
    /// `2^n` up-sets. The SURV-style set probability, which is what the
    /// coterie-comparison theorems of Garcia-Molina & Barbara are stated
    /// over.
    ///
    /// # Panics
    /// Panics on length mismatch, invalid probabilities, or `n > 20`.
    pub fn nonpartition_availability(&self, p: &[f64], alpha: f64) -> f64 {
        assert_eq!(p.len(), self.n, "one reliability per site");
        assert!((0.0..=1.0).contains(&alpha), "α must lie in [0,1]");
        assert!(self.n <= crate::expr::MAX_ENUM_SITES, "2^n scan capped");
        for &x in p {
            assert!((0.0..=1.0).contains(&x), "reliabilities must lie in [0,1]");
        }
        let mut read_prob = 0.0;
        let mut write_prob = 0.0;
        for mask in 0u64..(1 << self.n) {
            let mut prob = 1.0;
            for (i, &pi) in p.iter().enumerate() {
                prob *= if mask >> i & 1 == 1 { pi } else { 1.0 - pi };
            }
            if self.read_available(mask) {
                read_prob += prob;
            }
            if self.write_available(mask) {
                write_prob += prob;
            }
        }
        alpha * read_prob + (1.0 - alpha) * write_prob
    }
}

impl fmt::Display for QuorumSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (n={}, |R|={}, |W|={})",
            self.name,
            self.n,
            self.reads.len(),
            self.writes.len()
        )
    }
}

/// Minimum hitting-set size of a non-empty quorum family, by exact
/// branch-and-bound: any transversal must hit the first un-hit quorum,
/// so branching on that quorum's sites is complete; the current best
/// prunes.
fn min_transversal(quorums: &[u64]) -> u32 {
    assert!(
        !quorums.is_empty() && quorums.iter().all(|&q| q != 0),
        "family and every quorum must be non-empty"
    );
    fn go(quorums: &[u64], hit: u64, chosen: u32, best: &mut u32) {
        if chosen >= *best {
            return;
        }
        let Some(&q) = quorums.iter().find(|&&q| q & hit == 0) else {
            *best = chosen;
            return;
        };
        let mut rest = q;
        while rest != 0 {
            let bit = rest & rest.wrapping_neg();
            go(quorums, hit | bit, chosen + 1, best);
            rest ^= bit;
        }
    }
    // Greedy seed: take the lowest site of each un-hit quorum in turn —
    // a valid transversal whose size upper-bounds the optimum, so the
    // search starts with a tight prune.
    let mut hit = 0u64;
    let mut bound = 0u32;
    while let Some(&q) = quorums.iter().find(|&&q| q & hit == 0) {
        hit |= q & q.wrapping_neg();
        bound += 1;
    }
    go(quorums, 0, 0, &mut bound);
    bound
}

#[cfg(test)]
impl QuorumSystem {
    /// Simple majority over sites `offset..offset+count` (read and
    /// write quorums both `⌊count/2⌋+1`-subsets; self-dual for odd
    /// `count`).
    pub(crate) fn majority(count: usize, offset: usize) -> Self {
        let e = Expr::majority(count, offset);
        Self::from_exprs(
            &format!("majority-{count}"),
            offset + count,
            e.clone(),
            e.dual(),
        )
    }

    /// The read expression.
    pub(crate) fn read_expr(&self) -> &Expr {
        &self.read_expr
    }

    /// The write expression.
    pub(crate) fn write_expr(&self) -> &Expr {
        &self.write_expr
    }

    /// True if `self` dominates `other` (Garcia-Molina & Barbara \[8\]):
    /// both are over the same sites, their families differ, and every
    /// read (write) quorum of `other` contains a read (write) quorum of
    /// `self` — so `self` grants every access `other` grants, and more.
    pub(crate) fn dominates(&self, other: &QuorumSystem) -> bool {
        self.n == other.n
            && (self.reads != other.reads || self.writes != other.writes)
            && other.reads.iter().all(|&q| self.read_available(q))
            && other.writes.iter().all(|&q| self.write_available(q))
    }

    /// True if some coterie dominates the write family, by the
    /// Garcia-Molina–Barbara witness test: a site set that meets every
    /// write quorum yet contains none. Exponential in `n`.
    ///
    /// # Panics
    /// Panics if `n > MAX_ENUM_SITES`.
    pub(crate) fn is_dominated(&self) -> bool {
        assert!(self.n <= crate::expr::MAX_ENUM_SITES, "2^n scan capped");
        (1u64..1 << self.n)
            .any(|x| self.writes.iter().all(|&q| q & x != 0) && !self.write_available(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal site sets whose votes reach `q`, by a scan of all `2^n`
    /// subsets, sorted like `QuorumSystem`'s families.
    fn minimal_vote_sets(votes: &VoteAssignment, q: u64) -> Vec<u64> {
        let n = votes.num_sites();
        let reaching: Vec<u64> = (1u64..1 << n)
            .filter(|&m| votes.votes_in((0..n).filter(|&s| m >> s & 1 == 1)) >= q)
            .collect();
        let mut minimal: Vec<u64> = reaching
            .iter()
            .copied()
            .filter(|&m| !reaching.iter().any(|&o| o != m && o & m == o))
            .collect();
        minimal.sort_unstable_by_key(|&m| (m.count_ones(), m));
        minimal
    }

    /// `α·P[some read quorum up] + (1−α)·P[some write quorum up]`, summed
    /// over all `2^n` up-sets.
    fn powerset_availability(reads: &[u64], writes: &[u64], p: &[f64], alpha: f64) -> f64 {
        let contains = |family: &[u64], up: u64| family.iter().any(|&q| q & !up == 0);
        let mut total = 0.0;
        for up in 0u64..1 << p.len() {
            let prob: f64 = p
                .iter()
                .enumerate()
                .map(|(i, &pi)| if up >> i & 1 == 1 { pi } else { 1.0 - pi })
                .product();
            if contains(reads, up) {
                total += alpha * prob;
            }
            if contains(writes, up) {
                total += (1.0 - alpha) * prob;
            }
        }
        total
    }

    #[test]
    fn majority_system_certifies() {
        let s = QuorumSystem::majority(5, 0);
        assert_eq!(s.reads().len(), 10);
        assert_eq!(s.writes().len(), 10);
        let cert = s.certify();
        assert!(cert.ok());
        assert_eq!(cert.pairs_checked, 100 + 45);
        assert_eq!(s.resilience(), 2);
    }

    #[test]
    fn grid_3x3_shape_and_safety() {
        let s = QuorumSystem::grid(3, 3, 0);
        // Reads: one per column = 3^3 = 27 minimal quorums of size 3.
        assert_eq!(s.reads().len(), 27);
        assert!(s.reads().iter().all(|q| q.count_ones() == 3));
        // Writes: full column (3) + one from each other column (2) = 5
        // sites; 3 columns × 3 × 3 covers = 27.
        assert_eq!(s.writes().len(), 27);
        assert!(s.writes().iter().all(|q| q.count_ones() == 5));
        assert!(s.certify().ok());
        assert_eq!(s.resilience(), 2);
    }

    #[test]
    fn naive_grid_dual_fails_certification() {
        // The dual of "one per column" is "one full column" — and two
        // different full columns are disjoint. The checker must say so.
        let col = |c: usize| (0..3).map(move |r| r * 3 + c);
        let read = Expr::and((0..3).map(|c| Expr::or(Expr::nodes(col(c)))).collect());
        let naive = QuorumSystem::from_read_expr("naive-grid", 9, read);
        let cert = naive.certify();
        assert!(!cert.ok());
        assert!(matches!(cert.failure, Some(CertFailure::WriteWrite(..))));
    }

    #[test]
    fn hierarchical_3x3_is_self_dual_and_resilient() {
        let s = QuorumSystem::hierarchical(3, 3, 2, 2, 0);
        // Recursive majority: dual read expr equals read expr, so the
        // families coincide; quorums are 2 members in each of 2 groups.
        assert_eq!(s.reads(), s.writes());
        assert_eq!(s.reads().len(), 27);
        assert!(s.reads().iter().all(|q| q.count_ones() == 4));
        assert!(s.certify().ok());
        // Killing it needs 2 failures in each of 2 groups.
        assert_eq!(s.resilience(), 3);
    }

    #[test]
    fn vote_derived_system_matches_bicoterie_layer() {
        // The read/write coterie of a vote assignment: every minimal site
        // set reaching q_r (q_w) votes.
        let votes = VoteAssignment::weighted(vec![2, 1, 1, 1]);
        let spec = QuorumSpec::new(2, 4, 5).expect("valid");
        let s = QuorumSystem::from_spec("votes", &votes, spec);
        assert!(s.certify().ok());
        assert_eq!(s.reads().to_vec(), minimal_vote_sets(&votes, 2));
        assert_eq!(s.writes().to_vec(), minimal_vote_sets(&votes, 4));
    }

    #[test]
    fn unsafe_vote_pair_fails_certification() {
        // q_r + q_w = T: disjoint read and write sets exist. QuorumSpec
        // would reject this pair; the expression layer represents it and
        // the checker rejects it — the whole point of the certificate.
        let votes = VoteAssignment::uniform(4);
        let s = QuorumSystem::from_exprs(
            "unsafe",
            4,
            Expr::weighted_threshold(&votes, 2),
            Expr::weighted_threshold(&votes, 2),
        );
        let cert = s.certify();
        assert!(matches!(cert.failure, Some(CertFailure::ReadWrite(..))));
    }

    #[test]
    fn resilience_of_threshold_systems() {
        // Uniform votes, tight pair (q_r, T−q_r+1) on 9 sites: read
        // family dies after n−q_r+1 failures, write after n−q_w+1, so
        // resilience = n − q_w = q_r − 1.
        for q_r in 1..=4u64 {
            let votes = VoteAssignment::uniform(9);
            let spec = QuorumSpec::from_read_quorum(q_r, 9).expect("valid");
            let s = QuorumSystem::from_spec("t", &votes, spec);
            assert_eq!(s.resilience() as u64, q_r - 1, "q_r = {q_r}");
        }
    }

    #[test]
    fn rowa_resilience_is_zero() {
        let votes = VoteAssignment::uniform(5);
        let s = QuorumSystem::from_spec("rowa", &votes, QuorumSpec::read_one_write_all(5));
        // One failure kills the single write quorum.
        assert_eq!(s.resilience(), 0);
        assert!(s.certify().ok());
    }

    #[test]
    fn offset_constructors_skip_low_sites() {
        // Bus-style universes reserve site 0 for the medium: systems
        // built at offset 1 must never touch bit 0.
        for s in [
            QuorumSystem::majority(9, 1),
            QuorumSystem::grid(3, 3, 1),
            QuorumSystem::hierarchical(3, 3, 2, 2, 1),
        ] {
            assert_eq!(s.n(), 10);
            let all: u64 = s.reads().iter().chain(s.writes()).fold(0, |a, &q| a | q);
            assert_eq!(all & 1, 0, "{}: site 0 must stay untouched", s.name());
            assert!(s.certify().ok());
        }
    }

    #[test]
    fn availability_matches_bicoterie_layer() {
        let votes = VoteAssignment::uniform(5);
        let spec = QuorumSpec::majority(5);
        let s = QuorumSystem::from_spec("maj5", &votes, spec);
        let reads = minimal_vote_sets(&votes, spec.q_r());
        let writes = minimal_vote_sets(&votes, spec.q_w());
        let p = [0.8, 0.5, 0.9, 0.7, 0.6];
        for alpha in [0.0, 0.3, 1.0] {
            let a = s.nonpartition_availability(&p, alpha);
            let b = powerset_availability(&reads, &writes, &p, alpha);
            assert!((a - b).abs() < 1e-12, "α={alpha}: {a} vs {b}");
        }
    }

    #[test]
    fn availability_monotone_in_reliability() {
        let s = QuorumSystem::grid(3, 3, 0);
        let lo = s.nonpartition_availability(&[0.8; 9], 0.5);
        let hi = s.nonpartition_availability(&[0.95; 9], 0.5);
        assert!(hi > lo);
    }

    #[test]
    fn display_summarizes() {
        let s = QuorumSystem::majority(3, 0);
        assert_eq!(format!("{s}"), "majority-3 (n=3, |R|=3, |W|=3)");
    }
}
