use crate::system::CertFailure;
use crate::{Expr, QuorumSystem};
use quorum_core::{QuorumSpec, VoteAssignment};

/// The coterie whose groups are the quorums of `e`: reads = writes.
fn coterie(n: usize, e: Expr) -> QuorumSystem {
    QuorumSystem::from_exprs("coterie", n, e.clone(), e)
}

/// All `(n/2 + 1)`-subsets of `0..n`.
fn majority(n: usize) -> QuorumSystem {
    coterie(n, Expr::majority(n, 0))
}

/// The singleton coterie `{{p}}`.
fn primary(n: usize, p: usize) -> QuorumSystem {
    coterie(n, Expr::Node(p))
}

/// The coterie of explicit groups, given as site masks.
fn groups(n: usize, masks: &[u64]) -> QuorumSystem {
    let group = |m: u64| Expr::and(Expr::nodes((0..n).filter(|s| m >> s & 1 == 1)));
    coterie(n, Expr::or(masks.iter().map(|&m| group(m)).collect()))
}

/// The minimal site sets whose votes reach `q` (`2q > T`).
fn from_votes(votes: &VoteAssignment, q: u64) -> QuorumSystem {
    let spec = QuorumSpec::new(q, q, votes.total()).expect("2q > T");
    QuorumSystem::from_spec("votes", votes, spec)
}

fn mask(sites: &[usize]) -> u64 {
    sites.iter().fold(0, |m, &s| m | 1 << s)
}

/// Every coterie over `0..n`: a DFS over site masks in ascending order
/// that adds a mask when it meets, and is incomparable with, every mask
/// already chosen. Exponential; for `n <= 3`.
fn enumerate_all(n: usize) -> Vec<QuorumSystem> {
    fn dfs(n: usize, start: u64, chosen: &mut Vec<u64>, out: &mut Vec<QuorumSystem>) {
        if !chosen.is_empty() {
            out.push(groups(n, chosen));
        }
        for cand in start..1 << n {
            let fits = chosen
                .iter()
                .all(|&g| g & cand != 0 && g & cand != g && g & cand != cand);
            if fits {
                chosen.push(cand);
                dfs(n, cand + 1, chosen, out);
                chosen.pop();
            }
        }
    }
    let mut out = Vec::new();
    dfs(n, 1, &mut Vec::new(), &mut out);
    out
}

fn enumerate_non_dominated(n: usize) -> Vec<QuorumSystem> {
    enumerate_all(n)
        .into_iter()
        .filter(|c| !c.is_dominated())
        .collect()
}

#[test]
fn majority_coterie_three_sites() {
    let c = majority(3);
    assert_eq!(c.writes().len(), 3); // {01, 02, 12}
    assert!(!c.is_dominated());
    assert!(c.write_available(mask(&[0, 1])));
    assert!(!c.write_available(mask(&[2])));
}

#[test]
fn primary_coterie() {
    let c = primary(4, 2);
    assert_eq!(c.writes().len(), 1);
    assert!(c.write_available(mask(&[2])));
    assert!(!c.write_available(mask(&[0, 1, 3])));
    assert!(!c.is_dominated(), "singleton coterie is non-dominated");
}

#[test]
fn disjoint_groups_rejected() {
    let c = groups(4, &[0b0011, 0b1100]);
    assert_eq!(
        c.certify().failure,
        Some(CertFailure::ReadWrite(0b0011, 0b1100))
    );
}

#[test]
fn from_uniform_votes_majority_quorum() {
    let c = from_votes(&VoteAssignment::uniform(5), 3);
    // All 3-subsets of 5 sites: C(5,3) = 10 groups.
    assert_eq!(c.writes().len(), 10);
    assert_eq!(c.reads(), majority(5).reads());
    assert_eq!(c.writes(), majority(5).writes());
}

#[test]
fn from_weighted_votes() {
    // Votes (2,1,1), T = 4, q = 3: {1,2} holds only 2 votes, so the
    // groups are {0,1} and {0,2}.
    let c = from_votes(&VoteAssignment::weighted(vec![2, 1, 1]), 3);
    assert_eq!(c.writes(), [0b011, 0b101]);
    // Site 0 is a "king": this coterie is dominated by primary(0).
    assert!(primary(3, 0).dominates(&c));
    assert!(c.is_dominated());
}

#[test]
fn domination_is_irreflexive() {
    let c = majority(3);
    assert!(!c.dominates(&c.clone()));
}

#[test]
fn majority_is_non_dominated_small_n() {
    for n in [1usize, 3, 5] {
        assert!(!majority(n).is_dominated(), "n = {n}");
    }
}

#[test]
fn even_majority_is_dominated() {
    // For even n, the (n/2+1)-majority coterie is dominated (classic
    // result — adding a tie-breaking site produces a better coterie).
    assert!(majority(4).is_dominated());
}

#[test]
fn enumerate_n1_and_n2() {
    // {{0}} is the only coterie over 1 site. {0} and {1} are disjoint,
    // so the coteries over 2 sites are {{0}}, {{1}} and {{0,1}}.
    assert_eq!(enumerate_all(1).len(), 1);
    assert_eq!(enumerate_all(2).len(), 3);
    // {{0,1}} is dominated by {{0}} (and {{1}}).
    assert_eq!(enumerate_non_dominated(2).len(), 2);
}

#[test]
fn enumerate_n3_counts() {
    let all = enumerate_all(3);
    // Every enumerated family satisfies the axioms by construction;
    // check that and that majority(3) is found.
    assert!(all.iter().any(|c| c.writes() == majority(3).writes()));
    for c in &all {
        assert!(c.certify().ok(), "{c}");
    }
    let nd = enumerate_non_dominated(3);
    // Non-dominated coteries correspond to non-constant self-dual
    // monotone boolean functions; on 3 variables there are exactly 4
    // (the three dictators and majority). Verify the count and that
    // no enumerated coterie dominates any of them.
    for c in &nd {
        for other in &all {
            assert!(!other.dominates(c), "{other:?} dominates {c:?}");
        }
    }
    assert_eq!(nd.len(), 4);
}

#[test]
fn dominated_coterie_has_witness_dominator() {
    let all = enumerate_all(3);
    for c in &all {
        if c.is_dominated() {
            assert!(
                all.iter().any(|o| o.dominates(c)),
                "dominated {c:?} lacks dominator in enumeration"
            );
        }
    }
}

#[test]
fn contains_quorum_requires_full_group() {
    let c = majority(5);
    assert!(c.write_available(mask(&[0, 2, 4])));
    assert!(!c.write_available(mask(&[0, 2])));
    assert!(!c.write_available(0));
}
