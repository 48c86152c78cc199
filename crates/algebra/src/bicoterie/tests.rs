use crate::system::CertFailure;
use crate::{AlgebraProtocol, Expr, QuorumSystem};
use quorum_core::{Access, ConsistencyProtocol, Decision, QuorumSpec, VoteAssignment};

fn from_spec(votes: &VoteAssignment, spec: QuorumSpec) -> QuorumSystem {
    QuorumSystem::from_spec("votes", votes, spec)
}

/// Any one of the explicit site groups.
fn groups(groups: &[&[usize]]) -> Expr {
    Expr::or(
        groups
            .iter()
            .map(|g| Expr::and(Expr::nodes(g.iter().copied())))
            .collect(),
    )
}

fn mask(sites: &[usize]) -> u64 {
    sites.iter().fold(0, |m, &s| m | 1 << s)
}

#[test]
fn majority_bicoterie_roundtrip() {
    let s = from_spec(&VoteAssignment::uniform(5), QuorumSpec::majority(5));
    // Majority(5) = (3,3): both families are all 3-subsets.
    assert_eq!(s.reads().len(), 10);
    assert_eq!(s.writes().len(), 10);
    assert!(s.read_available(mask(&[0, 2, 4])));
    assert!(!s.read_available(mask(&[0, 2])));
}

#[test]
fn rowa_bicoterie() {
    let s = from_spec(
        &VoteAssignment::uniform(4),
        QuorumSpec::read_one_write_all(4),
    );
    assert_eq!(s.reads(), [0b0001, 0b0010, 0b0100, 0b1000]);
    assert_eq!(s.writes(), [0b1111]);
    assert!(s.read_available(mask(&[2])));
    assert!(!s.write_available(mask(&[0, 1, 2])));
    assert!(s.write_available(mask(&[0, 1, 2, 3])));
}

#[test]
fn decisions_match_vote_thresholds_on_all_subsets() {
    // The vote-derived system must agree with threshold counting on
    // every possible component membership.
    let votes = VoteAssignment::weighted(vec![2, 1, 1, 1]);
    let spec = QuorumSpec::new(2, 4, 5).expect("valid");
    let mut proto = AlgebraProtocol::new(from_spec(&votes, spec));
    for mask in 0u32..16 {
        let members: Vec<usize> = (0..4).filter(|&s| mask >> s & 1 == 1).collect();
        let vote_sum: u64 = members.iter().map(|&s| votes.votes_of(s)).sum();
        assert_eq!(
            proto.decide(Access::Read, &members, vote_sum).is_granted(),
            spec.read_granted(vote_sum),
            "read mismatch at {members:?}"
        );
        assert_eq!(
            proto.decide(Access::Write, &members, vote_sum).is_granted(),
            spec.write_granted(vote_sum),
            "write mismatch at {members:?}"
        );
    }
}

#[test]
fn read_write_disjoint_rejected() {
    let s = QuorumSystem::from_exprs(
        "rw-disjoint",
        4,
        Expr::Node(0),
        Expr::and(Expr::nodes(1..4)),
    );
    assert_eq!(
        s.certify().failure,
        Some(CertFailure::ReadWrite(0b0001, 0b1110))
    );
}

#[test]
fn write_write_disjoint_rejected() {
    // Writes {0,1} and {2,3} are disjoint; the reads are their dual (one
    // site from each), so every read meets every write and the only
    // violation is write-write. All 8 read×write pairs pass first.
    let writes = groups(&[&[0, 1], &[2, 3]]);
    let s = QuorumSystem::from_exprs("ww-disjoint", 4, writes.dual(), writes);
    let cert = s.certify();
    assert_eq!(cert.failure, Some(CertFailure::WriteWrite(0b0011, 0b1100)));
    assert_eq!(cert.pairs_checked, 4 * 2 + 1);
}

#[test]
fn non_vote_realizable_bicoterie_accepted() {
    // A hand-built pair on 4 sites: reads {01, 23}, writes {012, 123}.
    // The writes meet in {1,2}; {0,1} meets both writes in 1 and {2,3}
    // meets both in 2.
    let s = QuorumSystem::from_exprs(
        "hand-built",
        4,
        groups(&[&[0, 1], &[2, 3]]),
        groups(&[&[0, 1, 2], &[1, 2, 3]]),
    );
    assert!(s.certify().ok());
    assert!(s.read_available(mask(&[0, 1])));
    assert!(s.read_available(mask(&[2, 3])));
    assert!(!s.read_available(mask(&[0, 3])));
    assert!(s.write_available(mask(&[1, 2, 3])));
}

/// Votes (2,1,1) with reads at q_r = 2 and writes at q_w = 3 (`loose`)
/// or q_w = 4 (`tight`).
fn loose_and_tight() -> (QuorumSystem, QuorumSystem) {
    let votes = VoteAssignment::weighted(vec![2, 1, 1]);
    let loose = from_spec(&votes, QuorumSpec::new(2, 3, 4).expect("valid"));
    let tight = from_spec(&votes, QuorumSpec::new(2, 4, 4).expect("valid"));
    (loose, tight)
}

#[test]
fn looser_write_quorum_grants_superset() {
    // Same reads; write quorum 3 yields write groups {01},{02}, write
    // quorum 4 only {012}. The looser family grants writes in strictly
    // more states.
    let (loose, tight) = loose_and_tight();
    assert_eq!(loose.writes(), [0b011, 0b101]);
    assert_eq!(tight.writes(), [0b111]);
    assert!(!loose.dominates(&loose), "irreflexive");
    assert!(loose.dominates(&tight));
    assert!(!tight.dominates(&loose));
}

#[test]
fn nonpartition_availability_by_hand() {
    // Majority on 3 sites, uniform p: P[some 2-subset up] =
    // 3p²(1−p) + p³ for both reads and writes.
    let s = from_spec(&VoteAssignment::uniform(3), QuorumSpec::majority(3));
    let p = 0.8;
    let expect = 3.0 * p * p * (1.0 - p) + p * p * p;
    let got = s.nonpartition_availability(&[p; 3], 0.5);
    assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
}

#[test]
fn dominating_coterie_has_higher_availability_everywhere() {
    // Garcia-Molina & Barbara, quantitatively: a system that dominates
    // another has availability at least as high for EVERY reliability
    // vector — and strictly higher somewhere.
    let (loose, tight) = loose_and_tight();
    assert!(loose.dominates(&tight));
    let grid = [0.3, 0.5, 0.7, 0.9, 0.99];
    let mut strictly_better = false;
    for &a in &grid {
        for &b in &grid {
            for &c in &grid {
                let p = [a, b, c];
                for alpha in [0.0, 0.5, 1.0] {
                    let l = loose.nonpartition_availability(&p, alpha);
                    let t = tight.nonpartition_availability(&p, alpha);
                    assert!(l >= t - 1e-12, "p={p:?} α={alpha}: {l} < {t}");
                    if l > t + 1e-9 {
                        strictly_better = true;
                    }
                }
            }
        }
    }
    assert!(strictly_better, "domination should be strict somewhere");
}

#[test]
fn protocol_denies_on_empty_members() {
    let s = from_spec(&VoteAssignment::uniform(3), QuorumSpec::majority(3));
    let mut proto = AlgebraProtocol::new(s);
    assert_eq!(proto.decide(Access::Read, &[], 0), Decision::Denied);
    assert_eq!(proto.decide(Access::Write, &[], 0), Decision::Denied);
}

#[test]
fn simulated_coterie_protocol_is_serializable() {
    // The end-to-end simulation runs in the integration tests
    // (`coterie_and_metrics.rs`); here we spot-check decisions.
    let s = from_spec(&VoteAssignment::uniform(5), QuorumSpec::majority(5));
    let mut proto = AlgebraProtocol::new(s);
    assert!(proto.decide(Access::Write, &[0, 1, 2], 3).is_granted());
    assert!(!proto.decide(Access::Write, &[0, 1], 2).is_granted());
}
