//! Property tests on the quorum algebra: duality is an involution whose
//! quorums are exactly the minimal transversals, structural enumeration
//! agrees with the powerset reference on every small expression, and
//! vote-derived systems are safe and round-trip exactly — including
//! ties at exactly the threshold — against the raw vote arithmetic the
//! protocol layer uses, with their families and availability equal to a
//! powerset scan of the vote sums.

use proptest::prelude::*;
use quorum_algebra::{Expr, QuorumSystem};
use quorum_core::{QuorumSpec, VoteAssignment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random monotone expression over sites `0..n`, grown from a seeded
/// RNG so every failure reproduces from the proptest case alone. Leaves
/// are biased in so depth stays small; `choose` picks `1 < k < len` to
/// exercise the non-degenerate threshold path.
fn random_expr(rng: &mut StdRng, n: usize, depth: usize) -> Expr {
    if depth == 0 || rng.random_range(0..3) == 0 {
        return Expr::Node(rng.random_range(0..n));
    }
    let arity = rng.random_range(2..=4usize);
    let children: Vec<Expr> = (0..arity).map(|_| random_expr(rng, n, depth - 1)).collect();
    match rng.random_range(0..3) {
        0 => Expr::and(children),
        1 => Expr::or(children),
        _ => {
            let k = rng.random_range(1..=children.len());
            Expr::choose(k, children)
        }
    }
}

/// The minimal site sets whose votes reach `q`, found by scanning every
/// subset, in the canonical `(popcount, value)` order: the definition of
/// a vote-derived family that `QuorumSystem::from_spec` must reproduce.
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
/// over all `2^n` up-sets with site `i` up with probability `p[i]`.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// dual(dual(e)) is structurally identical to e — the And↔Or swap
    /// and the Choose(k) → Choose(len−k+1) map are both involutions.
    #[test]
    fn dual_is_an_involution(seed in 0u64..5_000, n in 1usize..8, depth in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_expr(&mut rng, n, depth);
        prop_assert_eq!(e.dual().dual(), e);
    }

    /// Structural enumeration ≡ powerset reference on every expression
    /// with at most 8 sites: same minimal quorums, same canonical order.
    #[test]
    fn enumeration_matches_powerset(seed in 0u64..5_000, n in 1usize..=8, depth in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_expr(&mut rng, n, depth);
        prop_assert_eq!(e.min_quorums(), e.min_quorums_powerset(n));
    }

    /// The dual's quorums are exactly the sets meeting every quorum of
    /// the primal (minimal transversals) — checked semantically: a mask
    /// satisfies the dual iff its complement fails the primal.
    #[test]
    fn dual_complement_law(seed in 0u64..5_000, n in 1usize..7, depth in 0usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let e = random_expr(&mut rng, n, depth);
        let d = e.dual();
        let full = (1u64 << n) - 1;
        for mask in 0..=full {
            prop_assert_eq!(d.is_quorum(mask), !e.is_quorum(full & !mask));
        }
    }

    /// A vote-derived system with `q_r + q_w > T` and `2·q_w > T`
    /// (exactly `QuorumSpec`'s validity conditions) always passes the
    /// intersection certificate, for arbitrary vote vectors.
    #[test]
    fn valid_vote_systems_certify(
        seed in 0u64..5_000,
        n in 2usize..7,
        read_frac in 0.0f64..1.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // At least one positive vote; values 0..=3 exercise zero-vote
        // sites and weighted ties.
        let mut votes: Vec<u64> = (0..n).map(|_| rng.random_range(0..=3u64)).collect();
        if votes.iter().all(|&v| v == 0) {
            votes[rng.random_range(0..n)] = 1;
        }
        let votes = VoteAssignment::weighted(votes);
        let t = votes.total();
        // Derive a valid (q_r, q_w) from the fractions: q_w in the safe
        // upper half, q_r the matching intersection partner.
        let q_w = t / 2 + 1 + (read_frac * ((t - t / 2 - 1) as f64)) as u64;
        let q_r = t + 1 - q_w;
        let spec = QuorumSpec::new(q_r, q_w, t).expect("constructed to be valid");
        let sys = QuorumSystem::from_spec("prop", &votes, spec);
        let cert = sys.certify();
        prop_assert!(cert.ok(), "valid vote spec failed certification: {:?}", cert.failure);
    }

    /// The weighted-threshold expression round-trips the vote arithmetic
    /// exactly: for every subset, `is_quorum` ⇔ the subset's votes reach
    /// the threshold — including ties at exactly `q` votes, which is
    /// where a strict-inequality bug would hide.
    #[test]
    fn weighted_threshold_round_trip(seed in 0u64..5_000, n in 1usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut votes: Vec<u64> = (0..n).map(|_| rng.random_range(0..=3u64)).collect();
        if votes.iter().all(|&v| v == 0) {
            votes[rng.random_range(0..n)] = 1;
        }
        let votes = VoteAssignment::weighted(votes);
        let q = rng.random_range(1..=votes.total());
        let expr = Expr::weighted_threshold(&votes, q);
        for mask in 0..(1u64 << n) {
            let reached = votes.votes_in((0..n).filter(|&s| mask >> s & 1 == 1)) >= q;
            prop_assert_eq!(
                expr.is_quorum(mask),
                reached,
                "mask {mask:#b} with threshold {q} of {:?}",
                votes.as_slice()
            );
        }
    }

    /// `QuorumSystem::from_spec` derives exactly the minimal vote-reaching
    /// site sets. For random weighted votes (zero-vote sites included)
    /// and every valid write quorum with its tight read partner — so
    /// every threshold `1..=T` appears on one side — both families equal
    /// the powerset scan's, and the non-partitionable availability equals
    /// the powerset sum over them.
    #[test]
    fn vote_families_match_powerset_oracle(seed in 0u64..5_000, n in 1usize..=7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut votes: Vec<u64> = (0..n).map(|_| rng.random_range(0..=3u64)).collect();
        if votes.iter().all(|&v| v == 0) {
            votes[rng.random_range(0..n)] = 1;
        }
        let votes = VoteAssignment::weighted(votes);
        let t = votes.total();
        let p = &[0.8, 0.5, 0.9, 0.7, 0.6, 0.95, 0.3][..n];
        for q_w in t / 2 + 1..=t {
            let spec = QuorumSpec::new(t + 1 - q_w, q_w, t).expect("tight pair is valid");
            let sys = QuorumSystem::from_spec("prop", &votes, spec);
            let reads = minimal_vote_sets(&votes, spec.q_r());
            let writes = minimal_vote_sets(&votes, q_w);
            prop_assert_eq!(sys.reads(), &reads[..], "reads of {:?}", spec);
            prop_assert_eq!(sys.writes(), &writes[..], "writes of {:?}", spec);
            for alpha in [0.0, 0.3, 1.0] {
                let got = sys.nonpartition_availability(p, alpha);
                let want = powerset_availability(&reads, &writes, p, alpha);
                prop_assert!((got - want).abs() < 1e-12, "{spec:?} α={alpha}: {got} vs {want}");
            }
        }
    }
}
