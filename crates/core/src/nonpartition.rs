//! The non-partitionable model of Ahamad & Ammar \[1\] and the vote-and-
//! quorum co-optimization of Cheung, Ahamad & Ammar \[7\].
//!
//! The paper positions itself against these analyses (§1): they assume
//! "if two sites are operational then they can communicate" — no link
//! failures, no partitions — which makes availability *exactly* computable
//! by dynamic programming over the independent site up/down states, and
//! makes joint vote/quorum optimization tractable for small `n`. The paper
//! shows their extreme-endpoint and majority-optimality conclusions
//! carry over to partitionable networks; this module lets the test-suite
//! and experiments verify that correspondence directly.
//!
//! Model: site `i` is up with probability `p_i` independently; an up site
//! can reach every other up site. A read submitted anywhere succeeds iff
//! the up-vote total reaches `q_r` (writes: `q_w`). Following the paper's
//! ACC convention, the submitting site must itself be up.

use crate::availability::AvailabilityModel;
use crate::quorum::QuorumSpec;
use quorum_stats::DiscreteDist;

/// Exact distribution of the total up-votes *excluding* a designated site,
/// by subset-sum DP: `O(n · T)`.
fn up_vote_distribution_excluding(
    votes: &[u64],
    reliabilities: &[f64],
    excluded: usize,
) -> Vec<f64> {
    let total: u64 = votes.iter().sum();
    let mut dist = vec![0.0; (total + 1) as usize];
    dist[0] = 1.0;
    let mut reachable: u64 = 0;
    for (i, (&v, &p)) in votes.iter().zip(reliabilities).enumerate() {
        if i == excluded {
            continue;
        }
        if v == 0 {
            continue; // zero-vote sites don't shift the sum
        }
        reachable += v;
        // Iterate downward so each site is counted once.
        let lo = v as usize;
        for s in (lo..=reachable as usize).rev() {
            dist[s] = dist[s] * (1.0 - p) + dist[s - lo] * p;
        }
        for s in 0..lo.min(dist.len()) {
            dist[s] *= 1.0 - p;
        }
    }
    dist
}

/// Exact distribution of the total up-votes over *all* sites — the SURV
/// analogue (§3): no conditioning on a submitting site, so
/// `P[V ≥ q]` is the probability that *somebody* can assemble quorum `q`.
pub fn up_vote_distribution(votes: &[u64], reliabilities: &[f64]) -> DiscreteDist {
    assert_eq!(votes.len(), reliabilities.len(), "one reliability per site");
    for &p in reliabilities {
        assert!((0.0..=1.0).contains(&p), "reliabilities must lie in [0,1]");
    }
    // Reuse the exclusion DP with a sentinel index that matches nothing.
    let dist = up_vote_distribution_excluding(votes, reliabilities, usize::MAX);
    DiscreteDist::from_pmf(dist)
}

/// The per-site density `f_i(v)` in the non-partitionable model: with
/// probability `1 − p_i` the site is down (`v = 0`); otherwise `v` is
/// `votes[i]` plus the independent up-votes of the others.
pub fn site_density(votes: &[u64], reliabilities: &[f64], site: usize) -> DiscreteDist {
    assert_eq!(votes.len(), reliabilities.len(), "one reliability per site");
    assert!(site < votes.len(), "site out of range");
    for &p in reliabilities {
        assert!((0.0..=1.0).contains(&p), "reliabilities must lie in [0,1]");
    }
    let total: u64 = votes.iter().sum();
    let others = up_vote_distribution_excluding(votes, reliabilities, site);
    let p_i = reliabilities[site];
    let v_i = votes[site] as usize;
    let mut pmf = vec![0.0; (total + 1) as usize];
    pmf[0] = 1.0 - p_i;
    for (s, &m) in others.iter().enumerate() {
        if s + v_i < pmf.len() {
            pmf[s + v_i] += p_i * m;
        }
    }
    DiscreteDist::from_pmf(pmf)
}

/// Availability model for uniform access in the non-partitionable model.
pub fn model_uniform_access(votes: &[u64], reliabilities: &[f64]) -> AvailabilityModel {
    let n = votes.len();
    let densities: Vec<DiscreteDist> = (0..n)
        .map(|i| site_density(votes, reliabilities, i))
        .collect();
    AvailabilityModel::uniform_access(&densities)
}

/// Result of a joint vote/quorum search.
#[derive(Debug, Clone, PartialEq)]
pub struct VoteOptimum {
    /// The winning vote assignment.
    pub votes: Vec<u64>,
    /// The winning quorum pair.
    pub spec: QuorumSpec,
    /// Its availability.
    pub availability: f64,
    /// Vote/quorum combinations evaluated.
    pub evaluations: u64,
}

/// Checks the per-site vote cap of [`optimal_votes_exhaustive`] and
/// [`optimal_votes_hill_climb`], returning the violated rule.
pub fn check_max_votes(max_votes_per_site: u64) -> Result<(), String> {
    if max_votes_per_site >= 1 {
        Ok(())
    } else {
        Err("need at least one vote per site".to_string())
    }
}

/// Exhaustive joint vote/quorum optimization (Cheung-Ahamad-Ammar style):
/// tries every vote vector with entries in `0..=max_votes_per_site`
/// (skipping the all-zero vector) and every `q_r` in the domain.
///
/// Exponential (`(max+1)^n` vote vectors) — mirrors \[7\], which reports
/// numbers for networks of up to seven sites.
///
/// # Panics
/// Panics if `n > 8` or `max_votes_per_site == 0` (guard rails on the
/// exponential search).
pub fn optimal_votes_exhaustive(
    reliabilities: &[f64],
    alpha: f64,
    max_votes_per_site: u64,
) -> VoteOptimum {
    let n = reliabilities.len();
    assert!(
        (1..=8).contains(&n),
        "exhaustive vote search capped at 8 sites"
    );
    crate::analytic::enforce(check_max_votes(max_votes_per_site));
    let base = max_votes_per_site + 1;
    let combos = base.pow(n as u32);
    let mut best: Option<VoteOptimum> = None;
    let mut evals = 0u64;
    for code in 1..combos {
        let mut c = code;
        let mut votes = vec![0u64; n];
        for site_votes in votes.iter_mut() {
            *site_votes = c % base;
            c /= base;
        }
        let total: u64 = votes.iter().sum();
        if total == 0 {
            continue;
        }
        let model = model_uniform_access(&votes, reliabilities);
        let hi = if total == 1 { 1 } else { total / 2 };
        for q_r in 1..=hi {
            evals += 1;
            let a = model.availability(alpha, q_r);
            if best.as_ref().is_none_or(|b| a > b.availability + 1e-15) {
                best = Some(VoteOptimum {
                    votes: votes.clone(),
                    spec: QuorumSpec::from_read_quorum(q_r, total).expect("domain-checked"),
                    availability: a,
                    evaluations: 0,
                });
            }
        }
    }
    let mut out = best.expect("at least one assignment evaluated");
    out.evaluations = evals;
    out
}

/// Multi-start hill-climbing vote optimization for larger `n`.
///
/// Starts from the uniform assignment *and* from each single-site
/// dictator (the primary-copy shape, which plain hill climbing from
/// uniform cannot reach through monotone single-vote moves), then
/// repeatedly applies the best ±1-vote single-site perturbation
/// (re-optimizing `q_r` each time) until no move improves.
///
/// # Panics
/// Panics if `reliabilities` is empty or `max_votes_per_site == 0`.
pub fn optimal_votes_hill_climb(
    reliabilities: &[f64],
    alpha: f64,
    max_votes_per_site: u64,
) -> VoteOptimum {
    let n = reliabilities.len();
    assert!(n >= 1);
    crate::analytic::enforce(check_max_votes(max_votes_per_site));
    let mut evals = 0u64;
    let eval_best_q = |votes: &[u64], evals: &mut u64| -> (u64, f64) {
        let total: u64 = votes.iter().sum();
        let model = model_uniform_access(votes, reliabilities);
        let hi = if total == 1 { 1 } else { total / 2 };
        let mut best = (1u64, f64::MIN);
        for q_r in 1..=hi {
            *evals += 1;
            let a = model.availability(alpha, q_r);
            if a > best.1 {
                best = (q_r, a);
            }
        }
        best
    };

    let mut starts: Vec<Vec<u64>> = vec![vec![1u64; n]];
    for site in 0..n {
        let mut dictator = vec![0u64; n];
        dictator[site] = 1;
        starts.push(dictator);
    }

    let mut overall: Option<(Vec<u64>, u64, f64)> = None;
    for start in starts {
        let mut votes = start;
        let (mut best_q, mut best_a) = eval_best_q(&votes, &mut evals);
        loop {
            let mut improved = false;
            for site in 0..n {
                for delta in [-1i64, 1] {
                    let nv = votes[site] as i64 + delta;
                    if nv < 0 || nv > max_votes_per_site as i64 {
                        continue;
                    }
                    let mut cand = votes.clone();
                    cand[site] = nv as u64;
                    if cand.iter().sum::<u64>() == 0 {
                        continue;
                    }
                    let (q, a) = eval_best_q(&cand, &mut evals);
                    if a > best_a + 1e-12 {
                        votes = cand;
                        best_q = q;
                        best_a = a;
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        if overall.as_ref().is_none_or(|(_, _, a)| best_a > *a) {
            overall = Some((votes, best_q, best_a));
        }
    }
    let (votes, best_q, best_a) = overall.expect("at least one start");
    let total: u64 = votes.iter().sum();
    VoteOptimum {
        spec: QuorumSpec::from_read_quorum(best_q, total).expect("domain-checked"),
        votes,
        availability: best_a,
        evaluations: evals,
    }
}

/// `A(α, q_r)` for a given vote assignment in the non-partitionable model.
#[cfg(test)]
fn availability(votes: &[u64], reliabilities: &[f64], alpha: f64, q_r: u64) -> f64 {
    model_uniform_access(votes, reliabilities).availability(alpha, q_r)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn density_matches_brute_force_enumeration() {
        // 4 sites, weighted votes, mixed reliabilities: enumerate all 2^4
        // up/down states and compare against the DP.
        let votes = [3u64, 1, 2, 1];
        let rel = [0.9, 0.8, 0.7, 0.95];
        for site in 0..4 {
            let d = site_density(&votes, &rel, site);
            let total: u64 = votes.iter().sum();
            let mut expect = vec![0.0; (total + 1) as usize];
            for mask in 0u32..16 {
                let mut p = 1.0;
                let mut v = 0u64;
                for i in 0..4 {
                    if mask >> i & 1 == 1 {
                        p *= rel[i];
                        v += votes[i];
                    } else {
                        p *= 1.0 - rel[i];
                    }
                }
                if mask >> site & 1 == 1 {
                    expect[v as usize] += p;
                } else {
                    expect[0] += p;
                }
            }
            for v in 0..=total as usize {
                assert_close(d.pmf(v), expect[v], 1e-12);
            }
        }
    }

    #[test]
    fn density_is_normalized() {
        let votes = [2u64, 2, 1, 1, 3];
        let rel = [0.96; 5];
        for site in 0..5 {
            let d = site_density(&votes, &rel, site);
            assert_close(d.total_mass(), 1.0, 1e-9);
        }
    }

    #[test]
    fn matches_fully_connected_closed_form_with_perfect_links() {
        // r = 1 in the FC closed form == the non-partitionable model.
        use crate::analytic::fully_connected_density;
        let n = 9;
        let p = 0.9;
        let np = site_density(&vec![1; n], &vec![p; n], 0);
        let fc = fully_connected_density(n, p, 1.0);
        assert!(np.max_abs_diff(&fc) < 1e-9);
    }

    #[test]
    fn zero_vote_sites_do_not_affect_totals() {
        let d1 = site_density(&[1, 1, 1], &[0.9, 0.9, 0.9], 0);
        let d2 = site_density(&[1, 1, 1, 0], &[0.9, 0.9, 0.9, 0.5], 0);
        for v in 0..=3 {
            assert_close(d1.pmf(v), d2.pmf(v), 1e-12);
        }
    }

    #[test]
    fn up_vote_distribution_is_binomial_for_uniform() {
        // Uniform votes and reliabilities: total up-votes ~ Binomial(n,p).
        let (n, p) = (6usize, 0.7);
        let d = up_vote_distribution(&vec![1; n], &vec![p; n]);
        let choose = |n: usize, k: usize| -> f64 {
            let mut acc = 1f64;
            for i in 0..k {
                acc = acc * (n - i) as f64 / (i + 1) as f64;
            }
            acc
        };
        for v in 0..=n {
            let binom = choose(n, v) * p.powi(v as i32) * (1.0 - p).powi((n - v) as i32);
            assert_close(d.pmf(v), binom, 1e-12);
        }
    }

    #[test]
    fn surv_dominates_acc_in_nonpartition_model() {
        let votes = [1u64; 7];
        let rel = [0.9; 7];
        let surv = up_vote_distribution(&votes, &rel);
        let acc = site_density(&votes, &rel, 0);
        for q in 1..=7usize {
            assert!(
                surv.tail_sum(q) >= acc.tail_sum(q) - 1e-12,
                "q = {q}: SURV tail {} < ACC tail {}",
                surv.tail_sum(q),
                acc.tail_sum(q)
            );
        }
    }

    #[test]
    fn availability_all_reads_is_site_reliability() {
        // α = 1, q_r = 1: a read succeeds iff the submitting site is up.
        let a = availability(&[1; 7], &[0.85; 7], 1.0, 1);
        assert_close(a, 0.85, 1e-12);
    }

    #[test]
    fn exhaustive_prefers_uniform_votes_for_symmetric_sites() {
        // Symmetric reliabilities: some uniform-equivalent assignment is
        // optimal (Ahamad-Ammar). Check the optimum's availability equals
        // the uniform assignment's best.
        let rel = [0.9; 4];
        let opt = optimal_votes_exhaustive(&rel, 0.5, 2);
        let uniform_model = model_uniform_access(&[1; 4], &rel);
        let best_uniform = (1..=2u64)
            .map(|q| uniform_model.availability(0.5, q))
            .fold(f64::MIN, f64::max);
        assert!(
            opt.availability >= best_uniform - 1e-12,
            "optimum {} below uniform {}",
            opt.availability,
            best_uniform
        );
        // And not meaningfully above: symmetric sites can't be beaten by
        // asymmetric votes in this model at α = .5? They CAN (e.g. a
        // 3-vote dictator when p is low) — so only assert ≥ and report.
        assert!(opt.availability >= best_uniform - 1e-12);
    }

    #[test]
    fn exhaustive_gives_reliable_site_more_votes() {
        // One highly-reliable site among flaky ones at α = 0 (writes):
        // the optimizer should lean on the reliable site.
        let rel = [0.99, 0.5, 0.5, 0.5];
        let opt = optimal_votes_exhaustive(&rel, 0.0, 3);
        assert!(
            opt.votes[0] > *opt.votes[1..].iter().max().unwrap(),
            "reliable site should dominate: {:?}",
            opt.votes
        );
    }

    #[test]
    fn hill_climb_reaches_exhaustive_quality_small_n() {
        let rel = [0.95, 0.6, 0.8, 0.7];
        for alpha in [0.0, 0.5, 1.0] {
            let ex = optimal_votes_exhaustive(&rel, alpha, 2);
            let hc = optimal_votes_hill_climb(&rel, alpha, 2);
            assert!(
                hc.availability >= ex.availability - 0.01,
                "α={alpha}: hill-climb {} far below exhaustive {}",
                hc.availability,
                ex.availability
            );
            assert!(hc.evaluations <= ex.evaluations);
        }
    }

    #[test]
    fn hill_climb_scales_beyond_exhaustive_limit() {
        // ACC is capped by the submitting site's reliability (0.9), so a
        // near-0.9 result is essentially optimal.
        let rel = vec![0.9; 15];
        let opt = optimal_votes_hill_climb(&rel, 0.5, 3);
        assert!(opt.availability > 0.85, "availability {}", opt.availability);
        assert_eq!(opt.votes.len(), 15);
    }

    #[test]
    fn ahamad_ammar_extreme_point_property() {
        // [1]'s theorem (cited in §1): the optimum of A(α, q_r) over q_r
        // lies at an extreme of the range. In the non-partitionable model
        // with uniform votes, verify for several α and reliabilities.
        for &p in &[0.6, 0.9, 0.99] {
            let model = model_uniform_access(&[1; 9], &[p; 9]);
            for &alpha in &[0.0, 0.25, 0.5, 0.75, 1.0] {
                let vals: Vec<f64> = (1..=4u64).map(|q| model.availability(alpha, q)).collect();
                let max = vals.iter().cloned().fold(f64::MIN, f64::max);
                let at_ends = vals[0].max(vals[3]);
                assert!(
                    at_ends >= max - 1e-12,
                    "p={p} α={alpha}: interior max {vals:?}"
                );
            }
        }
    }

    #[test]
    fn majority_end_optimal_for_balanced_ratio_high_reliability() {
        // [1]'s conclusion (§5.5): majority-style quorums are optimal for
        // balanced ratios on reliable, non-partitionable systems. In the
        // paper's parameterization the majority end of the domain is
        // q_r = ⌊T/2⌋ with q_w = T − q_r + 1.
        let model = model_uniform_access(&[1; 9], &[0.95; 9]);
        let opt =
            crate::optimal::optimal_quorum(&model, 0.5, crate::optimal::SearchStrategy::Exhaustive);
        assert_eq!(opt.spec.q_r(), 4, "majority end of the domain");
    }

    #[test]
    fn odd_t_true_majority_marginally_beats_tight_pairing() {
        // Nuance of the paper's §2.1 restriction: for odd T the domain
        // pairs q_r = ⌊T/2⌋ with q_w = ⌈T/2⌉ + 1, excluding the true
        // majority (⌈T/2⌉, ⌈T/2⌉) — which at balanced ratios is very
        // slightly better (pmf is increasing near the top, so trading
        // R(4) + W(6) for 2·R(5) gains pmf(5) − pmf(4) > 0... per side).
        let model = model_uniform_access(&[1; 9], &[0.95; 9]);
        let domain_best =
            crate::optimal::optimal_quorum(&model, 0.5, crate::optimal::SearchStrategy::Exhaustive)
                .availability;
        let true_majority = 0.5 * model.read_availability(5) + 0.5 * model.write_availability(5);
        assert!(true_majority > domain_best, "nuance vanished?");
        assert!(true_majority - domain_best < 1e-3, "gap should be tiny");
    }

    #[test]
    #[should_panic(expected = "capped at 8")]
    fn exhaustive_guard_rail() {
        optimal_votes_exhaustive(&[0.9; 9], 0.5, 1);
    }
}
