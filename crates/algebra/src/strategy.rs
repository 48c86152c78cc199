//! Read/write strategy optimization: probability distributions over
//! quorums minimizing worst-site load.
//!
//! Following "Read-Write Quorum Systems Made Practical"
//! (arXiv:2104.04102): a *strategy* is a pair of distributions — σ_r
//! over read quorums, σ_w over write quorums. With read fraction `α`,
//! the load a strategy induces on site `s` is
//!
//! ```text
//! load(s) = α · Σ_{r ∋ s} σ_r(r)  +  (1−α) · Σ_{w ∋ s} σ_w(w)
//! ```
//!
//! and the system's load under the strategy is `max_s load(s)` — the
//! fraction of accesses the busiest site handles, whose inverse is
//! system throughput capacity. [`optimize_load`] minimizes this by an
//! LP-free deterministic multiplicative-weights game: an adversary
//! maintains weights over sites (seeking the overloaded one), the
//! strategy player best-responds with the lightest quorums, and the
//! averaged responses converge to the optimal mixed strategy. Both a
//! certified *achievable* load (the averaged strategy, an upper bound
//! on the optimum) and a certified *lower bound* (the best adversary
//! response value) are reported, so callers can see the duality gap.
//!
//! For vote-derived systems with uniform votes the optimum is known in
//! closed form ([`uniform_threshold_load`]), which anchors the
//! vote-vs-structural comparisons: the structural system's *achieved*
//! (upper-bound) load is compared against the vote system's *exact*
//! optimum, so "structural beats votes" claims are sound even with an
//! approximate solver.

use crate::system::QuorumSystem;

/// A probability distribution over a family of quorums.
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    quorums: Vec<u64>,
    probs: Vec<f64>,
}

impl Strategy {
    /// A distribution from per-quorum weights (normalized here).
    ///
    /// # Panics
    /// Panics on length mismatch, negative weights, or zero total.
    pub(crate) fn from_weights(quorums: &[u64], weights: &[f64]) -> Self {
        assert_eq!(quorums.len(), weights.len(), "one weight per quorum");
        let total: f64 = weights.iter().sum();
        assert!(
            weights.iter().all(|&w| w >= 0.0) && total > 0.0,
            "weights must be non-negative with positive total"
        );
        Self {
            quorums: quorums.to_vec(),
            probs: weights.iter().map(|w| w / total).collect(),
        }
    }

    /// The quorums the strategy ranges over.
    pub(crate) fn quorums(&self) -> &[u64] {
        &self.quorums
    }

    /// Probability that an access under this strategy touches `site`.
    pub(crate) fn site_load(&self, site: usize) -> f64 {
        self.quorums
            .iter()
            .zip(&self.probs)
            .filter(|(&q, _)| q >> site & 1 == 1)
            .map(|(_, &p)| p)
            .sum()
    }
}

/// Worst-site load of a read/write strategy pair at read fraction
/// `read_fraction`, maximized over the union support of both families.
pub(crate) fn mixed_load(read: &Strategy, write: &Strategy, read_fraction: f64) -> f64 {
    let support = read
        .quorums()
        .iter()
        .chain(write.quorums())
        .fold(0u64, |a, &q| a | q);
    let fw = 1.0 - read_fraction;
    let mut worst = 0.0f64;
    for s in 0..64 {
        if support >> s & 1 == 1 {
            let l = read_fraction * read.site_load(s) + fw * write.site_load(s);
            worst = worst.max(l);
        }
    }
    worst
}

/// The outcome of a load optimization.
#[derive(Debug, Clone)]
pub struct LoadProfile {
    /// Achieved worst-site load of the averaged strategies — an upper
    /// bound on the system's optimal load, and itself achievable.
    pub load: f64,
    /// Certified lower bound on the optimal load (best adversary
    /// value observed); `lower_bound <= optimum <= load`.
    pub lower_bound: f64,
    /// Solver iterations performed.
    pub iterations: u64,
}

/// Minimizes worst-site load by deterministic multiplicative weights.
///
/// The zero-sum game: the adversary holds a distribution `y` over
/// sites; the strategy player answers with the read and write quorums
/// of least `y`-weight. Each round contributes `α·y(r*) + (1−α)·y(w*)`
/// as a lower bound on the game value, the chosen quorums accumulate
/// into the averaged strategy, and the adversary multiplicatively
/// boosts the sites those quorums touched. No entropy, no wall clock —
/// fully deterministic (ties broken by canonical family order), so
/// manifests built on these numbers stay byte-stable.
///
/// # Panics
/// Panics if `read_fraction` is outside `[0, 1]` or `iterations == 0`
/// (see [`check_iterations`]).
pub fn optimize_load(system: &QuorumSystem, read_fraction: f64, iterations: usize) -> LoadProfile {
    assert!(
        (0.0..=1.0).contains(&read_fraction),
        "read fraction must lie in [0,1]"
    );
    if let Err(rule) = check_iterations(iterations) {
        panic!("{rule}");
    }
    let reads = system.reads();
    let writes = system.writes();
    let support = reads.iter().chain(writes).fold(0u64, |a, &q| a | q);
    let sites: Vec<usize> = (0..64).filter(|s| support >> s & 1 == 1).collect();
    let m = sites.len();
    let fw = 1.0 - read_fraction;
    // Standard MWU step size for losses in [0,1] over m experts.
    let eta = (8.0 * (m as f64).ln().max(1.0) / iterations as f64).sqrt();

    let mut weights = vec![1.0f64; m];
    let mut read_counts = vec![0u64; reads.len()];
    let mut write_counts = vec![0u64; writes.len()];
    let mut lower = 0.0f64;

    for _ in 0..iterations {
        let total: f64 = weights.iter().sum();
        let weight_of = |q: u64| -> f64 {
            sites
                .iter()
                .zip(&weights)
                .filter(|(&s, _)| q >> s & 1 == 1)
                .map(|(_, &w)| w)
                .sum::<f64>()
                / total
        };
        let argmin = |family: &[u64]| -> usize {
            let mut best = 0usize;
            let mut best_w = f64::INFINITY;
            for (i, &q) in family.iter().enumerate() {
                let w = weight_of(q);
                if w < best_w {
                    best_w = w;
                    best = i;
                }
            }
            best
        };
        let ri = argmin(reads);
        let wi = argmin(writes);
        lower = lower.max(read_fraction * weight_of(reads[ri]) + fw * weight_of(writes[wi]));
        read_counts[ri] += 1;
        write_counts[wi] += 1;
        let mut max_w = 0.0f64;
        for (i, &s) in sites.iter().enumerate() {
            let loss = read_fraction * f64::from((reads[ri] >> s & 1) as u32)
                + fw * f64::from((writes[wi] >> s & 1) as u32);
            weights[i] *= (eta * loss).exp();
            max_w = max_w.max(weights[i]);
        }
        // Renormalize so the weights never overflow on long runs.
        for w in &mut weights {
            *w /= max_w;
        }
    }

    let read_strategy = Strategy::from_weights(
        reads,
        &read_counts.iter().map(|&c| c as f64).collect::<Vec<_>>(),
    );
    let write_strategy = Strategy::from_weights(
        writes,
        &write_counts.iter().map(|&c| c as f64).collect::<Vec<_>>(),
    );
    let load = mixed_load(&read_strategy, &write_strategy, read_fraction);
    LoadProfile {
        load,
        lower_bound: lower,
        iterations: iterations as u64,
    }
}

/// Checks an [`optimize_load`] iteration count, returning the violated
/// rule.
pub fn check_iterations(iterations: usize) -> Result<(), String> {
    if iterations >= 1 {
        Ok(())
    } else {
        Err("need at least one iteration".to_string())
    }
}

/// Exact optimal load of a *uniform-vote* threshold system on `n`
/// sites with quorums `(q_r, q_w)` at read fraction `α`:
/// `(α·q_r + (1−α)·q_w) / n`.
///
/// Lower bound: every access touches at least `q_r` (resp. `q_w`)
/// sites, so total expected work per access is at least
/// `α·q_r + (1−α)·q_w`, and the busiest of `n` sites carries at least
/// the average. Achievability: strategies uniform over all
/// `q`-subsets load every site equally at exactly the average (by
/// symmetry each site lies in a `q/n` fraction of `q`-subsets).
pub fn uniform_threshold_load(n: usize, q_r: u64, q_w: u64, read_fraction: f64) -> f64 {
    assert!(
        n >= 1 && q_r >= 1 && q_w >= 1,
        "degenerate threshold system"
    );
    assert!(
        q_r as usize <= n && q_w as usize <= n,
        "quorum exceeds site count"
    );
    (read_fraction * q_r as f64 + (1.0 - read_fraction) * q_w as f64) / n as f64
}

#[cfg(test)]
impl Strategy {
    /// The uniform distribution over a non-empty family.
    fn uniform(quorums: &[u64]) -> Self {
        assert!(!quorums.is_empty(), "family must be non-empty");
        let p = 1.0 / quorums.len() as f64;
        Self {
            quorums: quorums.to_vec(),
            probs: vec![p; quorums.len()],
        }
    }

    /// The probability of each quorum, aligned with [`Self::quorums`].
    fn probs(&self) -> &[f64] {
        &self.probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;

    /// Heuristic achievable load at scale: uniform strategies over the
    /// capped families of [`Expr::quorums_capped`], whose cost is
    /// polynomial in the expression size instead of exponential in `n`.
    /// Returns an *achievable* load (a valid upper bound on the optimum);
    /// the gap versus [`optimize_load`] is the price of not enumerating.
    /// The tests hold [`optimize_load`]'s lower bound against it.
    fn heuristic_load(read: &Expr, write: &Expr, read_fraction: f64, cap: usize) -> f64 {
        let r = Strategy::uniform(&read.quorums_capped(cap));
        let w = Strategy::uniform(&write.quorums_capped(cap));
        mixed_load(&r, &w, read_fraction)
    }

    const TOL: f64 = 0.02;

    #[test]
    fn uniform_strategy_normalizes() {
        let s = Strategy::uniform(&[0b011, 0b101, 0b110]);
        let total: f64 = s.probs().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Each site appears in 2 of 3 quorums.
        for site in 0..3 {
            assert!((s.site_load(site) - 2.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn majority_load_converges_to_known_optimum() {
        // Majority on 5 sites at α = 0.5: optimum (0.5·3 + 0.5·3)/5 = 0.6.
        let sys = QuorumSystem::majority(5, 0);
        let p = optimize_load(&sys, 0.5, 3000);
        let exact = uniform_threshold_load(5, 3, 3, 0.5);
        assert!(p.load >= p.lower_bound, "bounds must bracket");
        assert!(p.load <= exact + TOL, "upper {:.4} vs {exact}", p.load);
        assert!(
            p.lower_bound >= exact - TOL,
            "lower {:.4} vs {exact}",
            p.lower_bound
        );
    }

    #[test]
    fn grid_3x3_beats_every_vote_assignment_load() {
        // Grid optimum at α = 0.5 is 4/9 ≈ 0.4444 (reads: 3/9 average,
        // writes: 5/9, both balanced by symmetry). Every *uniform-vote*
        // tight pair on 9 sites costs (q_r + (10−q_r))/2/9 = 5/9 ≈ 0.5556.
        let grid = QuorumSystem::grid(3, 3, 0);
        let p = optimize_load(&grid, 0.5, 3000);
        assert!(p.load <= 4.0 / 9.0 + TOL, "grid load {:.4}", p.load);
        assert!(p.lower_bound >= 4.0 / 9.0 - TOL);
        let best_votes = uniform_threshold_load(9, 5, 5, 0.5);
        assert!(
            p.load < best_votes,
            "grid {:.4} must beat votes {best_votes:.4}",
            p.load
        );
    }

    #[test]
    fn hierarchical_matches_grid_optimum() {
        // hier-3x3 quorums are 4 sites out of 9, perfectly balanced:
        // optimum 4/9 for reads and writes alike.
        let sys = QuorumSystem::hierarchical(3, 3, 2, 2, 0);
        let p = optimize_load(&sys, 0.5, 3000);
        assert!(p.load <= 4.0 / 9.0 + TOL);
        assert!(p.lower_bound >= 4.0 / 9.0 - TOL);
    }

    #[test]
    fn skewed_read_fraction_shifts_load() {
        // At α = 1 (all reads) the grid load is the read-side optimum
        // 3/9; at α = 0 it is the write-side 5/9.
        let grid = QuorumSystem::grid(3, 3, 0);
        let reads_only = optimize_load(&grid, 1.0, 2000);
        let writes_only = optimize_load(&grid, 0.0, 2000);
        assert!(reads_only.load <= 3.0 / 9.0 + TOL);
        assert!(writes_only.load <= 5.0 / 9.0 + TOL);
        assert!(reads_only.load < writes_only.load);
    }

    #[test]
    fn heuristic_load_is_achievable_upper_bound() {
        let grid = QuorumSystem::grid(3, 3, 0);
        let exact = optimize_load(&grid, 0.5, 3000);
        let h = heuristic_load(grid.read_expr(), grid.write_expr(), 0.5, 8);
        // The heuristic can't beat the optimum (beyond solver slack)...
        assert!(h >= exact.lower_bound - 1e-9);
        // ...and stays a sane bounded load.
        assert!(h <= 1.0 + 1e-9);
    }

    #[test]
    fn optimizer_is_deterministic() {
        let sys = QuorumSystem::grid(3, 3, 0);
        let a = optimize_load(&sys, 0.6, 500);
        let b = optimize_load(&sys, 0.6, 500);
        assert_eq!(a.load.to_bits(), b.load.to_bits());
        assert_eq!(a.lower_bound.to_bits(), b.lower_bound.to_bits());
    }

    #[test]
    fn threshold_load_formula() {
        assert!((uniform_threshold_load(9, 5, 5, 0.5) - 5.0 / 9.0).abs() < 1e-12);
        assert!((uniform_threshold_load(9, 1, 9, 1.0) - 1.0 / 9.0).abs() < 1e-12);
        assert!((uniform_threshold_load(9, 1, 9, 0.0) - 1.0).abs() < 1e-12);
    }
}
