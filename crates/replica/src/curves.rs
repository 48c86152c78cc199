//! Availability curves `A(α, q_r)` from measured histograms.
//!
//! This is the measurement half of the paper's method: a single simulation
//! run per topology yields the empirical component-vote distribution at
//! access instants, and the Figure-1 model then produces the *entire*
//! family of curves (every `α`, every `q_r`) that Figures 2–7 plot —
//! no re-simulation per point needed. Down-site submissions are included
//! as zero-vote observations, so the curves estimate `A` directly (not the
//! conditional `A'` of footnote 4).

use crate::results::RunResults;
use quorum_core::metrics::AvailabilityMetric;
use quorum_core::optimal::{optimal_quorum, optimal_with_write_floor, OptimalAssignment};
use quorum_core::{AvailabilityModel, SearchStrategy};
use quorum_stats::VoteHistogram;

/// A family of availability curves for one topology/workload.
#[derive(Debug, Clone)]
pub struct CurveSet {
    acc_model: AvailabilityModel,
    surv_model: AvailabilityModel,
    total: u64,
}

impl CurveSet {
    /// Builds curve models from a run's merged histograms.
    ///
    /// Uses the per-kind vote histograms — the samples of `r(v)` and
    /// `w(v)` — so asymmetric workloads (`r_i ≠ w_i`) are handled
    /// correctly; under uniform access the two coincide statistically.
    /// SURV uses the largest-component histogram (footnote 3). If a kind
    /// received no accesses (α = 0 or 1), the aggregate histogram stands
    /// in for its mixture.
    pub fn from_run(results: &RunResults) -> Self {
        let c = &results.combined;
        let aggregate = c.access_votes().estimate();
        let r = if c.read_votes.observations() > 0 {
            c.read_votes.estimate()
        } else {
            aggregate.clone()
        };
        let w = if c.write_votes.observations() > 0 {
            c.write_votes.estimate()
        } else {
            aggregate.clone()
        };
        let surv = c.largest_votes.estimate();
        Self {
            acc_model: AvailabilityModel::from_mixtures(&r, &w),
            surv_model: AvailabilityModel::from_mixtures(&surv, &surv),
            total: aggregate.max_votes() as u64,
        }
    }

    /// Total votes `T`.
    pub fn total_votes(&self) -> u64 {
        self.total
    }

    /// The model behind a metric.
    pub fn model(&self, metric: AvailabilityMetric) -> &AvailabilityModel {
        match metric {
            AvailabilityMetric::Accessibility => &self.acc_model,
            AvailabilityMetric::Survivability => &self.surv_model,
        }
    }

    /// `A(α, q_r)` under a metric.
    pub fn availability(&self, metric: AvailabilityMetric, alpha: f64, q_r: u64) -> f64 {
        self.model(metric).availability(alpha, q_r)
    }

    /// Full curve over the `q_r` domain (the series one paper figure
    /// plots for one `α`).
    pub fn curve(&self, metric: AvailabilityMetric, alpha: f64) -> Vec<f64> {
        let hi = if self.total == 1 { 1 } else { self.total / 2 };
        (1..=hi)
            .map(|q| self.availability(metric, alpha, q))
            .collect()
    }

    /// Optimal assignment for a read ratio (Figure-1 step 4 on the
    /// measured model).
    pub fn optimal(&self, alpha: f64, strategy: SearchStrategy) -> OptimalAssignment {
        optimal_quorum(&self.acc_model, alpha, strategy)
    }

    /// §5.4: optimal assignment under a write-availability floor.
    pub fn optimal_with_write_floor(
        &self,
        alpha: f64,
        min_write: f64,
        strategy: SearchStrategy,
    ) -> Option<OptimalAssignment> {
        optimal_with_write_floor(&self.acc_model, alpha, min_write, strategy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_static, RunConfig};
    use crate::simulation::Simulation;
    use crate::workload::Workload;
    use quorum_core::{QuorumConsensus, QuorumSpec, SiteEstimators, VoteAssignment};
    use quorum_des::SimParams;
    use quorum_graph::Topology;

    fn small_spec() -> QuorumSpec {
        QuorumSpec::from_read_quorum(6, 13).unwrap()
    }

    fn small_config() -> (Topology, RunConfig) {
        let cfg = RunConfig {
            params: SimParams {
                warmup_accesses: 500,
                batch_accesses: 8_000,
                min_batches: 3,
                max_batches: 4,
                ci_half_width: 0.05,
                ..SimParams::paper()
            },
            seed: 17,
            threads: 2,
        };
        (Topology::ring_with_chords(13, 2), cfg)
    }

    fn small_run() -> RunResults {
        let (topo, cfg) = small_config();
        run_static(
            &topo,
            VoteAssignment::uniform(13),
            small_spec(),
            Workload::uniform(13, 0.5),
            cfg,
        )
    }

    #[test]
    fn curves_match_direct_measurement() {
        // The histogram-derived A(α, q_r) at the simulated spec must agree
        // with the directly counted grant rate.
        let res = small_run();
        let curves = CurveSet::from_run(&res);
        let spec = QuorumSpec::from_read_quorum(6, 13).unwrap();
        let predicted = curves.availability(AvailabilityMetric::Accessibility, 0.5, spec.q_r());
        let direct = res.combined.availability();
        assert!(
            (predicted - direct).abs() < 0.02,
            "model {predicted} vs direct {direct}"
        );
    }

    #[test]
    fn q_r_one_read_availability_is_site_reliability() {
        // §5.3: at q_r = 1 a read succeeds iff the submitting site is up.
        let res = small_run();
        let curves = CurveSet::from_run(&res);
        let a = curves.availability(AvailabilityMetric::Accessibility, 1.0, 1);
        assert!((a - 0.96).abs() < 0.02, "A(α=1, q_r=1) = {a}");
    }

    #[test]
    fn curves_converge_at_majority_end() {
        // §5.3: all α-curves meet at q_r = ⌊T/2⌋ (q_r ≈ q_w there, and
        // with uniform access r(v) = w(v)).
        let res = small_run();
        let curves = CurveSet::from_run(&res);
        let hi = 13 / 2;
        let at_end: Vec<f64> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&a| curves.availability(AvailabilityMetric::Accessibility, a, hi))
            .collect();
        let spread = at_end.iter().cloned().fold(f64::MIN, f64::max)
            - at_end.iter().cloned().fold(f64::MAX, f64::min);
        // q_w = T − q_r + 1 = 8 vs q_r = 6: near-equal thresholds; the
        // residual spread is the mass between 6 and 8 votes.
        assert!(spread < 0.12, "spread at majority end {spread}");
    }

    #[test]
    fn surv_dominates_acc() {
        // The largest component is at least as big as the submitter's.
        let res = small_run();
        let curves = CurveSet::from_run(&res);
        for q in 1..=6u64 {
            let acc = curves.availability(AvailabilityMetric::Accessibility, 0.5, q);
            let surv = curves.availability(AvailabilityMetric::Survivability, 0.5, q);
            assert!(surv >= acc - 1e-12, "q_r = {q}: SURV {surv} < ACC {acc}");
        }
    }

    #[test]
    fn per_site_mixture_equals_aggregate_under_uniform_access() {
        // The aggregate histogram weights each *observation* equally while
        // the per-site mixture weights each *site* exactly 1/n; the two
        // coincide only in expectation (realized per-site access counts
        // fluctuate), so compare statistically, not bitwise. The per-site
        // bank sees the same batches as `small_run`.
        let res = small_run();
        let agg = CurveSet::from_run(&res);
        let (topo, cfg) = small_config();
        let mut sim = Simulation::new(&topo, cfg.params, Workload::uniform(13, 0.5), cfg.seed);
        let mut proto = QuorumConsensus::new(VoteAssignment::uniform(13), small_spec());
        let mut bank = SiteEstimators::counting(13, 13);
        for _ in 0..res.batches {
            sim.run_batch(&mut proto, &mut bank);
        }
        let frac = vec![1.0 / 13.0; 13];
        let per = bank.model(&frac, &frac);
        for q in 1..=6u64 {
            let a = agg.availability(AvailabilityMetric::Accessibility, 0.5, q);
            let b = per.availability(0.5, q);
            assert!((a - b).abs() < 0.01, "q = {q}: {a} vs {b}");
        }
    }

    #[test]
    fn curve_length_covers_domain() {
        let res = small_run();
        let curves = CurveSet::from_run(&res);
        assert_eq!(
            curves.curve(AvailabilityMetric::Accessibility, 0.5).len(),
            6
        );
    }

    #[test]
    fn asymmetric_workload_separates_r_and_w_mixtures() {
        // Reads originate at the star's hub, writes at the leaves: the
        // measured r(v) concentrates high (the hub sees big components),
        // w(v) carries isolated-leaf mass, and from_run must keep them
        // apart.
        let n = 11usize;
        let topo = Topology::star(n);
        let mut read_w = vec![0.0; n];
        read_w[0] = 1.0;
        let write_w: Vec<f64> = (0..n).map(|i| if i == 0 { 0.0 } else { 1.0 }).collect();
        let res = run_static(
            &topo,
            VoteAssignment::uniform(n),
            QuorumSpec::majority(n as u64),
            Workload::weighted(0.5, &read_w, &write_w),
            RunConfig {
                params: SimParams {
                    warmup_accesses: 1_000,
                    batch_accesses: 20_000,
                    min_batches: 3,
                    max_batches: 3,
                    ci_half_width: 0.05,
                    ..SimParams::paper()
                },
                seed: 23,
                threads: 2,
            },
        );
        let curves = CurveSet::from_run(&res);
        let m = curves.model(AvailabilityMetric::Accessibility);
        // Reads (hub) reach moderate quorums far more often than writes
        // (leaves) reach the same vote level.
        for q in 3..=5u64 {
            assert!(
                m.read_availability(q) > m.write_availability(q) + 0.02,
                "q = {q}: R {} vs W {}",
                m.read_availability(q),
                m.write_availability(q)
            );
        }
    }

    #[test]
    fn optimal_on_measured_model_is_consistent() {
        let res = small_run();
        let curves = CurveSet::from_run(&res);
        let opt = curves.optimal(0.75, SearchStrategy::Exhaustive);
        let series = curves.curve(AvailabilityMetric::Accessibility, 0.75);
        let best = series.iter().cloned().fold(f64::MIN, f64::max);
        assert!((opt.availability - best).abs() < 1e-12);
    }
}
