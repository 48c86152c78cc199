//! Parameter-sweep utilities.
//!
//! Fix a topology, vary the read quorum, simulate each setting, tabulate:
//! one simulation per setting, batches parallelized inside each run,
//! deterministic seeds per setting.

use crate::results::RunResults;
use crate::runner::{run_static, RunConfig};
use crate::workload::Workload;
use quorum_core::{QuorumSpec, VoteAssignment};
use quorum_graph::Topology;

/// One row of a sweep result.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The swept value (meaning depends on the sweep kind).
    pub x: f64,
    /// Full results at that setting.
    pub results: RunResults,
}

impl SweepRow {
    /// Shorthand for the availability point estimate.
    pub fn availability(&self) -> f64 {
        self.results.availability()
    }
}

/// Sweeps the read quorum over `q_r_values` at fixed `alpha`.
///
/// # Panics
/// Panics if any `q_r` is outside the domain for the assignment's total.
pub fn sweep_read_quorum(
    topology: &Topology,
    votes: &VoteAssignment,
    alpha: f64,
    q_r_values: &[u64],
    cfg: RunConfig,
) -> Vec<SweepRow> {
    let n = topology.num_sites();
    let total = votes.total();
    q_r_values
        .iter()
        .map(|&q_r| {
            let spec = QuorumSpec::from_read_quorum(q_r, total)
                .unwrap_or_else(|e| panic!("q_r = {q_r}: {e}"));
            let results = run_static(
                topology,
                votes.clone(),
                spec,
                Workload::uniform(n, alpha),
                RunConfig {
                    seed: cfg.seed.wrapping_add(q_r),
                    ..cfg
                },
            );
            SweepRow {
                x: q_r as f64,
                results,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_des::SimParams;

    fn cfg(seed: u64) -> RunConfig {
        RunConfig {
            params: SimParams {
                warmup_accesses: 500,
                batch_accesses: 6_000,
                min_batches: 3,
                max_batches: 3,
                ci_half_width: 0.05,
                ..SimParams::paper()
            },
            seed,
            threads: 2,
        }
    }

    #[test]
    fn read_quorum_sweep_shapes() {
        // On a ring at α = 1, availability decreases with q_r.
        let topo = Topology::ring(15);
        let votes = VoteAssignment::uniform(15);
        let rows = sweep_read_quorum(&topo, &votes, 1.0, &[1, 4, 7], cfg(1));
        assert_eq!(rows.len(), 3);
        assert!(rows[0].availability() > rows[2].availability());
        for r in &rows {
            assert!(r.results.is_one_copy_serializable());
        }
    }

    #[test]
    #[should_panic(expected = "q_r = 9")]
    fn out_of_domain_quorum_panics() {
        let topo = Topology::ring(9);
        let votes = VoteAssignment::uniform(9);
        sweep_read_quorum(&topo, &votes, 0.5, &[9], cfg(4));
    }
}
