//! Library core of the `validate_curves` binary.
//!
//! The figure harness measures one component-vote histogram per topology
//! and derives every `A(α, q_r)` point from it through the Figure-1
//! model. This module spot-checks that shortcut: for a grid of
//! `(α, q_r)` cells it *directly* simulates the static protocol at that
//! exact assignment and workload, then compares the measured grant rate
//! against the curve prediction. Living in the library (rather than the
//! binary) lets the integration tests drive the same code path at a tiny
//! scale and assert on the produced [`RunManifest`].

use crate::{run_jobs, Args, Scale};
use quorum_core::metrics::AvailabilityMetric;
use quorum_core::{QuorumSpec, VoteAssignment};
use quorum_des::SimParams;
use quorum_obs::{keys, Registry, RunManifest};
use quorum_replica::scenario::PaperScenario;
use quorum_replica::{run_static_observed, CurveSet, RunConfig, RunResults, Workload};

/// Configuration of one validation sweep.
#[derive(Debug, Clone)]
pub struct ValidateOpts {
    /// Chord count selecting the paper topology.
    pub chords: usize,
    /// Master seed (grid cells derive disjoint seeds from it).
    pub seed: u64,
    /// Worker threads for the reference run and the cell sweep.
    pub threads: usize,
    /// Simulation scale.
    pub params: SimParams,
    /// The `(α, q_r)` cells to simulate directly.
    pub grid: Vec<(f64, u64)>,
}

impl ValidateOpts {
    /// Reads `--topology/--seed/--threads` plus the scale flags.
    pub fn from_cli(args: &Args) -> Self {
        Self {
            chords: args
                .get_checked("topology", |&c| PaperScenario::check_chords(c))
                .unwrap_or(4),
            seed: args.get_or("seed", 6),
            threads: args.get_or("threads", crate::default_threads()),
            params: Scale::from_args(args).params(),
            grid: default_grid(),
        }
    }
}

/// The binary's default 15-cell grid: the α extremes plus the midpoint,
/// crossed with `q_r` from 1 to the majority end.
pub(crate) fn default_grid() -> Vec<(f64, u64)> {
    [0.0, 0.5, 1.0]
        .iter()
        .flat_map(|&a| [1u64, 10, 25, 40, 50].map(|q| (a, q)))
        .collect()
}

/// One validated `(α, q_r)` cell.
#[derive(Debug, Clone, Copy)]
pub struct CellOutcome {
    /// Read ratio of the cell's workload.
    pub alpha: f64,
    /// Read quorum simulated directly.
    pub q_r: u64,
    /// Grant rate measured by the direct simulation.
    pub direct: f64,
    /// The curve family's prediction for the same point.
    pub predicted: f64,
    /// Whether every granted access was one-copy serializable.
    pub serializable: bool,
}

/// Everything the sweep produced, manifest included.
#[derive(Debug)]
pub struct ValidateReport {
    /// Per-cell outcomes in grid order.
    pub cells: Vec<CellOutcome>,
    /// max |direct − predicted| over the grid.
    pub worst_delta: f64,
    /// CI half-width of the reference run (both sides of the comparison
    /// carry at least this much noise).
    pub reference_half_width: f64,
    /// Manifest covering the reference run and the whole sweep.
    pub manifest: RunManifest,
}

/// Runs the reference simulation, the direct grid, and the comparison.
pub fn run(opts: &ValidateOpts) -> ValidateReport {
    let sc = PaperScenario::new(opts.chords);
    let topo = sc.topology();
    let n = topo.num_sites();
    let total = n as u64;
    let registry = Registry::new();
    let votes = VoteAssignment::uniform(n);

    // Reference: one histogram run → curve family.
    let reference = {
        let _t = registry.scoped_timer(keys::VALIDATE_REFERENCE);
        run_static_observed(
            &topo,
            votes.clone(),
            QuorumSpec::from_read_quorum(total / 2, total).expect("valid"),
            Workload::uniform(n, 0.5),
            RunConfig {
                params: opts.params,
                seed: opts.seed,
                threads: opts.threads,
            },
            &registry,
        )
    };
    let curves = CurveSet::from_run(&reference);

    // Grid of direct simulations, load-balanced across workers. All cells
    // share the registry (its counters are atomic), so the manifest totals
    // cover the entire sweep.
    let raw_cells = {
        let _t = registry.scoped_timer(keys::VALIDATE_GRID);
        let topo_ref = &topo;
        let reg = &registry;
        let params = opts.params;
        let seed = opts.seed;
        type CellJob<'a> = Box<dyn FnOnce() -> (f64, u64, RunResults) + Send + 'a>;
        let jobs: Vec<CellJob> = opts
            .grid
            .iter()
            .map(|&(alpha, q_r)| {
                Box::new(move || {
                    let res = run_static_observed(
                        topo_ref,
                        VoteAssignment::uniform(n),
                        QuorumSpec::from_read_quorum(q_r, total).expect("valid"),
                        Workload::uniform(n, alpha),
                        RunConfig {
                            params,
                            seed: seed + 1000 + q_r + (alpha * 7.0) as u64,
                            threads: 1,
                        },
                        reg,
                    );
                    (alpha, q_r, res)
                }) as CellJob
            })
            .collect();
        run_jobs(opts.threads, jobs)
    };

    let mut worst: f64 = 0.0;
    let cells: Vec<CellOutcome> = raw_cells
        .into_iter()
        .map(|(alpha, q_r, res)| {
            let direct = res.availability();
            let predicted = curves.availability(AvailabilityMetric::Accessibility, alpha, q_r);
            worst = worst.max((direct - predicted).abs());
            CellOutcome {
                alpha,
                q_r,
                direct,
                predicted,
                serializable: res.is_one_copy_serializable(),
            }
        })
        .collect();

    let reference_half_width = reference.interval().map(|ci| ci.half_width).unwrap_or(0.0);
    let mut manifest = manifest(&sc, opts, &votes, &reference, &registry);
    manifest.set_metric(keys::VALIDATE_WORST_DELTA, worst);
    manifest.set_metric(keys::VALIDATE_REFERENCE_HALF_WIDTH, reference_half_width);

    ValidateReport {
        cells,
        worst_delta: worst,
        reference_half_width,
        manifest,
    }
}

fn manifest(
    sc: &PaperScenario,
    opts: &ValidateOpts,
    votes: &VoteAssignment,
    reference: &RunResults,
    registry: &Registry,
) -> RunManifest {
    let mut m = crate::manifest::manifest_for_run(
        "validate_curves",
        opts.seed,
        &opts.params,
        &sc.label(),
        sc.chords,
        &sc.topology(),
        votes,
        reference,
        registry,
    );
    // The sweep ran 1 + grid.len() simulations; report total batches, not
    // just the reference run's.
    m.batches = m.counter(keys::RUN_BATCHES);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_options_parse() {
        let args = Args::from_args(
            [
                "--topology",
                "16",
                "--seed",
                "9",
                "--threads",
                "2",
                "--quick",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        let opts = ValidateOpts::from_cli(&args);
        assert_eq!(opts.chords, 16);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.params, SimParams::quick());
        assert_eq!(opts.grid.len(), 15);
    }
}
