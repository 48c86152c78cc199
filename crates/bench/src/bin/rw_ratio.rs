//! Regenerates the §5.5 analysis: how the read-write ratio moves the
//! optimal quorum assignment across topologies.
//!
//! Prints, for every (topology, α) cell, the argmax `q_r`, whether it is
//! an endpoint, and the availability penalty of ignoring reads (always
//! using the majority end `q_r = ⌊T/2⌋`, as the pre-quorum-consensus
//! protocols do). The paper's summary claims, checked here:
//!   * about half the curves peak at the majority end (low read rates,
//!     highly-connected topologies);
//!   * the rest peak at `q_r = 1` — and for those, the majority
//!     assignment is frequently the *worst* choice.
//!
//! Usage: cargo run -p quorum-bench --release --bin rw_ratio [-- --paper-scale]

use quorum_bench::{default_threads, manifest, pct, run_jobs, Args, Scale};
use quorum_core::{QuorumSpec, SearchStrategy, VoteAssignment};
use quorum_obs::Registry;
use quorum_replica::scenario::{PaperScenario, PAPER_ALPHAS};
use quorum_replica::{run_static_observed, CurveSet, RunConfig, RunResults, Workload};

fn main() {
    let args = Args::parse();
    manifest::check_requested(&args);
    let scale = Scale::from_args(&args);
    let seed: u64 = args.get_or("seed", 55);
    let threads = args.get_or("threads", default_threads());
    let scenarios = PaperScenario::all();

    println!(
        "# Read-write ratio effects (paper §5.5) | scale={} seed={seed}",
        scale.label()
    );

    // One simulation per topology, load-balanced across workers; every
    // run reports into one registry so the manifest covers the sweep.
    let registry = Registry::new();
    let runs = {
        let _t = registry.scoped_timer(quorum_obs::keys::RW_RATIO_SIMULATIONS);
        let reg = &registry;
        let jobs: Vec<Box<dyn FnOnce() -> RunResults + Send + '_>> = scenarios
            .iter()
            .map(|sc| {
                let topo = sc.topology();
                let cfg = RunConfig {
                    params: scale.params(),
                    seed,
                    threads: 1,
                };
                Box::new(move || {
                    let n = topo.num_sites();
                    run_static_observed(
                        &topo,
                        VoteAssignment::uniform(n),
                        QuorumSpec::from_read_quorum(n as u64 / 2, n as u64).expect("valid"),
                        Workload::uniform(n, 0.5),
                        cfg,
                        reg,
                    )
                }) as Box<dyn FnOnce() -> RunResults + Send + '_>
            })
            .collect();
        run_jobs(threads, jobs)
    };

    println!("topology\talpha\topt_q_r\topt_A\tendpoint\tA_at_majority_end\tmajority_is_minimum");
    // Tie tolerance = the paper's CI half-width: on dense topologies the
    // curve is flat at the top, so strict argmax position is noise.
    let tol = 0.005;
    let mut majority_end_attains = 0usize;
    let mut strict_majority_argmax = 0usize;
    let mut cells = 0usize;
    for (sc, run) in scenarios.iter().zip(&runs) {
        let curves = CurveSet::from_run(run);
        let total = curves.total_votes();
        let hi = total / 2;
        for &alpha in &PAPER_ALPHAS {
            let opt = curves.optimal(alpha, SearchStrategy::Exhaustive);
            let series = curves.curve(
                quorum_core::metrics::AvailabilityMetric::Accessibility,
                alpha,
            );
            let at_end = series[hi as usize - 1];
            let min = series.iter().cloned().fold(f64::MAX, f64::min);
            let majority_is_min = (at_end - min).abs() < 1e-9;
            let endpoint = opt.spec.q_r() == 1 || opt.spec.q_r() == hi;
            if opt.spec.q_r() == hi {
                strict_majority_argmax += 1;
            }
            if at_end >= opt.availability - tol {
                majority_end_attains += 1;
            }
            cells += 1;
            println!(
                "{}\t{alpha}\t{}\t{}\t{endpoint}\t{}\t{majority_is_min}",
                sc.chords,
                opt.spec.q_r(),
                pct(opt.availability),
                pct(at_end),
            );
        }
    }
    println!(
        "# {}/{} cells: the majority end attains the maximum within the paper's ±0.5% CI",
        majority_end_attains, cells
    );
    println!(
        "# ({} of those have their strict argmax exactly at q_r = ⌊T/2⌋; paper: about one half)",
        strict_majority_argmax
    );

    // Fully-connected sanity: topology 256 and 4949 curves nearly coincide
    // (the paper omits Figure for 4949 for this reason).
    let c256 = CurveSet::from_run(&runs[5]);
    let c4949 = CurveSet::from_run(&runs[6]);
    let mut worst: f64 = 0.0;
    for &alpha in &PAPER_ALPHAS {
        for q in 1..=50u64 {
            let d = (c256.availability(
                quorum_core::metrics::AvailabilityMetric::Accessibility,
                alpha,
                q,
            ) - c4949.availability(
                quorum_core::metrics::AvailabilityMetric::Accessibility,
                alpha,
                q,
            ))
            .abs();
            worst = worst.max(d);
        }
    }
    println!(
        "# max |A(topology 256) - A(topology 4949)| over all curves: {:.2}% (paper: nearly identical)",
        100.0 * worst
    );

    // Structural fields describe the first topology's run; counters and
    // timers aggregate the whole seven-topology sweep.
    let sc0 = scenarios[0];
    let mut m = manifest::manifest_for_run(
        "rw_ratio",
        seed,
        &scale.params(),
        &sc0.label(),
        sc0.chords,
        &sc0.topology(),
        &VoteAssignment::uniform(sc0.topology().num_sites()),
        &runs[0],
        &registry,
    );
    m.batches = m.counter(quorum_obs::keys::RUN_BATCHES);
    m.set_metric(
        quorum_obs::keys::RW_RATIO_MAJORITY_END_ATTAINS_FRACTION,
        majority_end_attains as f64 / cells as f64,
    );
    m.set_metric(
        quorum_obs::keys::RW_RATIO_STRICT_MAJORITY_ARGMAX,
        strict_majority_argmax as f64,
    );
    m.set_metric(quorum_obs::keys::RW_RATIO_DENSE_TOPOLOGY_MAX_DELTA, worst);
    manifest::write_requested(&args, &m);
}
