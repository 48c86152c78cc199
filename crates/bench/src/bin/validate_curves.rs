//! Methodology validation: the "one run, all curves" trick vs direct
//! per-assignment simulation.
//!
//! Thin CLI over [`quorum_bench::validate`]: the figure harness measures
//! one component-vote histogram per topology and derives every
//! `A(α, q_r)` point from it through the Figure-1 model; the validation
//! sweep directly simulates a grid of `(α, q_r)` cells and compares.
//! Cells run in parallel with dynamic load balancing.
//!
//! Usage: cargo run -p quorum-bench --release --bin validate_curves
//!        [-- --topology 4 --seed 6 --medium-scale --manifest m.json]

use quorum_bench::validate::{run, ValidateOpts};
use quorum_bench::{manifest, pct, Args, Scale};

fn main() {
    let args = Args::parse();
    manifest::check_requested(&args);
    let opts = ValidateOpts::from_cli(&args);

    println!(
        "# Curve-method validation | Topology {} scale={} seed={}",
        opts.chords,
        Scale::from_args(&args).label(),
        opts.seed
    );

    let report = run(&opts);

    println!("alpha\tq_r\tdirect_A\tcurve_A\tdelta");
    for cell in &report.cells {
        println!(
            "{}\t{}\t{}\t{}\t{:+.2}%",
            cell.alpha,
            cell.q_r,
            pct(cell.direct),
            pct(cell.predicted),
            100.0 * (cell.direct - cell.predicted)
        );
        assert!(cell.serializable, "1SR violated — simulator bug");
    }
    println!(
        "# worst |direct − curve| = {:.2}% (both sides carry ~{:.1}% CI at this scale)",
        100.0 * report.worst_delta,
        100.0 * report.reference_half_width
    );

    manifest::write_requested(&args, &report.manifest);
}
