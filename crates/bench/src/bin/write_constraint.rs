//! Regenerates the §5.4 worked example (based on Figure 4, Topology 2):
//! with α = 75 % the unconstrained optimum sits at q_r = 1 (availability
//! ≈ 72 %) but q_w = T means writes almost never succeed; demanding write
//! availability A_w ≥ 20 % pushes the assignment to q_r ≈ 28 with overall
//! availability ≈ 50 %.
//!
//! Usage:
//!   cargo run -p quorum-bench --release --bin write_constraint
//!   cargo run -p quorum-bench --release --bin write_constraint -- \
//!       --topology 2 --alpha 0.75 --floor 0.20 --paper-scale
//!
//! Also demonstrates the ω-weighted alternative the paper describes (and
//! rejects) for a few ω values.

use quorum_bench::{default_threads, pct, Args, Scale};
use quorum_core::optimal::optimal_weighted;
use quorum_core::{QuorumSpec, SearchStrategy, VoteAssignment};
use quorum_replica::scenario::PaperScenario;
use quorum_replica::{run_static, CurveSet, RunConfig, Workload};

fn main() {
    let args = Args::parse();
    let scale = Scale::from_args(&args);
    let seed: u64 = args.get_or("seed", 54);
    let threads = args.get_or("threads", default_threads());
    let chords: usize = args
        .get_checked("topology", |&c| PaperScenario::check_chords(c))
        .unwrap_or(2);
    let alpha = args
        .get_checked("alpha", |&a| Workload::check_alpha(a))
        .unwrap_or(0.75);
    let floor: f64 = args.get_or("floor", 0.20);

    let sc = PaperScenario::new(chords);
    let topo = sc.topology();
    let n = topo.num_sites();
    let total = n as u64;

    println!(
        "# Write-constraint enhancement (paper §5.4) | {} alpha={alpha} floor={floor} scale={}",
        sc.label(),
        scale.label()
    );

    let cfg = RunConfig {
        params: scale.params(),
        seed,
        threads,
    };
    let results = run_static(
        &topo,
        VoteAssignment::uniform(n),
        QuorumSpec::from_read_quorum(total / 2, total).expect("valid"),
        Workload::uniform(n, alpha),
        cfg,
    );
    let curves = CurveSet::from_run(&results);

    let unconstrained = curves.optimal(alpha, SearchStrategy::Exhaustive);
    println!(
        "unconstrained optimum: q_r={} q_w={} A={} (W={})",
        unconstrained.spec.q_r(),
        unconstrained.spec.q_w(),
        pct(unconstrained.availability),
        pct(unconstrained.write_availability),
    );

    match curves.optimal_with_write_floor(alpha, floor, SearchStrategy::Exhaustive) {
        Some(c) => {
            println!(
                "constrained  optimum: q_r={} q_w={} A={} (W={} >= floor {})",
                c.spec.q_r(),
                c.spec.q_w(),
                pct(c.availability),
                pct(c.write_availability),
                pct(floor),
            );
            println!("# paper's worked numbers at alpha=0.75, floor=20%: q_r ~ 28, A ~ 50%");
        }
        None => println!("floor {} infeasible for this topology", pct(floor)),
    }

    println!("\n# omega-weighted alternative (paper describes, then rejects):");
    println!("omega\tq_r\tq_w\tweighted-objective\tplain-A\tW");
    let model = curves.model(quorum_core::metrics::AvailabilityMetric::Accessibility);
    for omega in [0.0, 0.5, 1.0, 2.0, 5.0] {
        let o = optimal_weighted(model, omega, alpha, SearchStrategy::Exhaustive);
        println!(
            "{omega}\t{}\t{}\t{}\t{}\t{}",
            o.spec.q_r(),
            o.spec.q_w(),
            pct(o.availability),
            pct(alpha * o.read_availability + (1.0 - alpha) * o.write_availability),
            pct(o.write_availability),
        );
    }
}
