//! Sensitivity ablation: does the all-exponential (Poisson) failure model
//! drive the paper's conclusions, or are they robust to the duration
//! distribution shape?
//!
//! Every shape keeps the same means (so each component is still 96 %
//! reliable — the renewal-reward ratio depends only on means), but the
//! *joint* pattern of concurrent failures differs: deterministic repairs
//! synchronize recoveries, uniform repairs reduce variance. We rerun one
//! paper topology under each shape and compare the availability curves at
//! key points.
//!
//! Usage: cargo run -p quorum-bench --release --bin sensitivity
//!        [-- --topology 2 --medium-scale]

use quorum_bench::{default_threads, pct, Args, Scale};
use quorum_core::metrics::AvailabilityMetric;
use quorum_core::{QuorumSpec, VoteAssignment};
use quorum_des::DurationDist;
use quorum_replica::scenario::PaperScenario;
use quorum_replica::{run_static, CurveSet, RunConfig, Workload};

fn main() {
    let args = Args::parse();
    let scale = Scale::from_args(&args);
    let seed: u64 = args.get_or("seed", 12);
    let threads = args.get_or("threads", default_threads());
    let chords: usize = args
        .get_checked("topology", |&c| PaperScenario::check_chords(c))
        .unwrap_or(2);

    let sc = PaperScenario::new(chords);
    let topo = sc.topology();
    let n = topo.num_sites();
    let total = n as u64;

    println!(
        "# Failure-model sensitivity | {} scale={} (same means, different shapes)",
        sc.label(),
        scale.label()
    );

    let shapes = [
        (
            "exponential (paper)",
            DurationDist::Exponential,
            DurationDist::Exponential,
        ),
        (
            "fixed repairs",
            DurationDist::Exponential,
            DurationDist::Fixed,
        ),
        (
            "uniform repairs",
            DurationDist::Exponential,
            DurationDist::Uniform,
        ),
        (
            "fixed lifetimes",
            DurationDist::Fixed,
            DurationDist::Exponential,
        ),
    ];

    println!("shape\tA(0,50)\tA(.5,25)\tA(.75,1)\tA(1,1)\topt(.5)");
    let mut reference: Option<Vec<f64>> = None;
    for (label, fd, rd) in shapes {
        let mut params = scale.params();
        params.fail_dist = fd;
        params.repair_dist = rd;
        let results = run_static(
            &topo,
            VoteAssignment::uniform(n),
            QuorumSpec::from_read_quorum(total / 2, total).expect("valid"),
            Workload::uniform(n, 0.5),
            RunConfig {
                params,
                seed,
                threads,
            },
        );
        let curves = CurveSet::from_run(&results);
        let acc = AvailabilityMetric::Accessibility;
        let points = vec![
            curves.availability(acc, 0.0, 50),
            curves.availability(acc, 0.5, 25),
            curves.availability(acc, 0.75, 1),
            curves.availability(acc, 1.0, 1),
        ];
        let opt = curves.optimal(0.5, quorum_core::SearchStrategy::Exhaustive);
        println!(
            "{label}\t{}\t{}\t{}\t{}\tq_r={} ({})",
            pct(points[0]),
            pct(points[1]),
            pct(points[2]),
            pct(points[3]),
            opt.spec.q_r(),
            pct(opt.availability),
        );
        match &reference {
            None => reference = Some(points),
            Some(base) => {
                let worst = base
                    .iter()
                    .zip(&points)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max);
                println!("#   max deviation from exponential: {:.2}%", 100.0 * worst);
            }
        }
    }
    println!("# reading: repair-shape changes move the curves by a few points (the");
    println!("# means drive the steady state); deterministic LIFETIMES are different —");
    println!("# every component starts in phase and fails in synchronized waves, the");
    println!("# process is periodic rather than mixing, and availability bears little");
    println!("# resemblance to the Poisson prediction. That is precisely the paper's");
    println!("# §4.3 argument for estimating f_i on-line instead of trusting an");
    println!("# off-line model: when the independence/memorylessness assumptions break,");
    println!("# the assignment computed from them is wrong, but measurement still isn't.");
}
