//! Command-line optimal-quorum planner — the Figure-1 algorithm as a tool.
//!
//! Feed it a component-vote histogram (one count per line, for v = 0..=T,
//! e.g. exported from a production system's monitoring) or ask for an
//! analytic model, and it prints the optimal assignment across read
//! ratios, with optional write floor.
//!
//! Usage:
//!   cargo run -p quorum-bench --release --bin optimize -- --hist counts.txt
//!   cargo run -p quorum-bench --release --bin optimize -- \
//!       --model ring --sites 21 --site-rel 0.95 --link-rel 0.99 --floor 0.2
//!   cargo run -p quorum-bench --release --bin optimize -- --model fc --sites 9

use quorum_bench::{or_usage_exit, pct, Args};
use quorum_core::analytic::{
    bus_density_sites_fail, bus_density_sites_independent, check_reliability, check_ring_sites,
    check_sites, fully_connected_density, ring_density,
};
use quorum_core::optimal::{optimal_quorum, optimal_with_write_floor};
use quorum_core::{AvailabilityModel, SearchStrategy};
use quorum_stats::DiscreteDist;

fn load_histogram(path: &str) -> Result<DiscreteDist, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("--hist: cannot read histogram {path:?}: {e}"))?;
    let counts = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| match l.parse::<f64>() {
            Ok(c) if c.is_finite() && c >= 0.0 => Ok(c),
            Ok(c) => Err(format!(
                "--hist {path:?}: count {c} is not a finite, non-negative number"
            )),
            Err(e) => Err(format!("--hist {path:?}: bad histogram line {l:?}: {e}")),
        })
        .collect::<Result<Vec<f64>, String>>()?;
    if counts.len() < 2 {
        return Err(format!(
            "--hist {path:?}: histogram needs at least counts for v = 0 and v = 1"
        ));
    }
    if counts.iter().sum::<f64>() <= 0.0 {
        return Err(format!("--hist {path:?}: histogram counts sum to zero"));
    }
    Ok(DiscreteDist::from_pmf(counts).normalized())
}

fn main() {
    let args = Args::parse();
    let density = if let Some(path) = args.get::<String>("hist") {
        or_usage_exit(load_histogram(&path))
    } else {
        let model = args.one_of(
            "model",
            &["ring", "fc", "fully-connected", "bus-fail", "bus-indep"],
        );
        type SiteCheck = fn(usize) -> Result<(), String>;
        type Density = fn(usize, f64, f64) -> DiscreteDist;
        let (site_check, density): (SiteCheck, Density) = match model {
            "ring" => (check_ring_sites, ring_density),
            "fc" | "fully-connected" => (check_sites, fully_connected_density),
            "bus-fail" => (check_sites, bus_density_sites_fail),
            "bus-indep" => (check_sites, bus_density_sites_independent),
            other => unreachable!("one_of returned unlisted {other:?}"),
        };
        let n = args.get_checked("sites", |&n| site_check(n)).unwrap_or(21);
        let p = args
            .get_checked("site-rel", |&p| check_reliability(p))
            .unwrap_or(0.96);
        let r = args
            .get_checked("link-rel", |&r| check_reliability(r))
            .unwrap_or(0.96);
        density(n, p, r)
    };
    let total = density.max_votes();
    let model = AvailabilityModel::from_mixtures(&density, &density);
    let floor: Option<f64> = args.get("floor");

    println!(
        "# optimal quorum assignments | T = {total} votes, mean component = {:.2}",
        density.mean()
    );
    match floor {
        Some(f) => println!("# write floor: A_w >= {}", pct(f)),
        None => println!("# no write floor (pass --floor 0.2 to add one)"),
    }
    println!("alpha\tq_r\tq_w\tA\tR(q_r)\tW(q_w)");
    for alpha in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
        let opt = match floor {
            Some(f) => {
                match optimal_with_write_floor(&model, alpha, f, SearchStrategy::Exhaustive) {
                    Some(o) => o,
                    None => {
                        println!("{alpha}\t-\t-\tfloor infeasible\t-\t-");
                        continue;
                    }
                }
            }
            None => optimal_quorum(&model, alpha, SearchStrategy::Exhaustive),
        };
        println!(
            "{alpha}\t{}\t{}\t{}\t{}\t{}",
            opt.spec.q_r(),
            opt.spec.q_w(),
            pct(opt.availability),
            pct(opt.read_availability),
            pct(opt.write_availability),
        );
    }
}
