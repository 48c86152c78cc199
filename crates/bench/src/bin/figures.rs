//! Regenerates Figures 2–7: availability `A(α, q_r)` curves for the
//! paper's topologies (101-site ring + k chords), α ∈ {0, .25, .5, .75, 1}.
//!
//! Usage:
//!   cargo run -p quorum-bench --release --bin figures            # all figures
//!   cargo run -p quorum-bench --release --bin figures -- --topology 16
//!   cargo run -p quorum-bench --release --bin figures -- --paper-scale
//!   cargo run -p quorum-bench --release --bin figures -- --csv-dir results/csv
//!
//! One simulation run per topology measures the component-vote histogram;
//! the Figure-1 model then produces every (α, q_r) point. The §5.3
//! observations are checked and printed under each table:
//!   * A(α, q_r = 1) ≈ 0.96·α, independent of topology;
//!   * all α-curves converge at q_r = ⌊T/2⌋ = 50;
//!   * curve maxima land at the endpoints (except Topology 16, α = .75).

use quorum_bench::{default_threads, manifest, or_usage_exit, pct, print_table, Args, Scale};
use quorum_core::metrics::AvailabilityMetric;
use quorum_core::{QuorumSpec, SearchStrategy, VoteAssignment};
use quorum_obs::{keys, Registry};
use quorum_replica::scenario::{PaperScenario, PAPER_ALPHAS};
use quorum_replica::{run_static_observed, CurveSet, RunConfig, RunResults, Workload};

fn main() {
    let args = Args::parse();
    manifest::check_requested(&args);
    let scale = Scale::from_args(&args);
    let seed: u64 = args.get_or("seed", 90158);
    let threads = args.get_or("threads", default_threads());
    let metric = if args.flag("surv") {
        AvailabilityMetric::Survivability
    } else {
        AvailabilityMetric::Accessibility
    };
    let csv_dir: Option<String> = args.get("csv-dir");
    if let Some(dir) = &csv_dir {
        or_usage_exit(
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("--csv-dir {dir:?}: cannot create: {e}")),
        );
    }
    let topology = args.get_checked("topology", |&c| PaperScenario::check_chords(c));
    let scenarios: Vec<PaperScenario> = match topology {
        Some(k) => vec![PaperScenario::new(k)],
        None => PaperScenario::all()
            .into_iter()
            .filter(|s| s.figure().is_some())
            .collect(),
    };

    println!(
        "# Figures 2-7 reproduction | metric={metric} scale={} seed={seed} threads={threads}",
        scale.label()
    );

    let registry = Registry::new();
    let mut runs: Vec<(PaperScenario, RunResults)> = Vec::new();

    for sc in scenarios {
        let topo = sc.topology();
        let n = topo.num_sites();
        let total = n as u64;
        let spec = QuorumSpec::from_read_quorum(total / 2, total).expect("valid");
        let workload = Workload::uniform(n, 0.5);
        let cfg = RunConfig {
            params: scale.params(),
            seed,
            threads,
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "per-figure wall-clock phase timing for the manifest"
        )]
        let t0 = std::time::Instant::now();
        let results = {
            let _t =
                registry.scoped_timer_labeled(keys::FIGURES, &format!("topology_{}", sc.chords));
            run_static_observed(
                &topo,
                VoteAssignment::uniform(n),
                spec,
                workload,
                cfg,
                &registry,
            )
        };
        let curves = CurveSet::from_run(&results);
        let elapsed = t0.elapsed();

        let fig = sc
            .figure()
            .map(|f| format!("Figure {f}"))
            .unwrap_or_else(|| "(not plotted in paper)".into());
        println!(
            "\n## {} ({}) — {} links, diameter {}, {} batches, CI ±{} , {:.1}s",
            sc.label(),
            fig,
            topo.num_links(),
            topo.diameter()
                .map(|d| d.to_string())
                .unwrap_or_else(|| "∞".into()),
            results.batches,
            results
                .interval()
                .map(|ci| format!("{:.3}%", 100.0 * ci.half_width))
                .unwrap_or_else(|| "n/a".into()),
            elapsed.as_secs_f64()
        );

        let mut header = vec!["q_r".to_string()];
        header.extend(PAPER_ALPHAS.iter().map(|a| format!("alpha={a}")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut rows = Vec::new();
        for q_r in 1..=total / 2 {
            let mut row = vec![q_r.to_string()];
            for &alpha in &PAPER_ALPHAS {
                row.push(pct(curves.availability(metric, alpha, q_r)));
            }
            rows.push(row);
        }
        print_table(&header_refs, &rows);

        if let Some(dir) = &csv_dir {
            let path = format!("{dir}/topology_{}.csv", sc.chords);
            let mut csv = String::from("q_r,alpha_0,alpha_25,alpha_50,alpha_75,alpha_100\n");
            for q_r in 1..=total / 2 {
                csv.push_str(&q_r.to_string());
                for &alpha in &PAPER_ALPHAS {
                    csv.push(',');
                    csv.push_str(&format!("{:.6}", curves.availability(metric, alpha, q_r)));
                }
                csv.push('\n');
            }
            or_usage_exit(
                std::fs::write(&path, csv)
                    .map_err(|e| format!("--csv-dir {dir:?}: cannot write {path}: {e}")),
            );
            println!("# wrote {path}");
        }

        // §5.3 checks.
        println!("# checks:");
        for &alpha in &PAPER_ALPHAS {
            let opt = curves.optimal(alpha, SearchStrategy::Exhaustive);
            // Tie-aware endpoint check: on dense topologies the curve is
            // flat near the maximum, so ask whether an *endpoint attains*
            // the optimum (within CI noise), not whether argmax == endpoint.
            let tol = 5e-3; // the paper's own CI half-width
            let at_lo = curves.availability(metric, alpha, 1);
            let at_hi = curves.availability(metric, alpha, total / 2);
            let endpoint = at_lo >= opt.availability - tol || at_hi >= opt.availability - tol;
            println!(
                "#   alpha={alpha}: optimal q_r={} q_w={} A={} (endpoint attains max: {endpoint})",
                opt.spec.q_r(),
                opt.spec.q_w(),
                pct(opt.availability)
            );
        }
        // CI-indistinguishable optimum set (flat-top width) at α = 0.5.
        let set = quorum_core::optimal::optimal_set(curves.model(metric), 0.5, 5e-3);
        let span = (
            set.first().copied().unwrap_or(0),
            set.last().copied().unwrap_or(0),
        );
        println!(
            "#   alpha=0.5: {} assignments within the paper's CI of the optimum (q_r {}..{})",
            set.len(),
            span.0,
            span.1
        );
        let a1 = curves.availability(metric, 1.0, 1);
        println!(
            "#   A(alpha=1, q_r=1) = {} (paper: site reliability 96.0%)",
            pct(a1)
        );
        let end: Vec<f64> = PAPER_ALPHAS
            .iter()
            .map(|&a| curves.availability(metric, a, total / 2))
            .collect();
        let spread = end.iter().cloned().fold(f64::MIN, f64::max)
            - end.iter().cloned().fold(f64::MAX, f64::min);
        println!(
            "#   spread of curves at q_r=50: {:.2}% (paper: curves converge)",
            100.0 * spread
        );
        assert!(
            results.is_one_copy_serializable(),
            "1SR violated — simulator bug"
        );
        runs.push((sc, results));
    }

    if let Some((sc, results)) = runs.last() {
        // Counters/timers aggregate every topology; the structural fields
        // (topology record, votes, CI trace) describe the last run, and
        // each topology's availability and stopping point are labeled
        // metrics of their own.
        let mut m = manifest::manifest_for_run(
            "figures",
            seed,
            &scale.params(),
            &sc.label(),
            sc.chords,
            &sc.topology(),
            &VoteAssignment::uniform(sc.topology().num_sites()),
            results,
            &registry,
        );
        m.batches = m.counter(keys::RUN_BATCHES);
        for (sc, results) in &runs {
            let label = format!("topology_{}", sc.chords);
            m.set_labeled_metric(keys::AVAILABILITY, &label, results.availability());
            manifest::record_convergence(&mut m, &label, results);
        }
        manifest::write_requested(&args, &m);
    }
}
