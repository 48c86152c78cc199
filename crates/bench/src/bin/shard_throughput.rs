//! Million-object sharded throughput benchmark.
//!
//! Drives [`quorum_shard`] at paper-scale topology (101 sites): build
//! the shared failure timeline once, then push every object's Poisson
//! access walk through two engines —
//!
//! * the **batched sharded** path (contiguous object shards fanned over
//!   the converge orchestrator, no event queue in the access loop), and
//! * the **naive binary-heap** baseline (every object's next access in
//!   one future-event list, popped one access at a time),
//!
//! asserts their tallies are *equal* (same per-object RNG streams), and
//! reports sustained accesses/sec for both plus the speedup. With
//! `--manifest <path>` the numbers land in a run manifest for the CI
//! throughput gate (`results/BENCH_PR.json` / `BENCH_BASELINE.json`).
//!
//! Counters in the manifest are invariant to `--shards` and
//! `--threads`; wall-clock metrics and the `shard.threads` /
//! `shard.thread_utilization` gauges are the only run-shaped values.
//!
//! With `--per-object` the catalog is expanded to per-object quorum
//! assignments: objects of each class spread over `--alpha-buckets`
//! read-ratio buckets (± `--alpha-spread` around the class α) and the
//! optimizer picks each uniform-vote bucket's `q_r` against the
//! topology's analytic component density (full-connected exactly;
//! chorded rings use the plain ring density as the documented proxy —
//! chords only tighten connectivity, and the engine measures throughput,
//! not the proxy's fidelity).
//!
//! Usage: cargo run -p quorum-bench --release --bin shard_throughput
//!        [-- --objects 1000000 --shards 64 --threads 2 --horizon 2.0
//!            --seed 11 --chords 256 (default: full-101) --skip-naive
//!            --per-object --alpha-buckets 4 --alpha-spread 0.2
//!            --manifest results/BENCH_PR.json]

use quorum_bench::{manifest, or_usage_exit, print_table, Args};
use quorum_core::analytic::{fully_connected_density, ring_density};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_obs::{keys, Registry, RunManifest};
use quorum_shard::{FailureTimeline, ObjectCatalog, ShardEngine};
use std::time::Instant;

fn main() {
    let args = Args::parse();
    manifest::check_requested(&args);
    let seed: u64 = args.get_or("seed", 11);
    let (label, topology) = match args.get::<usize>("chords") {
        Some(k) => (format!("ring-101-c{k}"), Topology::ring_with_chords(101, k)),
        None => ("full-101".to_string(), Topology::fully_connected(101)),
    };
    // Sizes go through the library's own checks, so a bad value is a
    // usage error naming its flag rather than a panic mid-run.
    let objects: u64 = args
        .get_checked("objects", |&o| {
            ObjectCatalog::check_size(topology.num_sites(), o)
        })
        .unwrap_or(50_000);
    // The default shard count is checked too: it can exceed a small
    // `--objects`.
    let shards: u64 = args.get_or("shards", 64);
    or_usage_exit(
        ShardEngine::check_shards(shards, objects)
            .map_err(|rule| format!("--shards {shards}: {rule}")),
    );
    let threads: usize = args.get_or("threads", quorum_bench::default_threads());
    let horizon: f64 = args
        .get_checked("horizon", |&h| FailureTimeline::check_horizon(h))
        .unwrap_or(2.0);
    let per_object = args.flag("per-object");
    let buckets: usize = args
        .get_checked("alpha-buckets", |&b| ObjectCatalog::check_buckets(b))
        .unwrap_or(4);
    let spread: f64 = args
        .get_checked("alpha-spread", |&s| ObjectCatalog::check_spread(s))
        .unwrap_or(0.2);
    let params = SimParams::paper();

    println!(
        "# Shard throughput | {label} objects={objects} shards={shards} threads={threads} \
         horizon={horizon} seed={seed} per_object={per_object}"
    );

    let registry = Registry::new();
    let mut catalog = ObjectCatalog::paper_mix(topology.num_sites(), objects);
    if per_object {
        let n = topology.num_sites();
        let r = params.reliability;
        let density = match args.get::<usize>("chords") {
            Some(_) => ring_density(n, r, r),
            None => fully_connected_density(n, r, r),
        };
        catalog = catalog.with_optimized_assignments(&density, buckets, spread);
        registry.add(keys::OPTIMIZER_EVALUATIONS, catalog.optimizer_evaluations());
        println!(
            "# per-object assignments: {} profiles over {} classes x {buckets} alpha-buckets \
             ({} optimizer evaluations)",
            catalog.num_assignments(),
            catalog.num_classes(),
            catalog.optimizer_evaluations()
        );
    }
    let timeline = {
        let _t = registry.scoped_timer(keys::PHASE_TIMELINE_BUILD);
        FailureTimeline::build(&topology, &catalog, &params, horizon, seed)
    };
    println!(
        "# timeline: {} epochs over {} site + {} link transitions",
        timeline.num_epochs(),
        timeline.site_transitions(),
        timeline.link_transitions()
    );

    let engine = ShardEngine::new(&topology, &catalog, &timeline, horizon, seed);

    #[expect(
        clippy::disallowed_methods,
        reason = "benchmark timer: batched-engine accesses/sec is the result"
    )]
    let batched_started = Instant::now();
    let (stats, conv) = {
        let _t = registry.scoped_timer(keys::PHASE_BATCHED_RUN);
        engine.run_sharded(shards, threads)
    };
    let batched_secs = batched_started.elapsed().as_secs_f64();
    let accesses_per_sec = stats.accesses as f64 / batched_secs.max(1e-9);

    let naive = if args.flag("skip-naive") {
        None
    } else {
        #[expect(
            clippy::disallowed_methods,
            reason = "benchmark timer: naive-heap accesses/sec is the result"
        )]
        let naive_started = Instant::now();
        let naive_stats = {
            let _t = registry.scoped_timer(keys::PHASE_NAIVE_RUN);
            engine.run_naive()
        };
        let naive_secs = naive_started.elapsed().as_secs_f64();
        assert_eq!(
            naive_stats, stats,
            "naive heap and batched shard engines disagree"
        );
        Some((
            naive_stats.accesses as f64 / naive_secs.max(1e-9),
            naive_secs,
        ))
    };

    let mut rows = vec![vec![
        "batched".to_string(),
        format!("{}", stats.accesses),
        format!("{batched_secs:.3}"),
        format!("{accesses_per_sec:.0}"),
        format!("{:.4}", stats.availability()),
    ]];
    if let Some((naive_aps, naive_secs)) = naive {
        rows.push(vec![
            "naive-heap".to_string(),
            format!("{}", stats.accesses),
            format!("{naive_secs:.3}"),
            format!("{naive_aps:.0}"),
            format!("{:.4}", stats.availability()),
        ]);
        rows.push(vec![
            "speedup".to_string(),
            String::new(),
            String::new(),
            format!("{:.2}x", accesses_per_sec / naive_aps),
            String::new(),
        ]);
    }
    print_table(
        &[
            "engine",
            "accesses",
            "wall_s",
            "accesses/sec",
            "availability",
        ],
        &rows,
    );

    stats.observe_into(&registry);
    timeline.observe_into(&registry);
    registry.set_gauge(keys::SHARD_SHARDS, shards as f64);
    registry.set_gauge(keys::SHARD_THREADS, threads as f64);
    registry.set_gauge(keys::SHARD_THREAD_UTILIZATION, conv.utilization());

    let mut m = RunManifest::new("shard_throughput", seed);
    m.params = manifest::sim_params_record(&params);
    m.topology = manifest::topology_record(&label, args.get_or("chords", 0), &topology);
    m.batches = conv.batches;
    m.absorb_snapshot(&registry.snapshot());
    m.set_metric(keys::ACCESSES_PER_SEC, accesses_per_sec);
    m.set_metric(keys::BATCHED_WALL_SECS, batched_secs);
    m.set_metric(keys::AVAILABILITY, stats.availability());
    m.set_metric(keys::HORIZON, horizon);
    if let Some((naive_aps, naive_secs)) = naive {
        m.set_metric(keys::NAIVE_ACCESSES_PER_SEC, naive_aps);
        m.set_metric(keys::NAIVE_WALL_SECS, naive_secs);
        m.set_metric(keys::SPEEDUP_VS_NAIVE, accesses_per_sec / naive_aps);
    }
    manifest::write_requested(&args, &m);
}
