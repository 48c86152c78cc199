//! Validates the §5.2 output-analysis methodology itself: batch
//! independence, CI calibration, and scale consistency.

use quorum_core::{QuorumConsensus, QuorumSpec, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_replica::{run_static, NullObserver, RunConfig, Simulation, Workload};
use quorum_stats::lag1_autocorrelation;

fn batch_params(accesses: u64) -> SimParams {
    SimParams {
        warmup_accesses: 1_000,
        batch_accesses: accesses,
        ..SimParams::paper()
    }
}

#[test]
fn derived_seed_batches_are_serially_uncorrelated() {
    // The batch-means CI assumes independent batches; our batches use
    // disjoint derived seeds and full network resets, so the series of
    // batch availabilities must show no lag-1 autocorrelation.
    let topo = Topology::ring_with_chords(15, 3);
    let mut sim = Simulation::new(&topo, batch_params(8_000), Workload::uniform(15, 0.5), 7);
    let mut proto = QuorumConsensus::majority(15);
    let series: Vec<f64> = (0..24)
        .map(|_| sim.run_batch(&mut proto, &mut NullObserver).availability())
        .collect();
    let r = lag1_autocorrelation(&series);
    // |r| for 24 independent samples is ~N(0, 1/√24): 3σ ≈ 0.61.
    assert!(r.abs() < 0.61, "lag-1 autocorrelation {r}");
}

#[test]
fn confidence_interval_covers_the_long_run_mean() {
    // Run many short independent experiments; their 95% CIs should cover
    // the pooled (best-estimate) mean most of the time. With 10 trials,
    // ≥ 6 covering is a loose 3σ-safe bound for a calibrated CI.
    let topo = Topology::ring(11);
    let spec = QuorumSpec::from_read_quorum(3, 11).unwrap();
    let runs: Vec<_> = (0..10)
        .map(|i| {
            run_static(
                &topo,
                VoteAssignment::uniform(11),
                spec,
                Workload::uniform(11, 0.5),
                RunConfig {
                    params: SimParams {
                        warmup_accesses: 1_000,
                        batch_accesses: 10_000,
                        min_batches: 4,
                        max_batches: 4,
                        ci_half_width: 1e-9, // always use all 4 batches
                        ..SimParams::paper()
                    },
                    seed: 1000 + i,
                    threads: 2,
                },
            )
        })
        .collect();
    let pooled: f64 = runs.iter().map(|r| r.availability()).sum::<f64>() / runs.len() as f64;
    let covering = runs
        .iter()
        .filter(|r| r.interval().expect("4 batches").contains(pooled))
        .count();
    assert!(
        covering >= 6,
        "only {covering}/10 CIs covered the pooled mean {pooled}"
    );
}

#[test]
fn longer_batches_tighten_the_interval() {
    let topo = Topology::ring(11);
    let spec = QuorumSpec::majority(11);
    let run = |accesses: u64| {
        run_static(
            &topo,
            VoteAssignment::uniform(11),
            spec,
            Workload::uniform(11, 0.5),
            RunConfig {
                params: SimParams {
                    warmup_accesses: 1_000,
                    batch_accesses: accesses,
                    min_batches: 5,
                    max_batches: 5,
                    ci_half_width: 1e-9,
                    ..SimParams::paper()
                },
                seed: 5,
                threads: 2,
            },
        )
        .interval()
        .expect("5 batches")
        .half_width
    };
    let short = run(4_000);
    let long = run(40_000);
    assert!(
        long < short,
        "10× batch size should tighten the CI: {short} → {long}"
    );
}

#[test]
fn convergence_loop_stops_early_when_tight() {
    // With a generous CI target the run should stop at min_batches; with
    // an impossible target it should exhaust max_batches.
    let topo = Topology::fully_connected(9); // low-variance system
    let spec = QuorumSpec::majority(9);
    let mk = |target: f64| RunConfig {
        params: SimParams {
            warmup_accesses: 500,
            batch_accesses: 10_000,
            min_batches: 3,
            max_batches: 9,
            ci_half_width: target,
            ..SimParams::paper()
        },
        seed: 8,
        threads: 3,
    };
    let loose = run_static(
        &topo,
        VoteAssignment::uniform(9),
        spec,
        Workload::uniform(9, 0.5),
        mk(0.05),
    );
    assert_eq!(loose.batches, 3, "loose target stops at min_batches");
    let strict = run_static(
        &topo,
        VoteAssignment::uniform(9),
        spec,
        Workload::uniform(9, 0.5),
        mk(1e-12),
    );
    assert_eq!(strict.batches, 9, "impossible target exhausts max_batches");
}

#[test]
fn warmup_removes_initial_state_bias() {
    // The network starts all-up, so an unwarmed batch over-estimates
    // availability; the paper discards 100k accesses for this reason.
    // Use write availability on a ring (most sensitive to the all-up
    // start: q_w-sized components are common only early on).
    let topo = Topology::ring(21);
    let spec = QuorumSpec::from_read_quorum(2, 21).unwrap(); // q_w = 20
    let run = |warmup: u64, seed: u64| {
        // Short measured window: the all-up bias spans only the first
        // ~3·μ_r ≈ 16 time units (≈ 340 accesses at 21 sites), so a long
        // batch dilutes it below noise.
        let params = SimParams {
            warmup_accesses: warmup,
            batch_accesses: 1_500,
            ..SimParams::paper()
        };
        let mut sim = Simulation::new(&topo, params, Workload::uniform(21, 0.0), seed);
        let mut proto = QuorumConsensus::new(VoteAssignment::uniform(21), spec);
        sim.run_batch(&mut proto, &mut NullObserver)
            .write_availability()
    };
    // Average several seeds to stabilize.
    let cold: f64 = (0..12).map(|s| run(0, 100 + s)).sum::<f64>() / 12.0;
    let warm: f64 = (0..12).map(|s| run(20_000, 100 + s)).sum::<f64>() / 12.0;
    assert!(
        cold > warm + 0.02,
        "cold start should inflate write availability: cold {cold} vs warm {warm}"
    );
}
