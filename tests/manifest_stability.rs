//! Manifest determinism pins: the same seed must produce byte-identical
//! manifest JSON, run to run and across thread counts, once the fields
//! that *are* wall-clock measurements (phase timings, utilization
//! gauges) are stripped. This is the end-to-end guarantee the workspace
//! lints enforce structurally (DESIGN.md §9) — no hash-iteration order,
//! no wall clock, no OS entropy anywhere in the path from simulator to
//! serialized JSON — pinned here on concrete runs of both simulators.

use quorum_algebra::{optimize_load, AlgebraProtocol, QuorumSystem};
use quorum_bench::manifest::{manifest_for_run, sim_params_record, topology_record};
use quorum_cluster::{run_cluster_observed, ClusterConfig, RunOptions};
use quorum_core::{QuorumSpec, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_obs::{Registry, RunManifest};
use quorum_replica::{run_protocol_observed, run_static_observed, RunConfig, Workload};
use quorum_shard::{FailureTimeline, ObjectCatalog, ShardEngine};

fn tiny_params() -> SimParams {
    SimParams {
        warmup_accesses: 500,
        batch_accesses: 4_000,
        min_batches: 2,
        max_batches: 3,
        ci_half_width: 0.05,
        ..SimParams::paper()
    }
}

/// Removes the fields that legitimately vary with the host: phase
/// timings and utilization gauges (wall-clock measurements) and the
/// recorded thread count (run metadata — the knob the thread-invariance
/// assertions below vary on purpose). Everything left must be a pure
/// function of (topology, params, seed).
fn strip_wall_clock(m: &mut RunManifest) {
    m.phases.clear();
    m.metrics
        .retain(|k, _| !k.contains("utilization") && !k.ends_with(".threads"));
}

fn replica_manifest(seed: u64, threads: usize) -> String {
    let topo = Topology::ring_with_chords(13, 2);
    let votes = VoteAssignment::uniform(13);
    let registry = Registry::new();
    let params = tiny_params();
    let res = run_static_observed(
        &topo,
        votes.clone(),
        QuorumSpec::majority(13),
        Workload::uniform(13, 0.6),
        RunConfig {
            params,
            seed,
            threads,
        },
        &registry,
    );
    let mut m = manifest_for_run(
        "manifest_stability",
        seed,
        &params,
        "ring-13+2",
        2,
        &topo,
        &votes,
        &res,
        &registry,
    );
    strip_wall_clock(&mut m);
    m.to_json().to_string_pretty()
}

fn cluster_manifest(seed: u64, threads: usize) -> String {
    let topo = Topology::ring_with_chords(9, 2);
    let votes = VoteAssignment::uniform(9);
    let params = tiny_params();
    let cfg = ClusterConfig::new(params);
    let registry = Registry::new();
    let res = run_cluster_observed(
        &topo,
        &cfg,
        QuorumSpec::majority(9),
        votes.clone(),
        Workload::uniform(9, 0.7),
        RunOptions { seed, threads },
        &registry,
    );
    let mut m = RunManifest::new("manifest_stability_cluster", seed);
    m.params = sim_params_record(&params);
    m.topology = topology_record("ring-9+2", 2, &topo);
    m.votes = votes.as_slice().to_vec();
    res.fill_manifest(&mut m);
    m.absorb_snapshot(&registry.snapshot());
    strip_wall_clock(&mut m);
    m.to_json().to_string_pretty()
}

#[test]
fn replica_manifest_is_byte_identical_across_runs_and_threads() {
    let a = replica_manifest(21, 2);
    let b = replica_manifest(21, 2);
    assert_eq!(a, b, "same seed, same threads: manifests must match");
    let c = replica_manifest(21, 1);
    assert_eq!(a, c, "thread count must not change any reported number");
}

#[test]
fn cluster_manifest_is_byte_identical_across_runs_and_threads() {
    let a = cluster_manifest(33, 2);
    let b = cluster_manifest(33, 2);
    assert_eq!(a, b, "same seed, same threads: manifests must match");
    let c = cluster_manifest(33, 1);
    assert_eq!(a, c, "thread count must not change any reported number");
}

/// Aggregate manifest of a sharded throughput run, built exactly like
/// `shard_throughput --manifest` builds its counters/gauges: engine +
/// timeline counters, plus the thread/utilization gauges that
/// [`strip_wall_clock`] removes. The shard count is deliberately *not*
/// in the manifest: it's a partition knob, not a result.
fn shard_manifest(seed: u64, shards: u64, threads: usize) -> String {
    let topo = Topology::ring_with_chords(13, 3);
    let params = tiny_params();
    let catalog = ObjectCatalog::paper_mix(13, 300);
    let timeline = FailureTimeline::build(&topo, &catalog, &params, 50.0, seed);
    let engine = ShardEngine::new(&topo, &catalog, &timeline, 50.0, seed);
    let (stats, conv) = engine.run_sharded(shards, threads);
    let registry = Registry::new();
    stats.observe_into(&registry);
    timeline.observe_into(&registry);
    registry.set_gauge(quorum_obs::keys::SHARD_THREADS, threads as f64);
    registry.set_gauge(
        quorum_obs::keys::SHARD_THREAD_UTILIZATION,
        conv.utilization(),
    );
    let mut m = RunManifest::new("manifest_stability_shard", seed);
    m.params = sim_params_record(&params);
    m.topology = topology_record("ring-13+3", 3, &topo);
    m.batches = stats.objects; // partition-invariant stand-in (conv.batches == shards)
    m.set_metric(quorum_obs::keys::AVAILABILITY, stats.availability());
    m.absorb_snapshot(&registry.snapshot());
    strip_wall_clock(&mut m);
    m.to_json().to_string_pretty()
}

/// Manifest of an algebra comparison run, built the way
/// `compare_systems` builds its per-system records: certification,
/// multiplicative-weights load optimization, and a partition-model
/// simulation driven through the general `AlgebraProtocol` plug-in.
/// Every one of those stages must be a pure function of (system,
/// topology, params, seed) for the committed comparison manifest to be
/// reproducible.
fn algebra_manifest(seed: u64, threads: usize) -> String {
    let topo = Topology::ring_with_chords(9, 2);
    let votes = VoteAssignment::uniform(9);
    let params = tiny_params();
    let registry = Registry::new();
    let sys = QuorumSystem::grid(3, 3, 0);
    assert!(sys.certify().ok(), "grid must certify");
    let profile = optimize_load(&sys, 0.5, 500);
    let res = run_protocol_observed(
        &topo,
        votes.clone(),
        Workload::uniform(9, 0.5),
        RunConfig {
            params,
            seed,
            threads,
        },
        &registry,
        quorum_obs::keys::ALGEBRA_SIMULATE,
        || AlgebraProtocol::new(sys.clone()),
    );
    let mut m = RunManifest::new("manifest_stability_algebra", seed);
    m.params = sim_params_record(&params);
    m.topology = topology_record("ring-9+2", 2, &topo);
    m.votes = votes.as_slice().to_vec();
    m.set_labeled_metric(quorum_obs::keys::LOAD, sys.name(), profile.load);
    m.set_labeled_metric(
        quorum_obs::keys::LOAD_LOWER,
        sys.name(),
        profile.lower_bound,
    );
    m.set_metric(quorum_obs::keys::AVAILABILITY, res.availability());
    m.absorb_snapshot(&registry.snapshot());
    strip_wall_clock(&mut m);
    m.to_json().to_string_pretty()
}

#[test]
fn algebra_manifest_is_byte_identical_across_runs_and_threads() {
    let a = algebra_manifest(19, 2);
    let b = algebra_manifest(19, 2);
    assert_eq!(a, b, "same seed, same threads: manifests must match");
    let c = algebra_manifest(19, 1);
    assert_eq!(a, c, "thread count must not change any reported number");
}

#[test]
fn shard_manifest_is_byte_identical_across_threads() {
    let a = shard_manifest(17, 8, 1);
    let b = shard_manifest(17, 8, 4);
    assert_eq!(a, b, "thread count must not change any reported number");
}

#[test]
fn shard_manifest_is_byte_identical_across_shard_partitions() {
    let a = shard_manifest(17, 8, 2);
    let b = shard_manifest(17, 64, 2);
    assert_eq!(
        a, b,
        "shard partitioning must not change any reported number"
    );
}

#[test]
fn manifest_counter_and_metric_keys_serialize_sorted() {
    // The maps behind `counters` and `metrics` are BTreeMaps (and the
    // cluster engine / bench arg maps feeding them were moved off
    // HashMap by the no-unordered-iteration remediation), so the JSON
    // must list keys in sorted order — the property that makes two
    // manifests diffable line by line.
    let text = cluster_manifest(7, 1);
    let m = RunManifest::parse(&text).expect("manifest parses back");
    assert!(!m.counters.is_empty() && !m.metrics.is_empty());
    for keys in [
        m.counters.keys().cloned().collect::<Vec<_>>(),
        m.metrics.keys().cloned().collect::<Vec<_>>(),
    ] {
        let positions: Vec<usize> = keys
            .iter()
            .map(|k| {
                text.find(&format!("\"{k}\""))
                    .unwrap_or_else(|| panic!("key {k} missing from JSON"))
            })
            .collect();
        let mut sorted = positions.clone();
        sorted.sort_unstable();
        assert_eq!(positions, sorted, "keys out of order: {keys:?}");
    }
}
