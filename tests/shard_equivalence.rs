//! Property pins for the shard walk: the batched sharded engine and the
//! naive binary-heap reference must produce **equal** tallies — same
//! per-object counter-RNG streams, same draw positions — across every
//! shard count (1, 2, odd, `== objects`), every thread count, the
//! populations around the former 64-lane stripe width, and per-object
//! optimized assignment tables.

use proptest::prelude::*;
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_shard::{FailureTimeline, ObjectCatalog, ShardEngine, ShardStats};

struct Fixture {
    topology: Topology,
    catalog: ObjectCatalog,
    timeline: FailureTimeline,
    horizon: f64,
    seed: u64,
}

impl Fixture {
    fn new(objects: u64, horizon: f64, seed: u64, per_object: bool) -> Self {
        let topology = Topology::ring_with_chords(13, 3);
        let mut catalog = ObjectCatalog::paper_mix(13, objects);
        if per_object {
            let density = quorum_core::analytic::ring_density(13, 0.96, 0.96);
            catalog = catalog.with_optimized_assignments(&density, 5, 0.2);
        }
        let timeline =
            FailureTimeline::build(&topology, &catalog, &SimParams::quick(), horizon, seed);
        Self {
            topology,
            catalog,
            timeline,
            horizon,
            seed,
        }
    }

    fn engine(&self) -> ShardEngine<'_> {
        ShardEngine::new(
            &self.topology,
            &self.catalog,
            &self.timeline,
            self.horizon,
            self.seed,
        )
    }

    fn sharded(&self, shards: u64, threads: usize) -> ShardStats {
        self.engine().run_sharded(shards, threads).0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The core pin: for arbitrary populations and seeds, every shard
    /// partitioning (1, 2, odd, one-object shards) and thread count
    /// yields the exact naive tally.
    #[test]
    fn sharded_equals_naive_across_partitionings(
        objects in 3u64..160,
        seed in 0u64..1000,
        horizon in 5.0f64..60.0,
    ) {
        let f = Fixture::new(objects, horizon, seed, false);
        let naive = f.engine().run_naive();
        for shards in [1, 2, 5.min(objects), objects] {
            prop_assert_eq!(&f.sharded(shards, 1), &naive, "shards={}", shards);
        }
        prop_assert_eq!(&f.sharded(2.min(objects), 3), &naive, "threaded");
    }

    /// Same pin under per-object optimizer-fed assignments: expanding
    /// the assignment table must not perturb a single counter.
    #[test]
    fn per_object_assignments_preserve_equality(
        objects in 3u64..100,
        seed in 0u64..500,
    ) {
        let f = Fixture::new(objects, 30.0, seed, true);
        prop_assert!(f.catalog.num_assignments() > f.catalog.num_classes());
        let naive = f.engine().run_naive();
        for shards in [1, 3.min(objects), objects] {
            prop_assert_eq!(&f.sharded(shards, 2), &naive, "shards={}", shards);
        }
    }
}

/// Populations around one and two widths of the former 64-lane stripe
/// walk, which ended each shard in a partial stripe.
#[test]
fn stripe_boundary_populations_match_naive() {
    for objects in [63, 64, 65, 127, 128, 129] {
        let f = Fixture::new(objects, 20.0, 41, false);
        let naive = f.engine().run_naive();
        assert_eq!(f.sharded(1, 1), naive, "objects={objects} shards=1");
        assert_eq!(f.sharded(3, 1), naive, "objects={objects} shards=3");
        assert_eq!(f.sharded(objects, 2), naive, "objects={objects} shards=n");
    }
}

/// A single shard no longer panics and is bit-identical to any other
/// partitioning, including on catalogs of a handful of objects.
#[test]
fn single_shard_small_catalogs_run() {
    for objects in [1u64, 2, 7] {
        let f = Fixture::new(objects, 15.0, 9, false);
        let naive = f.engine().run_naive();
        let (stats, conv) = f.engine().run_sharded(1, 1);
        assert_eq!(stats, naive, "objects={objects}");
        assert_eq!(conv.batches, 1);
        assert_eq!(stats.objects, objects);
    }
}

/// Thread-count invariance at a fixed partitioning — the converge
/// orchestrator merges in shard-index order, so counters are
/// bit-identical for 1, 2, and 4 workers.
#[test]
fn thread_counts_do_not_change_counters() {
    let f = Fixture::new(90, 40.0, 77, true);
    let base = f.sharded(6, 1);
    for threads in [2, 4] {
        assert_eq!(f.sharded(6, threads), base, "threads={threads}");
    }
}
