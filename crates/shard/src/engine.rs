//! The throughput engine: the per-object shard walk vs the naive heap.
//!
//! Both engines simulate the identical system — every object's Poisson
//! access walk over the shared [`FailureTimeline`] — and consume each
//! object's counter-based RNG stream at the identical positions, so
//! their aggregate statistics are **equal**, not merely statistically
//! indistinguishable.
//!
//! ## The RNG draw-order contract
//!
//! Object `o` owns the [`CounterRng`] stream `derive_seed(master, o)`
//! (`master` = `derive_seed(seed, 2)`). Draw 0 is the gap to the first
//! access; access `i` (0-based) then consumes draws `1 + 3i` (read/write
//! kind), `2 + 3i` (submitting site), and `3 + 3i` (gap to the next
//! access). Because a draw is a pure function of `(seed, counter)`, the
//! shard walk can take each object to the horizon before the next while
//! the heap engine interleaves every object's stream in time order —
//! and both land on bit-identical values.
//!
//! ## The two engines
//!
//! * [`ShardEngine::run_sharded`] partitions the object space into
//!   contiguous shards and fans them through [`quorum_stats::converge()`]
//!   (one shard walks inline). Each shard walks its objects one at a
//!   time in one plain loop — three draws, a lookup in the timeline's
//!   bucketed epoch index and a grant-mask byte per access, counted in a
//!   per-range `tally[class][is_read][granted]` — and returns an
//!   all-`u64` [`ShardStats`] whose merge is associative and
//!   commutative, making the aggregate invariant to shard partitioning
//!   *and* thread count.
//! * [`ShardEngine::run_naive`] is the classical formulation: one
//!   binary-heap future-event list holding every object's next access,
//!   popped one access at a time (`O(log N)` per access with `N` heap
//!   entries). It exists as the correctness pin and as the benchmark
//!   baseline the shard walk is measured against.

// Hot kernel: a panic here kills a million-object run half-way, and a
// narrowing cast that wraps corrupts state silently. The asserts live in
// once-per-run validation, each under a reasoned `#[expect]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros,
        clippy::cast_possible_truncation,
        clippy::indexing_slicing,
    )
)]

use crate::catalog::ObjectCatalog;
use crate::timeline::{FailureTimeline, READ_BIT, WRITE_BIT};
use quorum_graph::Topology;
use quorum_stats::rng::{derive_seed, exponential_from_uniform, CounterRng};
use quorum_stats::{converge, BatchMeans, ConvergeParams, Convergence};
use std::time::Duration;

/// Aggregate access tallies of a run (or of one shard of it).
///
/// Every field is an exact integer count, so merging shards is
/// associative/commutative and aggregates are bit-stable across any
/// partitioning of the object space — and any walk order within a
/// shard, which is what lets the shard walk take one object at a time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Objects walked.
    pub objects: u64,
    /// Accesses dispatched (reads + writes).
    pub accesses: u64,
    /// Reads submitted.
    pub reads_submitted: u64,
    /// Writes submitted.
    pub writes_submitted: u64,
    /// Reads granted a quorum.
    pub reads_granted: u64,
    /// Writes granted a quorum.
    pub writes_granted: u64,
    /// Accesses per object class, index-aligned with the catalog.
    pub class_accesses: Vec<u64>,
    /// Granted accesses per object class.
    pub class_granted: Vec<u64>,
}

impl ShardStats {
    /// An empty tally over `classes` object classes.
    pub(crate) fn new(classes: usize) -> Self {
        Self {
            class_accesses: vec![0; classes],
            class_granted: vec![0; classes],
            ..Self::default()
        }
    }

    /// Adds another tally into this one.
    ///
    /// # Panics
    /// Panics if the class counts differ.
    #[expect(
        clippy::disallowed_macros,
        reason = "shape check once per batch tally merge, documented under # Panics"
    )]
    pub(crate) fn merge(&mut self, other: &ShardStats) {
        assert_eq!(self.class_accesses.len(), other.class_accesses.len());
        self.objects += other.objects;
        self.accesses += other.accesses;
        self.reads_submitted += other.reads_submitted;
        self.writes_submitted += other.writes_submitted;
        self.reads_granted += other.reads_granted;
        self.writes_granted += other.writes_granted;
        for (a, b) in self.class_accesses.iter_mut().zip(&other.class_accesses) {
            *a += b;
        }
        for (a, b) in self.class_granted.iter_mut().zip(&other.class_granted) {
            *a += b;
        }
    }

    /// Fraction of accesses granted (1.0 for an empty tally).
    pub fn availability(&self) -> f64 {
        if self.accesses == 0 {
            1.0
        } else {
            (self.reads_granted + self.writes_granted) as f64 / self.accesses as f64
        }
    }

    /// Publishes the tallies into an observability registry under the
    /// `shard.*` keys. Only partition-invariant totals are recorded, so
    /// manifests built from the snapshot are byte-identical across
    /// shard and thread counts.
    pub fn observe_into(&self, registry: &quorum_obs::Registry) {
        registry.add(quorum_obs::keys::SHARD_OBJECTS, self.objects);
        registry.add(quorum_obs::keys::SHARD_ACCESSES, self.accesses);
        registry.add(
            quorum_obs::keys::SHARD_READS_SUBMITTED,
            self.reads_submitted,
        );
        registry.add(
            quorum_obs::keys::SHARD_WRITES_SUBMITTED,
            self.writes_submitted,
        );
        registry.add(quorum_obs::keys::SHARD_READS_GRANTED, self.reads_granted);
        registry.add(quorum_obs::keys::SHARD_WRITES_GRANTED, self.writes_granted);
    }
}

/// Records one access outcome from its precomputed grant mask.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "class < num_classes by catalog construction, and both tally vectors are sized num_classes"
)]
fn record(stats: &mut ShardStats, class: usize, mask: u8, is_read: bool) {
    let granted = if is_read {
        mask & READ_BIT != 0
    } else {
        mask & WRITE_BIT != 0
    };
    stats.accesses += 1;
    stats.class_accesses[class] += 1;
    if is_read {
        stats.reads_submitted += 1;
        stats.reads_granted += u64::from(granted);
    } else {
        stats.writes_submitted += 1;
        stats.writes_granted += u64::from(granted);
    }
    stats.class_granted[class] += u64::from(granted);
}

/// Checked-once walk context: every invariant the inner loops rely on
/// (positive finite rates and horizon, catalog/timeline agreement on
/// the assignment table) is validated here, so the per-access path
/// carries no asserts beyond debug builds.
struct PreparedWalk<'a> {
    catalog: &'a ObjectCatalog,
    timeline: &'a FailureTimeline,
    sites: usize,
    sites_f: f64,
    horizon: f64,
    master: u64,
}

impl<'a> PreparedWalk<'a> {
    /// Validates the run configuration once.
    ///
    /// # Panics
    /// Panics if the horizon is not positive/finite or exceeds the
    /// timeline's, if the timeline was built for a different assignment
    /// table, or if any class has a non-positive rate or an α outside
    /// `[0, 1]` (per-bucket αs are clamped into `(0, 1)` by
    /// construction, and per-object rates inherit positivity from the
    /// class base rate).
    #[expect(
        clippy::disallowed_macros,
        reason = "run validation happens once here so the per-access loops carry no asserts"
    )]
    fn new(engine: &ShardEngine<'a>) -> Self {
        let horizon = engine.horizon;
        assert!(
            horizon.is_finite() && horizon > 0.0,
            "horizon must be positive and finite"
        );
        assert!(
            horizon <= engine.timeline.horizon(),
            "walk horizon exceeds the timeline's"
        );
        assert_eq!(
            engine.timeline.num_assignments(),
            engine.catalog.num_assignments(),
            "timeline was built for a different assignment table"
        );
        for class in engine.catalog.classes() {
            assert!(
                class.base_rate > 0.0 && class.base_rate.is_finite(),
                "class {} rate must be positive",
                class.name
            );
            assert!(
                (0.0..=1.0).contains(&class.alpha),
                "class {} alpha out of range",
                class.name
            );
        }
        let sites = engine.topology.num_sites();
        Self {
            catalog: engine.catalog,
            timeline: engine.timeline,
            sites,
            sites_f: sites as f64,
            horizon,
            master: engine.access_master(),
        }
    }

    /// Submitting site for a uniform draw `u ∈ [0, 1)`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "u is in [0, 1), so u * sites is below the site count; min() clamps rounding"
    )]
    fn site_of(&self, u: f64) -> usize {
        ((u * self.sites_f) as usize).min(self.sites - 1)
    }

    /// Walks objects `[lo, hi)` into `stats`, each object to the horizon
    /// before the next one starts.
    ///
    /// Accesses are counted in a local `tally[class][is_read][granted]`
    /// and folded into `stats` once per range; each object keeps its own
    /// epoch hint, since its accesses arrive in time order.
    #[expect(
        clippy::indexing_slicing,
        reason = "class < num_classes by catalog construction and the tally has num_classes rows; bool indices are 0 or 1 into [_; 2]"
    )]
    fn walk_range(&self, lo: u64, hi: u64, stats: &mut ShardStats) {
        let mut tally = vec![[[0u64; 2]; 2]; self.catalog.num_classes()];
        for o in lo..hi {
            let seed = derive_seed(self.master, o);
            let obj = self.catalog.params_of(o);
            let inv = 1.0 / obj.rate;
            let row = &mut tally[obj.class];
            let mut t = exponential_from_uniform(CounterRng::uniform_at(seed, 0), inv);
            let mut ctr = 1u64;
            let mut epoch = 0usize;
            while t < self.horizon {
                let u_kind = CounterRng::uniform_at(seed, ctr);
                let u_site = CounterRng::uniform_at(seed, ctr + 1);
                let gap = exponential_from_uniform(CounterRng::uniform_at(seed, ctr + 2), inv);
                ctr += 3;
                epoch = self.timeline.epoch_at(t, epoch);
                let mask = self
                    .timeline
                    .grant_mask(epoch, obj.assignment, self.site_of(u_site));
                let is_read = u_kind < obj.alpha;
                let bit = if is_read { READ_BIT } else { WRITE_BIT };
                row[usize::from(is_read)][usize::from(mask & bit != 0)] += 1;
                t += gap;
            }
        }
        stats.objects += hi - lo;
        for (class, [[writes_denied, writes_granted], [reads_denied, reads_granted]]) in
            tally.into_iter().enumerate()
        {
            let reads = reads_denied + reads_granted;
            let writes = writes_denied + writes_granted;
            stats.accesses += reads + writes;
            stats.reads_submitted += reads;
            stats.writes_submitted += writes;
            stats.reads_granted += reads_granted;
            stats.writes_granted += writes_granted;
            stats.class_accesses[class] += reads + writes;
            stats.class_granted[class] += reads_granted + writes_granted;
        }
    }
}

/// The engine: topology + catalog + timeline + the run seed.
#[derive(Debug, Clone, Copy)]
pub struct ShardEngine<'a> {
    topology: &'a Topology,
    catalog: &'a ObjectCatalog,
    timeline: &'a FailureTimeline,
    horizon: f64,
    seed: u64,
}

impl<'a> ShardEngine<'a> {
    /// Checks a shard count for a population of `objects`, returning the
    /// violated rule.
    pub fn check_shards(shards: u64, objects: u64) -> Result<(), String> {
        if shards == 0 {
            Err("need at least one shard".to_string())
        } else if shards > objects {
            Err("more shards than objects".to_string())
        } else {
            Ok(())
        }
    }

    /// Binds an engine to a prepared run. `seed` must be the same master
    /// seed the timeline was built with (the timeline consumes stream 1,
    /// the access walks consume stream 2).
    pub fn new(
        topology: &'a Topology,
        catalog: &'a ObjectCatalog,
        timeline: &'a FailureTimeline,
        horizon: f64,
        seed: u64,
    ) -> Self {
        Self {
            topology,
            catalog,
            timeline,
            horizon,
            seed,
        }
    }

    /// Master seed of the per-object access RNG streams.
    fn access_master(&self) -> u64 {
        derive_seed(self.seed, 2)
    }

    /// Contiguous object range of shard `b` of `shards` (balanced to
    /// within one object).
    fn shard_range(&self, shards: u64, b: u64) -> (u64, u64) {
        let objects = self.catalog.num_objects();
        let base = objects / shards;
        let rem = objects % shards;
        let lo = b * base + b.min(rem);
        let hi = lo + base + u64::from(b < rem);
        (lo, hi)
    }

    /// Runs the batched engine: `shards` contiguous object ranges fanned
    /// over `threads` workers through [`quorum_stats::converge()`], each
    /// walked one object at a time.
    ///
    /// With `shards >= 2`, every shard is dispatched and consumed
    /// (`min_batches == max_batches == shards`, with a vanishing
    /// half-width target so the orchestrator never discards a
    /// speculative batch), and shard tallies merge in shard-index order
    /// — the aggregate is therefore invariant to both the shard count
    /// and the thread count. A single shard walks inline (the batch
    /// orchestrator needs two batches for an interval), producing the
    /// same tally any other partitioning does.
    ///
    /// # Panics
    /// Panics unless `1 <= shards <= objects` (see
    /// [`ShardEngine::check_shards`]).
    #[expect(
        clippy::panic,
        reason = "shard-count validation once per run, documented under # Panics"
    )]
    pub fn run_sharded(&self, shards: u64, threads: usize) -> (ShardStats, Convergence) {
        if let Err(rule) = Self::check_shards(shards, self.catalog.num_objects()) {
            panic!("{rule}");
        }
        let prepared = PreparedWalk::new(self);
        if shards == 1 {
            let mut total = ShardStats::new(self.catalog.num_classes());
            prepared.walk_range(0, self.catalog.num_objects(), &mut total);
            // The stopping-rule accumulator still carries the primary
            // statistic; timing fields are zero — nothing was fanned out,
            // so there is no thread-seconds denominator to report.
            let mut acc = BatchMeans::new(0.95, 1e-12, 2);
            acc.push_batch(total.accesses as f64);
            let conv = Convergence {
                acc,
                batches: 1,
                trace: Vec::new(),
                busy: Duration::ZERO,
                available_thread_seconds: 0.0,
                wall: Duration::ZERO,
            };
            return (total, conv);
        }
        let params = ConvergeParams {
            confidence: 0.95,
            // Shards are a partition of one run, not independent
            // replicates: convergence must never stop the fan-out
            // early, so the target is unreachably tight and
            // min == max pins the batch count to the shard count.
            target_half_width: 1e-12,
            min_batches: shards,
            max_batches: shards,
            threads,
        };
        let mut total = ShardStats::new(self.catalog.num_classes());
        let conv = converge(
            &params,
            |b| {
                let (lo, hi) = self.shard_range(shards, b);
                let mut s = ShardStats::new(self.catalog.num_classes());
                prepared.walk_range(lo, hi, &mut s);
                s
            },
            |s| s.accesses as f64,
            |_, s, _| total.merge(&s),
        );
        (total, conv)
    }

    /// Runs the naive reference engine: every object's next access lives
    /// in one binary-heap future-event list, popped one at a time.
    ///
    /// Consumes each per-object counter stream at exactly the positions
    /// [`Self::run_sharded`] does, so the returned tally is equal — the
    /// difference is purely the `O(log N)`-per-access event-list traffic
    /// this formulation pays.
    #[expect(
        clippy::indexing_slicing,
        reason = "the SoA vectors are all sized num_objects and i is an object id popped from the queue"
    )]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "object ids fit in memory-sized vectors; class and assignment ids index catalog tables of a handful of rows, so each fits a u32"
    )]
    pub fn run_naive(&self) -> ShardStats {
        let prepared = PreparedWalk::new(self);
        let objects = self.catalog.num_objects() as usize;
        let mut queue: quorum_des::EventQueue<u64> = quorum_des::EventQueue::new();
        let mut seeds = Vec::with_capacity(objects);
        let mut ctrs = vec![1u64; objects];
        let mut inv_rates = Vec::with_capacity(objects);
        let mut alphas = Vec::with_capacity(objects);
        let mut classes = Vec::with_capacity(objects);
        let mut assigns = Vec::with_capacity(objects);
        for o in 0..objects as u64 {
            let s = derive_seed(prepared.master, o);
            let inv = 1.0 / self.catalog.rate_of(o);
            let t = exponential_from_uniform(CounterRng::uniform_at(s, 0), inv);
            if t < self.horizon {
                queue.schedule(quorum_des::SimTime::new(t), o);
            }
            seeds.push(s);
            inv_rates.push(inv);
            alphas.push(self.catalog.alpha_of(o));
            classes.push(self.catalog.class_of(o) as u32);
            assigns.push(self.catalog.assignment_of(o) as u32);
        }
        let mut stats = ShardStats::new(self.catalog.num_classes());
        stats.objects = objects as u64;
        // Pops arrive in global time order, so one epoch hint serves
        // every object.
        let mut epoch = 0usize;
        while let Some((t, o)) = queue.pop() {
            let i = o as usize;
            let u_kind = CounterRng::uniform_at(seeds[i], ctrs[i]);
            let u_site = CounterRng::uniform_at(seeds[i], ctrs[i] + 1);
            let gap = exponential_from_uniform(
                CounterRng::uniform_at(seeds[i], ctrs[i] + 2),
                inv_rates[i],
            );
            ctrs[i] += 3;
            epoch = self.timeline.epoch_at(t.as_f64(), epoch);
            let mask =
                self.timeline
                    .grant_mask(epoch, assigns[i] as usize, prepared.site_of(u_site));
            record(&mut stats, classes[i] as usize, mask, u_kind < alphas[i]);
            let next = t.as_f64() + gap;
            if next < self.horizon {
                queue.schedule(quorum_des::SimTime::new(next), o);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_des::SimParams;

    struct Fixture {
        topology: Topology,
        catalog: ObjectCatalog,
        timeline: FailureTimeline,
        horizon: f64,
        seed: u64,
    }

    fn fixture(objects: u64, horizon: f64, seed: u64) -> Fixture {
        let topology = Topology::ring_with_chords(13, 3);
        let catalog = ObjectCatalog::paper_mix(13, objects);
        let timeline =
            FailureTimeline::build(&topology, &catalog, &SimParams::quick(), horizon, seed);
        Fixture {
            topology,
            catalog,
            timeline,
            horizon,
            seed,
        }
    }

    fn optimized_fixture(objects: u64, horizon: f64, seed: u64) -> Fixture {
        let topology = Topology::ring_with_chords(13, 3);
        let density = quorum_core::analytic::ring_density(13, 0.96, 0.96);
        let catalog =
            ObjectCatalog::paper_mix(13, objects).with_optimized_assignments(&density, 5, 0.2);
        let timeline =
            FailureTimeline::build(&topology, &catalog, &SimParams::quick(), horizon, seed);
        Fixture {
            topology,
            catalog,
            timeline,
            horizon,
            seed,
        }
    }

    impl Fixture {
        fn engine(&self) -> ShardEngine<'_> {
            ShardEngine::new(
                &self.topology,
                &self.catalog,
                &self.timeline,
                self.horizon,
                self.seed,
            )
        }
    }

    #[test]
    fn batched_equals_naive_exactly() {
        let f = fixture(100, 80.0, 7);
        let engine = f.engine();
        let (batched, conv) = engine.run_sharded(4, 1);
        let naive = engine.run_naive();
        assert_eq!(batched, naive);
        assert_eq!(conv.batches, 4);
        assert!(batched.accesses > 1000, "80 time units x 100 objects");
        assert_eq!(
            batched.reads_submitted + batched.writes_submitted,
            batched.accesses
        );
    }

    #[test]
    fn aggregate_is_invariant_to_shard_partitioning() {
        let f = fixture(97, 60.0, 13);
        let engine = f.engine();
        let (a, _) = engine.run_sharded(1, 1);
        let (b, _) = engine.run_sharded(2, 1);
        let (c, _) = engine.run_sharded(5, 1);
        let (d, _) = engine.run_sharded(97, 1);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(c, d);
    }

    #[test]
    fn aggregate_is_invariant_to_thread_count() {
        let f = fixture(64, 60.0, 29);
        let engine = f.engine();
        let (a, _) = engine.run_sharded(8, 1);
        let (b, _) = engine.run_sharded(8, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn single_shard_walks_inline() {
        let f = fixture(10, 30.0, 1);
        let (s, conv) = f.engine().run_sharded(1, 4);
        assert_eq!(s.objects, 10);
        assert!(s.accesses > 0);
        assert_eq!(s, f.engine().run_naive());
        assert_eq!(conv.batches, 1);
        assert_eq!(conv.wall, Duration::ZERO, "no fan-out, no timing");
    }

    #[test]
    fn stripe_boundaries_do_not_change_tallies() {
        // Object counts around 64 and 130, where the former 64-lane
        // stripe walk ended in a partial stripe, all agree with the
        // naive engine.
        for objects in [63, 64, 65, 130] {
            let f = fixture(objects, 25.0, 19);
            let engine = f.engine();
            let (batched, _) = engine.run_sharded(3.min(objects), 1);
            assert_eq!(batched, engine.run_naive(), "objects={objects}");
        }
    }

    /// Compares two tallies field by field; the destructuring breaks the
    /// build if a field is added without a comparison.
    fn assert_fields_eq(walk: &ShardStats, naive: &ShardStats, case: &str) {
        let ShardStats {
            objects,
            accesses,
            reads_submitted,
            writes_submitted,
            reads_granted,
            writes_granted,
            class_accesses,
            class_granted,
        } = walk;
        assert_eq!(*objects, naive.objects, "{case}: objects");
        assert_eq!(*accesses, naive.accesses, "{case}: accesses");
        assert_eq!(*reads_submitted, naive.reads_submitted, "{case}: reads");
        assert_eq!(*writes_submitted, naive.writes_submitted, "{case}: writes");
        assert_eq!(*reads_granted, naive.reads_granted, "{case}: reads granted");
        assert_eq!(
            *writes_granted, naive.writes_granted,
            "{case}: writes granted"
        );
        assert_eq!(
            *class_accesses, naive.class_accesses,
            "{case}: class accesses"
        );
        assert_eq!(*class_granted, naive.class_granted, "{case}: class granted");
    }

    #[test]
    fn tally_fold_equals_naive_field_for_field() {
        // A horizon so short that some classes draw no access: their
        // tally rows fold in as zeros.
        let f = fixture(12, 0.05, 3);
        let (walk, _) = f.engine().run_sharded(3, 1);
        assert!(
            walk.class_accesses.contains(&0),
            "want an idle class: {:?}",
            walk.class_accesses
        );
        assert_fields_eq(&walk, &f.engine().run_naive(), "short horizon");

        let f = fixture(1, 200.0, 5);
        let (walk, _) = f.engine().run_sharded(1, 1);
        assert!(walk.accesses > 0);
        assert_fields_eq(&walk, &f.engine().run_naive(), "one object");

        // One object per shard: every range folds a one-row walk.
        let f = fixture(23, 40.0, 17);
        let (walk, conv) = f.engine().run_sharded(23, 2);
        assert_eq!(conv.batches, 23);
        assert_fields_eq(&walk, &f.engine().run_naive(), "shards == objects");
    }

    #[test]
    fn per_object_assignments_keep_engines_equal() {
        let f = optimized_fixture(120, 60.0, 23);
        assert!(f.catalog.num_assignments() > f.catalog.num_classes());
        let engine = f.engine();
        let (batched, _) = engine.run_sharded(5, 2);
        assert_eq!(batched, engine.run_naive());
        assert!(batched.accesses > 1000);
    }

    #[test]
    fn long_run_sees_denials() {
        let f = fixture(40, 2000.0, 7);
        let (s, _) = f.engine().run_sharded(4, 2);
        assert!(s.reads_granted < s.reads_submitted || s.writes_granted < s.writes_submitted);
        assert!(s.availability() < 1.0);
        assert!(
            s.availability() > 0.5,
            "96% reliability keeps availability high"
        );
    }

    #[test]
    fn every_class_sees_traffic() {
        let f = fixture(200, 40.0, 3);
        let (s, _) = f.engine().run_sharded(4, 1);
        assert!(
            s.class_accesses.iter().all(|&n| n > 0),
            "{:?}",
            s.class_accesses
        );
        assert_eq!(s.class_accesses.iter().sum::<u64>(), s.accesses);
    }

    #[test]
    fn stats_merge_is_exact() {
        let mut a = ShardStats::new(2);
        a.accesses = 3;
        a.class_accesses[1] = 3;
        let mut b = ShardStats::new(2);
        b.accesses = 4;
        b.class_accesses[0] = 4;
        a.merge(&b);
        assert_eq!(a.accesses, 7);
        assert_eq!(a.class_accesses, vec![4, 3]);
    }

    #[test]
    fn observe_publishes_partition_invariant_totals() {
        let f = fixture(32, 30.0, 5);
        let (s, _) = f.engine().run_sharded(4, 1);
        let reg = quorum_obs::Registry::new();
        s.observe_into(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(quorum_obs::keys::SHARD_OBJECTS), 32);
        assert_eq!(snap.counter(quorum_obs::keys::SHARD_ACCESSES), s.accesses);
        assert!(snap.gauges.is_empty(), "engine publishes no gauges");
    }

    #[test]
    #[should_panic(expected = "more shards than objects")]
    fn oversharding_rejected() {
        let f = fixture(10, 1.0, 1);
        f.engine().run_sharded(11, 1);
    }

    #[test]
    #[should_panic(expected = "different assignment table")]
    fn assignment_table_mismatch_rejected() {
        let f = fixture(10, 1.0, 1);
        let density = quorum_core::analytic::ring_density(13, 0.96, 0.96);
        let other = ObjectCatalog::paper_mix(13, 10).with_optimized_assignments(&density, 5, 0.2);
        ShardEngine::new(&f.topology, &other, &f.timeline, f.horizon, f.seed).run_sharded(2, 1);
    }
}
