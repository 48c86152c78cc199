//! Million-object sharded throughput engine.
//!
//! The paper's simulator (§5.2) studies **one** replicated object per run:
//! one vote assignment, one read ratio, one access process. Real
//! distributed databases assign quorums per object — the optimization the
//! paper motivates is only worth running when a deployment manages many
//! objects with heterogeneous read/write mixes over a *shared* network.
//! This crate simulates that regime: `N` independent objects, each with
//! its own [`quorum_core::VoteAssignment`], read ratio `α`, and Poisson
//! access rate, all sharing one topology's failure/repair sample path.
//!
//! The engine gets its throughput from three structural facts:
//!
//! 1. **Failure events are object-independent.** The site/link renewal
//!    processes (§5.2) don't depend on the access workload, so the
//!    network's connectivity history can be materialized *once* per run
//!    as a [`FailureTimeline`]: a sequence of connectivity epochs, each
//!    carrying a per-assignment, per-site grant bitmask precomputed
//!    through the shared incremental component kernel, plus a bucket
//!    index making epoch lookup O(1) amortized.
//! 2. **Accesses never interact.** Quorum checks are instantaneous reads
//!    of the current partition structure, so each object's access walk
//!    can be generated on its own — no global event queue, no `O(log N)`
//!    heap traffic per access. The shard walk takes one object at a time
//!    to the horizon and counts its accesses in a per-range tally.
//! 3. **Per-object counter RNG streams.** Every object draws from the
//!    [`quorum_stats::rng::CounterRng`] stream
//!    `derive_seed(access_master, object_id)` — draw `k` is a pure
//!    function of the seed and `k` — so results are invariant to shard
//!    partitioning, thread count, and walk order, and bit-identical to
//!    the naive engine that interleaves all objects through one binary
//!    heap.
//!
//! On top of the classes, [`ObjectCatalog::with_optimized_assignments`]
//! expands the population to **per-object** quorum assignments chosen by
//! the paper's optimizer ([`quorum_core::optimal`]) per read-ratio
//! bucket; the timeline carries one grant row per distinct assignment.
//!
//! [`ShardEngine::run_sharded`] fans contiguous object shards through
//! [`quorum_stats::converge()`]; [`ShardEngine::run_naive`] is the
//! reference implementation the equality tests pin against.

#![warn(missing_docs)]

mod catalog;
mod engine;
mod timeline;

pub use catalog::{AssignmentProfile, ObjectCatalog, ObjectClass};
pub use engine::{ShardEngine, ShardStats};
pub use timeline::FailureTimeline;
