//! Statistics substrate for the quorum-assignment reproduction.
//!
//! This crate provides the numerical machinery that the rest of the
//! workspace builds on:
//!
//! * [`DiscreteDist`] — probability mass functions over vote counts
//!   `0..=T`, with the tail sums used by the availability function
//!   `A(α, q_r)` of Johnson & Raab (Figure 1 of the paper).
//! * [`CountingHistogram`] / [`DecayedHistogram`] — the two on-line
//!   estimators of the component-size density `f_i(v)` described in §4.2
//!   of the paper.
//! * [`BatchMeans`] and [`ConfidenceInterval`] — the batch-means output
//!   analysis the paper's simulator uses (§5.2: batches of one million
//!   accesses, 95 % confidence intervals of half-width ≤ 0.5 %).
//! * [`converge()`] — the generic parallel batch orchestrator built on
//!   them: runs `Fn(batch_index) -> stats` jobs on scoped worker
//!   threads, merges deterministically by batch index, and applies the
//!   stop-when-tight rule (every multi-batch runner shares this loop).
//! * One-dimensional optimizers — exhaustive integer argmax
//!   ([`exhaustive_max`]), the golden-section search the paper suggests
//!   in §4.1 ([`golden_section_max`]), and Brent's method for continuous
//!   relaxations ([`brent_max`]).
//! * RNG helpers ([`rng`]) — deterministic seed derivation and exponential
//!   variates for Poisson processes.

#![warn(missing_docs)]
// Exact `==`/`!=` on floats encodes an accidental bit-pattern property;
// compare with an explicit epsilon or write a reasoned `#[expect]`.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod batch;
mod ci;
mod converge;
mod discrete;
mod histogram;
mod optimize;
pub mod rng;

pub use batch::{lag1_autocorrelation, BatchMeans};
pub use ci::ConfidenceInterval;
pub use converge::{converge, ConvergeParams, Convergence, TracePoint};
pub use discrete::DiscreteDist;
pub use histogram::{CountingHistogram, DecayedHistogram, VoteHistogram};
pub use optimize::{brent_max, exhaustive_max, golden_section_max};
