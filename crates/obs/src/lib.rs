//! Structured, near-zero-cost observability for the quorum workspace.
//!
//! The paper's central loop — estimate `f_i(v)` on-line, run the Figure-1
//! optimizer, compare ACC/SURV against the §5 simulation — is a
//! long-running stochastic pipeline. Without instrumentation a run is
//! unverifiable: seeds, event counts, cache behavior, and CI-convergence
//! traces all vanish into a text table. This crate provides the
//! measurement substrate every perf-oriented change reports against:
//!
//! * [`Registry`] — a thread-safe bank of named atomic counters, gauges,
//!   and monotonic timers. Counter increments are a single relaxed atomic
//!   add on the hot path; creation/lookup cost is paid once per handle.
//! * [`Registry::scoped_timer`] — an RAII guard accumulating wall-clock
//!   into a registry timer.
//! * [`RunManifest`] — everything needed to reproduce and compare a run:
//!   seed, simulation parameters, topology descriptor, vote assignment,
//!   batch count, CI half-width trace, per-phase wall-clock, component
//!   cache hit/recompute rates, and DES event counts.
//! * [`RunManifest::to_json`] / [`RunManifest::parse`] — a hand-rolled
//!   JSON value model, writer, and parser (no
//!   third-party dependencies, so offline builds keep working), plus CSV
//!   flattening for spreadsheet-side diffing.

#![warn(missing_docs)]

mod json;
mod manifest;
mod registry;

pub use keys::Key;
pub use manifest::{CiPoint, HistogramRecord, RunManifest, SimParamsRecord, TopologyRecord};
pub use registry::{Counter, Registry, Snapshot};

/// The declared metric keys: every name a registry or manifest method
/// accepts is a [`keys::Key`] constant from this module.
pub mod keys;
