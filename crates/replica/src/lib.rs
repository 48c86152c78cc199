//! End-to-end replicated-database availability simulation.
//!
//! Ties the substrates together into the paper's evaluation harness (§5):
//! a [`quorum_graph::Topology`] under Poisson failures/repairs
//! ([`quorum_des`]), a replicated object governed by a consistency
//! protocol ([`quorum_core`]), and a stream of read/write accesses whose
//! grant rate *is* the ACC availability metric.
//!
//! Key entry points:
//!
//! * [`Simulation`] — one warmed-up measurement batch over one topology.
//! * [`run_static`] — multi-batch (parallel) run with
//!   batch-means confidence intervals, reproducing the §5.2 methodology.
//! * [`CurveSet`] — turns the measured component-vote histograms
//!   into full `A(α, q_r)` curves (Figures 2–7) via the Figure-1 model.
//! * [`run_adaptive`] — the dynamic QR protocol driven by
//!   on-line density estimates (§4.3) under a shifting workload.
//! * [`SerializabilityChecker`] — validates one-copy
//!   serializability of every granted access (and exposes violations when
//!   deliberately-invalid quorums are simulated); its
//!   `access` is the one
//!   checked access step of [`Simulation`], [`bus_sim`] and [`script`].
//! * [`bus_sim::BusSimulation`] — the single-bus architecture of §4.2,
//!   validated against its closed-form densities.
//! * [`script::Scenario`] — deterministic scripted walkthroughs (the §2.2
//!   reassignment narrative as executable steps).

#![warn(missing_docs)]

mod adaptive;
pub mod bus_sim;
mod curves;
mod failure;
mod object;
mod results;
mod runner;
pub mod scenario;
pub mod script;
mod simulation;
mod workload;

pub use adaptive::{run_adaptive, run_phased, AdaptiveConfig, AdaptiveQr, Phase};
pub use curves::CurveSet;
pub use failure::{FailureWorld, Transition};
pub use object::SerializabilityChecker;
pub use results::{BatchStats, RunResults};
pub use runner::{run_protocol_observed, run_static, run_static_observed, RunConfig};
pub use scenario::PaperScenario;
pub use simulation::{AccessObserver, NullObserver, Simulation};
pub use workload::Workload;
