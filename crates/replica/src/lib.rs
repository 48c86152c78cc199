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
//! * [`runner::run_static`] — multi-batch (parallel) run with
//!   batch-means confidence intervals, reproducing the §5.2 methodology.
//! * [`curves::CurveSet`] — turns the measured component-vote histograms
//!   into full `A(α, q_r)` curves (Figures 2–7) via the Figure-1 model.
//! * [`adaptive::run_adaptive`] — the dynamic QR protocol driven by
//!   on-line density estimates (§4.3) under a shifting workload.
//! * [`object::SerializabilityChecker`] — validates one-copy
//!   serializability of every granted access (and exposes violations when
//!   deliberately-invalid quorums are simulated); its
//!   [`access`](object::SerializabilityChecker::access) is the one
//!   checked access step of [`Simulation`], [`bus_sim`] and [`script`].
//! * [`bus_sim::BusSimulation`] — the single-bus architecture of §4.2,
//!   validated against its closed-form densities.
//! * [`script::Scenario`] — deterministic scripted walkthroughs (the §2.2
//!   reassignment narrative as executable steps).

#![warn(missing_docs)]

pub mod adaptive;
pub mod bus_sim;
pub mod curves;
pub mod failure;
pub mod object;
pub mod results;
pub mod runner;
pub mod scenario;
pub mod script;
pub mod simulation;
pub mod sweep;
pub mod workload;

pub use curves::CurveSet;
pub use failure::{FailureWorld, Transition};
pub use object::SerializabilityChecker;
pub use results::{BatchStats, RunResults};
pub use runner::{run_protocol_observed, run_static, run_static_observed, RunConfig};
pub use scenario::PaperScenario;
pub use simulation::Simulation;
pub use workload::Workload;
