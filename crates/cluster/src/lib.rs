//! Message-level quorum RPC engine.
//!
//! The paper (§5.2) evaluates quorum assignments in an *instantaneous*
//! world: an access atomically inspects its component and succeeds iff
//! the component can raise the quorum. This crate refines that world
//! into an actor-style, deterministic message-passing cluster layered on
//! the same DES substrate:
//!
//! * every site is a small state machine ([`ClusterEngine`]) exchanging typed
//!   messages ([`Message`]) — vote requests/grants/denies, versioned
//!   read values and write commits, and §2.2 `Install` propagation;
//! * links carry configurable per-message latency distributions and a
//!   loss probability ([`NetConfig`]); delivery additionally requires the
//!   endpoints to be mutually reachable at the delivery instant, driven
//!   by the same `Topology`/`NetworkState` failure processes as the
//!   instantaneous simulator;
//! * reads and writes become multi-message quorum-gathering sessions
//!   with per-session timeouts and bounded exponential-backoff retries,
//!   resolving to client-visible [`Outcome`]s;
//! * a version-based freshness checker ([`FreshnessChecker`]) asserts that no
//!   committed read returns a stale version, even with message loss and
//!   quorum reassignments in flight.
//!
//! The engine's defining property is **degeneracy**: with zero latency,
//! zero loss, and no retries ([`ClusterConfig::ideal`]) it reproduces
//! the instantaneous simulator's per-access decisions exactly — same
//! RNG streams, same failure sample paths, same outcomes. Everything
//! beyond that configuration (timeouts, retries, two-phase writes,
//! joint-safety-restricted installs) is an explicitly documented
//! extension of the paper's model; see DESIGN.md.

#![warn(missing_docs)]

mod checker;
mod config;
mod engine;
mod message;
mod net;
mod protocol;
mod record;
mod runner;
mod stats;

pub use checker::FreshnessChecker;
pub use config::{jointly_safe, ClusterConfig, InstallStep};
pub use engine::ClusterEngine;
pub use message::{Message, Payload, SessionId, Version};
pub use net::{LatencyDist, NetConfig};
pub use protocol::{ProtocolCore, Scheduler, SessionPhase, TimerToken};
pub use record::{read_leb128, write_leb128};
pub use runner::{run_cluster, run_cluster_observed, RunOptions};
pub use stats::{ClusterStats, LatencyHistogram, Outcome};
