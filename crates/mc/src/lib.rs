//! quorum-mc: bounded exhaustive model checking of the cluster protocol.
//!
//! This crate drives the engine's real [`quorum_cluster::ProtocolCore`]
//! — not a re-model of it — through every reachable interleaving of a
//! small scripted world: message deliveries and drops, session timer
//! fires, partition toggles, and quorum-reassignment installs. Canonical
//! state hashing with a site-symmetry quotient and a sound dead-message
//! reduction keep the search exhaustive within bounds, and the report
//! says so explicitly (`truncated == 0`, `capped == false`).
//!
//! See [`explore()`] for the search, the `explore` module's source docs
//! for the checked invariants and the soundness arguments, and
//! [`Universe`] for how worlds are scripted.

#![warn(missing_docs)]
// Exact `==`/`!=` on floats encodes an accidental bit-pattern property;
// compare with an explicit epsilon or write a reasoned `#[expect]`.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod explore;
mod universe;

pub use explore::{explore, BagScheduler, ExploreOptions, McReport};
pub use universe::Universe;
