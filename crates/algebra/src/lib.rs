//! General quorum-system algebra — ROADMAP item "beyond voting".
//!
//! The paper optimizes *vote assignments*, but weighted voting captures
//! a strict subset of quorum systems (Garcia-Molina & Barbara \[8\]).
//! This crate supplies the missing generality as a quoracle-style
//! expression algebra:
//!
//! * [`Expr`] — monotone formulas `Node`/`And`/`Or`/`Choose(k, ...)`
//!   over site ids, with [`Expr::dual`], exact
//!   [`Expr::weighted_threshold`] conversion from vote vectors, and
//!   minimal-quorum enumeration (structural, with a powerset reference);
//! * [`QuorumSystem`] — named read/write families with an explicit
//!   intersection certificate ([`QuorumSystem::certify`]: checked
//!   safety, not assumed), exact crash [`QuorumSystem::resilience`], and
//!   constructors for majority, grid, hierarchical, and vote-derived
//!   systems;
//! * [`optimize_load`] — LP-free load optimization over quorum
//!   distributions with certified upper *and* lower bounds, and the exact
//!   closed form for uniform-vote thresholds
//!   ([`uniform_threshold_load`]);
//! * [`AlgebraProtocol`] — the adapter running any certified system
//!   through the replica simulator's component machinery, so
//!   vote-optimal and structurally-optimal systems race on the paper's
//!   topologies under identical failure processes.

#![warn(missing_docs)]
// Exact `==`/`!=` on floats encodes an accidental bit-pattern property;
// compare with an explicit epsilon or write a reasoned `#[expect]`.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

mod expr;
mod protocol;
mod strategy;
mod system;

// Unit tests of the Garcia-Molina–Barbara coterie facts on
// `QuorumSystem`: a coterie is the system whose reads and writes are
// the same family.
#[cfg(test)]
mod coterie {
    mod tests;
}

// Unit tests of read/write coterie pairs: vote-derived and hand-built
// `QuorumSystem`s, their certificates, domination and `AlgebraProtocol`
// decisions.
#[cfg(test)]
mod bicoterie {
    mod tests;
}

pub use expr::Expr;
pub use protocol::AlgebraProtocol;
pub use strategy::{check_iterations, optimize_load, uniform_threshold_load, Strategy};
pub use system::QuorumSystem;
