//! The Johnson–Raab optimal quorum assignment machinery.
//!
//! This crate implements the primary contribution of *Finding Optimal
//! Quorum Assignments for Distributed Databases* (Johnson & Raab, Dartmouth
//! PCS-TR90-158 / ICPP 1991) together with the protocol substrate it rests
//! on:
//!
//! * [`VoteAssignment`] / [`QuorumSpec`] — Gifford's weighted-voting model: vote
//!   assignments, read/write quorums `q_r`, `q_w`, and the two consistency
//!   conditions `q_r + q_w > T` and `q_w > T/2` (§2.1).
//! * [`QuorumConsensus`] — the quorum consensus protocol and its named special
//!   cases: majority consensus, read-one/write-all, primary copy.
//! * [`QrProtocol`] — the dynamic quorum reassignment (QR) protocol of §2.2:
//!   version-numbered assignments installable only in a component holding a
//!   write quorum under the *old* assignment.
//! * [`AvailabilityModel`] / [`optimal`] — the Figure-1 algorithm: build
//!   `r(v)`, `w(v)` from per-site densities `f_i(v)`, evaluate
//!   `A(α, q_r)`, and maximize over `q_r` (exhaustively, or with the
//!   endpoint-aware golden-section search §4.1 suggests), including the
//!   §5.4 write-floor and write-weight variants.
//! * [`analytic`] — closed-form `f_i(v)` for ring, fully-connected
//!   (Gilbert's `Rel(m, r)` recursion) and single-bus networks (§4.2).
//! * [`SiteEstimators`] — the on-line `f_i` approximation that sidesteps the
//!   #P-completeness of exact computation (§4.2).
//! * [`metrics`] — the ACC and SURV availability metrics (§3).
//! * [`optimal_votes_exhaustive`] / [`optimal_votes_hill_climb`] — the Ahamad–Ammar non-partitionable model \[1\] and
//!   Cheung–Ahamad–Ammar joint vote/quorum optimization \[7\] the paper
//!   positions against (§1), with exact DP availability.
//! * [`DynamicVoting`] — Jajodia–Mutchler dynamic voting \[12, 13\], the
//!   electorate-shrinking dynamic protocol family the paper contrasts its
//!   quorum-reassignment approach with.
//!
//! The coterie formalism of Garcia-Molina & Barbara \[8\] (arbitrary
//! read/write set families, domination) lives in `quorum-algebra`, which
//! builds on this crate.
//!
//! The common workflow: build a model, optimize.
//!
//! ```
//! use quorum_core::optimal::optimal_quorum;
//! use quorum_core::{analytic, AvailabilityModel, SearchStrategy};
//!
//! let f = analytic::ring_density(9, 0.95, 0.95);
//! let model = AvailabilityModel::from_mixtures(&f, &f);
//! let opt = optimal_quorum(&model, 0.8, SearchStrategy::EndpointGolden);
//! assert!(opt.spec.q_r() >= 1 && opt.spec.q_w() <= 9);
//! ```

#![warn(missing_docs)]
// Exact `==`/`!=` on floats encodes an accidental bit-pattern property;
// compare with an explicit epsilon or write a reasoned `#[expect]`.
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod analytic;
mod availability;
mod dynamic_voting;
mod estimator;
pub mod metrics;
mod nonpartition;
pub mod optimal;
mod protocol;
mod quorum;
mod reassign;
mod votes;

pub use availability::AvailabilityModel;
pub use dynamic_voting::DynamicVoting;
pub use estimator::SiteEstimators;
pub use metrics::AvailabilityMetric;
pub use nonpartition::{
    check_max_votes, model_uniform_access, optimal_votes_exhaustive, optimal_votes_hill_climb,
    site_density, up_vote_distribution,
};
pub use optimal::{OptimalAssignment, SearchStrategy};
pub use protocol::{Access, ConsistencyProtocol, Decision, QuorumConsensus};
pub use quorum::{QuorumError, QuorumSpec};
pub use reassign::{QrProtocol, SiteAssignment};
pub use votes::VoteAssignment;
