//! Discrete-event simulation engine.
//!
//! The paper's evaluation (§5.2) uses a steady-state discrete event
//! simulator: access submissions are a Poisson process per site with mean
//! inter-access time `μ_t = 1`; site and link failures/recoveries are
//! Poisson with mean time-to-failure `μ_f` and mean time-to-repair `μ_r`
//! chosen so each component is 96 % reliable and the access-to-failure time
//! ratio is `ρ = μ_t / μ_f = 1/128`. All events are instantaneous.
//!
//! This crate supplies the engine pieces:
//!
//! * [`SimTime`] — totally-ordered simulation timestamps: non-negative,
//!   never NaN and never −0.0, so they order by their bit patterns.
//! * [`EventQueue`] — the deterministic future-event list that every
//!   simulator runs on: a binary min-heap with FIFO tie-breaking. Each
//!   entry is ordered by one `u128` key (time bits above the insertion
//!   seq), the heap sifts 32-byte entries of key and slab slot, and the
//!   payloads stay put in a slab until popped. A front slot holds the
//!   earliest entry with its payload inline, so the common case of
//!   scheduling and then popping the next arrival skips the heap and the
//!   slab. Cancellable entries (timers) have records in a `Vec` sorted by
//!   seq, so cancellation is O(log pending timers) and plain entries
//!   touch no side table.
//! * [`PoissonProcess`] — exponential inter-arrival sampling.
//! * [`OnOffProcess`] — the alternating up/down renewal process driving each
//!   site and link.
//! * [`SimParams`] — the paper's parameter set with derived `μ_f`, `μ_r`.

#![warn(missing_docs)]

mod event;
mod failure;
mod params;
mod poisson;
mod time;

pub use event::{EventKey, EventQueue};
pub use failure::OnOffProcess;
pub use params::{ci_points, SimParams};
pub use poisson::PoissonProcess;
pub use time::SimTime;
