//! Network substrate: topologies, component state, and connectivity.
//!
//! The paper's system model (§5.1): sites and bidirectional links, both
//! fail-stop, both repairable; message passing is the only communication, so
//! failures partition the network into *components* (maximal sets of
//! mutually-communicating operational sites). The quorum machinery upstream
//! only ever asks one question of this crate: *how many votes are in the
//! component containing site `i` right now?*
//!
//! Provided here:
//!
//! * [`Topology`] — immutable site/link structure with the paper's builders
//!   (ring, ring-plus-chords "Topology *k*", fully connected) plus extras
//!   (star, grid, path, G(n,p)) used by tests and examples.
//! * [`NetworkState`] — which sites/links are currently up.
//! * [`LiveNetwork`] — the one owner of the live network the engines
//!   simulate: its up/down state, set only through
//!   [`LiveNetwork::set_site`] and [`LiveNetwork::set_link`], which hand
//!   every actual change to the kernel, and every partition read,
//!   served straight from the kernel's slots and counted as a hit or a
//!   recomputation.
//! * [`ComponentView`] — component labelling over the up-subgraph by a
//!   full BFS ([`ComponentView::compute`]): the test oracle the kernel is
//!   pinned against.
//! * [`DeltaConnectivity`] — the incremental kernel behind
//!   [`LiveNetwork`]: recoveries merge components
//!   (union-find over member bitsets), a link cut runs a two-sided search
//!   that relabels nothing unless the component split, site failures
//!   search or re-scan only the affected component, provable no-ops are
//!   filtered, and all scans are word-parallel over per-site adjacency
//!   bitsets. Slots carry generation stamps so per-component data can
//!   outlive unrelated events.
//! * [`BusNetwork`] — the single-bus architecture of §4.2 (both variants).

#![warn(missing_docs)]

mod bitset;
mod bus;
mod connectivity;
mod delta;
mod state;
mod topology;

pub use bitset::BitSet;
pub use bus::{BusFailureMode, BusNetwork};
pub use connectivity::{ComponentView, LiveNetwork};
pub use delta::{DeltaConnectivity, DeltaCounters, TopologyEvent};
pub use state::NetworkState;
pub use topology::Topology;
