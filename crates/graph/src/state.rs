//! Mutable up/down state of sites and links.

use crate::bitset::BitSet;
use crate::topology::Topology;

/// Which sites and links of a [`Topology`] are currently operational.
///
/// The paper's model is fail-stop with eventual repair (§5.1); this struct
/// is the pure state — failure *scheduling* lives in `quorum-des`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkState {
    site_up: BitSet,
    link_up: BitSet,
}

impl NetworkState {
    /// All sites and links up.
    pub fn all_up(topology: &Topology) -> Self {
        Self {
            site_up: BitSet::all_set(topology.num_sites()),
            link_up: BitSet::all_set(topology.num_links()),
        }
    }

    /// Is `site` operational?
    #[inline]
    pub fn site_up(&self, site: usize) -> bool {
        self.site_up.get(site)
    }

    /// Is `link` operational?
    #[inline]
    pub fn link_up(&self, link: usize) -> bool {
        self.link_up.get(link)
    }

    /// Sets the state of `site`. Returns `true` if the state changed.
    pub fn set_site(&mut self, site: usize, up: bool) -> bool {
        let changed = self.site_up.get(site) != up;
        self.site_up.set(site, up);
        changed
    }

    /// Sets the state of `link`. Returns `true` if the state changed.
    pub fn set_link(&mut self, link: usize, up: bool) -> bool {
        let changed = self.link_up.get(link) != up;
        self.link_up.set(link, up);
        changed
    }

    /// The site up/down bits (read-only; word-level consumers like the
    /// incremental connectivity kernel mask against this directly).
    pub(crate) fn site_bits(&self) -> &BitSet {
        &self.site_up
    }

    /// Number of operational sites.
    pub fn sites_up(&self) -> usize {
        self.site_up.count_ones()
    }
}

#[cfg(test)]
impl NetworkState {
    /// All sites and links down.
    pub(crate) fn all_down(topology: &Topology) -> Self {
        Self {
            site_up: BitSet::new(topology.num_sites()),
            link_up: BitSet::new(topology.num_links()),
        }
    }

    /// Number of operational links.
    fn links_up(&self) -> usize {
        self.link_up.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_up_and_all_down() {
        let t = Topology::ring(6);
        let up = NetworkState::all_up(&t);
        assert_eq!(up.sites_up(), 6);
        assert_eq!(up.links_up(), 6);
        let down = NetworkState::all_down(&t);
        assert_eq!(down.sites_up(), 0);
        assert_eq!(down.links_up(), 0);
    }

    #[test]
    fn set_site_reports_change() {
        let t = Topology::ring(4);
        let mut s = NetworkState::all_up(&t);
        assert!(s.set_site(2, false));
        assert!(!s.set_site(2, false), "idempotent set is not a change");
        assert!(!s.site_up(2));
        assert_eq!(s.sites_up(), 3);
        assert!(s.set_site(2, true));
        assert_eq!(s.sites_up(), 4);
    }

    #[test]
    fn set_link_reports_change() {
        let t = Topology::ring(4);
        let mut s = NetworkState::all_up(&t);
        assert!(s.set_link(0, false));
        assert!(!s.link_up(0));
        assert_eq!(s.links_up(), 3);
    }
}
