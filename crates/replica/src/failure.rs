//! Shared site/link failure-process plumbing.
//!
//! Both the instantaneous simulator ([`crate::Simulation`]) and the
//! message-level cluster engine (`quorum-cluster`) drive the same §5.2
//! stochastic model: one alternating up/down renewal process per site and
//! per link, with optional per-component reliability overrides. Keeping
//! the process bank and its event-scheduling order in one place guarantees
//! the two engines consume the failure RNG stream identically — which is
//! what makes the zero-latency degeneracy test exact rather than merely
//! statistical.

use quorum_des::{EventQueue, OnOffProcess, SimParams, SimTime};
use rand::Rng;

/// The bank of per-site and per-link on/off processes of one batch.
#[derive(Debug, Clone)]
pub struct FailureProcesses {
    sites: Vec<OnOffProcess>,
    links: Vec<OnOffProcess>,
}

fn build_bank(params: &SimParams, n: usize, rels: Option<&[f64]>) -> Vec<OnOffProcess> {
    let default = OnOffProcess::from_reliability(params.reliability, params.mu_fail())
        .with_distributions(params.fail_dist, params.repair_dist);
    match rels {
        None => vec![default; n],
        Some(rels) => {
            assert_eq!(rels.len(), n, "one reliability per component");
            rels.iter()
                .map(|&p| {
                    OnOffProcess::from_reliability(p, params.mu_fail())
                        .with_distributions(params.fail_dist, params.repair_dist)
                })
                .collect()
        }
    }
}

impl FailureProcesses {
    /// Creates the process bank: every component starts up, homogeneous
    /// parameters unless per-site / per-link reliabilities are supplied.
    ///
    /// # Panics
    /// Panics on reliability-list length mismatch.
    pub fn new(
        params: &SimParams,
        n_sites: usize,
        n_links: usize,
        site_rels: Option<&[f64]>,
        link_rels: Option<&[f64]>,
    ) -> Self {
        Self {
            sites: build_bank(params, n_sites, site_rels),
            links: build_bank(params, n_links, link_rels),
        }
    }

    /// Schedules the first transition of every component: all sites in
    /// index order, then all links — the canonical stream order both
    /// engines share.
    pub fn schedule_initial<E, R: Rng + ?Sized>(
        &mut self,
        queue: &mut EventQueue<E>,
        rng: &mut R,
        mut site_event: impl FnMut(usize) -> E,
        mut link_event: impl FnMut(usize) -> E,
    ) {
        for (i, p) in self.sites.iter_mut().enumerate() {
            let (gap, _) = p.next_transition(rng);
            queue.schedule(SimTime::new(gap), site_event(i));
        }
        for (i, p) in self.links.iter_mut().enumerate() {
            let (gap, _) = p.next_transition(rng);
            queue.schedule(SimTime::new(gap), link_event(i));
        }
    }

    /// Handles a site-transition event: returns the site's new up/down
    /// state and the gap until its next transition (which the caller
    /// schedules).
    pub fn site_transition<R: Rng + ?Sized>(&mut self, i: usize, rng: &mut R) -> (bool, f64) {
        let up = self.sites[i].is_up();
        let (gap, _) = self.sites[i].next_transition(rng);
        (up, gap)
    }

    /// Handles a link-transition event (see
    /// [`FailureProcesses::site_transition`]).
    pub fn link_transition<R: Rng + ?Sized>(&mut self, i: usize, rng: &mut R) -> (bool, f64) {
        let up = self.links[i].is_up();
        let (gap, _) = self.links[i].next_transition(rng);
        (up, gap)
    }

    /// Number of site processes.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Number of link processes.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_des::EventQueue;
    use quorum_stats::rng::rng_from_seed;

    #[test]
    fn bank_sizes_and_defaults() {
        let p = SimParams::quick();
        let f = FailureProcesses::new(&p, 5, 7, None, None);
        assert_eq!(f.num_sites(), 5);
        assert_eq!(f.num_links(), 7);
    }

    #[test]
    fn initial_schedule_covers_every_component() {
        let p = SimParams::quick();
        let mut f = FailureProcesses::new(&p, 3, 4, None, None);
        let mut q: EventQueue<(bool, usize)> = EventQueue::new();
        let mut rng = rng_from_seed(1);
        f.schedule_initial(&mut q, &mut rng, |i| (true, i), |i| (false, i));
        assert_eq!(q.len(), 7);
        let mut sites = 0;
        let mut links = 0;
        while let Some((_, (is_site, _))) = q.pop() {
            if is_site {
                sites += 1;
            } else {
                links += 1;
            }
        }
        assert_eq!((sites, links), (3, 4));
    }

    #[test]
    fn transitions_alternate_state() {
        let p = SimParams::quick();
        let mut f = FailureProcesses::new(&p, 1, 0, None, None);
        let mut rng = rng_from_seed(2);
        // Initial next_transition (during scheduling) flips toward down.
        let mut q: EventQueue<usize> = EventQueue::new();
        f.schedule_initial(&mut q, &mut rng, |i| i, |i| i);
        let (up1, _) = f.site_transition(0, &mut rng);
        assert!(!up1, "first transition is the failure");
        let (up2, _) = f.site_transition(0, &mut rng);
        assert!(up2, "second is the repair");
    }

    #[test]
    fn heterogeneous_reliabilities_apply() {
        let p = SimParams::quick();
        let f = FailureProcesses::new(&p, 2, 1, Some(&[0.5, 0.99]), None);
        assert_eq!(f.sites[0].reliability(), 0.5);
        assert!((f.sites[1].reliability() - 0.99).abs() < 1e-12);
        assert_eq!(f.links[0].reliability(), p.reliability);
    }

    #[test]
    #[should_panic(expected = "one reliability per component")]
    fn wrong_override_length_rejected() {
        let p = SimParams::quick();
        FailureProcesses::new(&p, 3, 0, Some(&[0.9]), None);
    }
}
