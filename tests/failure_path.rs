//! One failure path, whatever else is queued.
//!
//! The shard crate's [`FailureTimeline`] replays the §5.2 failure model
//! alone in its own event queue; `Simulation` replays it through a
//! [`FailureWorld`] in a queue it shares with the Poisson access stream.
//! Both must see the same network at every instant: the world draws
//! failures from its own stream, in the same order, regardless of the
//! accesses interleaved between its transitions. This pins that at every
//! access instant before the horizon, for every site and both access
//! kinds, against the timeline's per-epoch grant masks: first the
//! majority profile against the world's kernel vote reads, then every
//! `paper_mix` profile against its own vote table summed over the
//! kernel's slot members.

use quorum_core::{Access, QuorumSpec};
use quorum_des::{EventQueue, PoissonProcess, SimParams, SimTime};
use quorum_graph::{ComponentView, Topology};
use quorum_replica::{FailureWorld, Transition};
use quorum_shard::{FailureTimeline, ObjectCatalog};
use quorum_stats::rng::{derive_seed, rng_from_seed};

/// A `Simulation`-shaped event: a failure transition or an access.
#[derive(Debug, Clone, Copy)]
enum Event {
    Failure(Transition),
    Access,
}

impl From<Transition> for Event {
    fn from(transition: Transition) -> Self {
        Self::Failure(transition)
    }
}

/// What one replay checked, so callers can insist the fixture is not
/// trivial.
#[derive(Debug, Default)]
struct Checked {
    /// Access instants checked.
    accesses: u64,
    /// Denied majority grants seen.
    denied: u64,
    /// Grants where `weighted-core` and `maj-balanced` disagreed.
    weighted_differs: u64,
}

/// Replays batch `batch` of master seed `master` both ways up to
/// `horizon` and checks every access instant.
fn check_batch(topology: &Topology, master: u64, batch: u64, horizon: f64) -> Checked {
    let n = topology.num_sites();
    let params = SimParams::quick();
    let seed = derive_seed(master, batch);
    let catalog = ObjectCatalog::paper_mix(n, 1);
    let profiles = catalog.profiles();
    assert_eq!(profiles.len(), 5);
    let majority = 0;
    assert_eq!(profiles[majority].name, "maj-balanced");
    let weighted = 3;
    assert_eq!(profiles[weighted].name, "weighted-core");
    let spec = QuorumSpec::majority(n as u64);
    assert_eq!(catalog.profiles()[majority].spec, spec);
    let timeline = FailureTimeline::build(topology, &catalog, &params, horizon, seed);

    // The world in a queue shared with the access stream, as
    // `Simulation::run_indexed_batch` drives it.
    let votes = vec![1u64; n];
    let mut world = FailureWorld::new(topology, &votes, &params, seed);
    let mut queue: EventQueue<Event> = EventQueue::new();
    world.schedule_initial(&mut queue);
    let mut access_rng = rng_from_seed(derive_seed(seed, 2));
    let access_proc = PoissonProcess::new(n as f64 / params.mu_access);
    queue.schedule(
        SimTime::new(access_proc.next_gap(&mut access_rng)),
        Event::Access,
    );

    let mut checked = Checked::default();
    // Per-site component votes under one profile's vote table.
    let mut site_votes = vec![0u64; n];
    while queue.peek_time().is_some_and(|t| t.as_f64() < horizon) {
        let (t, event) = queue.pop().expect("peeked");
        match event {
            Event::Failure(transition) => world.apply(transition, &mut queue),
            Event::Access => {
                checked.accesses += 1;
                queue.schedule_in(access_proc.next_gap(&mut access_rng), Event::Access);
                let epoch = timeline.epoch_at(t.as_f64(), 0);
                let partition = world.partition();
                for site in 0..n {
                    let votes = partition.votes_of(site);
                    for (kind, granted) in [
                        (Access::Read, spec.read_granted(votes)),
                        (Access::Write, spec.write_granted(votes)),
                    ] {
                        assert_eq!(
                            granted,
                            timeline.granted(epoch, majority, site, kind),
                            "{} seed {seed}: {kind:?} at site {site}, t = {}",
                            topology.name(),
                            t.as_f64()
                        );
                        checked.denied += u64::from(!granted);
                    }
                }
                for (a, profile) in profiles.iter().enumerate() {
                    let table = &catalog.vote_tables()[profile.votes_key];
                    for (site, votes) in site_votes.iter_mut().enumerate() {
                        let slot = partition.slot_of(site);
                        *votes = if slot == ComponentView::DOWN {
                            0
                        } else {
                            partition
                                .slot_members(slot)
                                .iter_ones()
                                .map(|m| table.votes_of(m))
                                .sum()
                        };
                    }
                    for (site, &votes) in site_votes.iter().enumerate() {
                        for (kind, granted) in [
                            (Access::Read, profile.spec.read_granted(votes)),
                            (Access::Write, profile.spec.write_granted(votes)),
                        ] {
                            assert_eq!(
                                granted,
                                timeline.granted(epoch, a, site, kind),
                                "{} seed {seed} profile {}: {kind:?} at site {site}, t = {}",
                                topology.name(),
                                profile.name,
                                t.as_f64()
                            );
                            if a == weighted {
                                checked.weighted_differs += u64::from(
                                    granted != timeline.granted(epoch, majority, site, kind),
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(world.site_transitions(), timeline.site_transitions());
    assert_eq!(world.link_transitions(), timeline.link_transitions());
    checked
}

#[test]
fn failure_path_ignores_the_access_stream() {
    let horizon = 600.0;
    let mut weighted_differs = 0;
    for topology in [
        Topology::ring_with_chords(21, 8),
        Topology::fully_connected(13),
    ] {
        for master in [5u64, 90158] {
            for batch in 0..2 {
                let checked = check_batch(&topology, master, batch, horizon);
                assert!(checked.accesses > 1_000, "{checked:?}");
                assert!(checked.denied > 0, "no denial: {checked:?}");
                weighted_differs += checked.weighted_differs;
            }
        }
    }
    // The 3-vote core must sometimes decide differently from a head
    // count, or the per-slot sums are not really under test.
    assert!(
        weighted_differs > 0,
        "weighted-core always matched majority"
    );
}
