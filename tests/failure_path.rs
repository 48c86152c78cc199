//! One failure path, whatever else is queued.
//!
//! The shard crate's [`FailureTimeline`] replays the §5.2 failure model
//! alone in its own event queue; `Simulation` replays it through a
//! [`FailureWorld`] in a queue it shares with the Poisson access stream.
//! Both must see the same network at every instant: the world draws
//! failures from its own stream, in the same order, regardless of the
//! accesses interleaved between its transitions. This pins that at every
//! access instant before the horizon, for every site and both access
//! kinds, against the timeline's per-epoch grant masks.

use quorum_core::{Access, QuorumSpec};
use quorum_des::{EventQueue, PoissonProcess, SimParams, SimTime};
use quorum_graph::Topology;
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

/// Replays batch `batch` of master seed `master` both ways up to
/// `horizon` and checks every access instant. Returns the number of
/// accesses checked and of denied grants seen, so callers can insist the
/// fixture is not trivial.
fn check_batch(topology: &Topology, master: u64, batch: u64, horizon: f64) -> (u64, u64) {
    let n = topology.num_sites();
    let params = SimParams::quick();
    let seed = derive_seed(master, batch);
    let catalog = ObjectCatalog::paper_mix(n, 1);
    let majority = 0;
    assert_eq!(catalog.profiles()[majority].name, "maj-balanced");
    let spec = QuorumSpec::majority(n as u64);
    assert_eq!(catalog.profiles()[majority].spec, spec);
    let timeline = FailureTimeline::build(topology, &catalog, &params, horizon, seed);

    // The world in a queue shared with the access stream, as
    // `Simulation::run_indexed_batch` drives it.
    let votes = vec![1u64; n];
    let mut world = FailureWorld::new(topology, &votes, &params, seed, None, None);
    let mut queue: EventQueue<Event> = EventQueue::new();
    world.schedule_initial(&mut queue);
    let mut access_rng = rng_from_seed(derive_seed(seed, 2));
    let access_proc = PoissonProcess::new(n as f64 / params.mu_access);
    queue.schedule(
        SimTime::new(access_proc.next_gap(&mut access_rng)),
        Event::Access,
    );

    let (mut accesses, mut denied) = (0u64, 0u64);
    while queue.peek_time().is_some_and(|t| t.as_f64() < horizon) {
        let (t, event) = queue.pop().expect("peeked");
        match event {
            Event::Failure(transition) => world.apply(transition, &mut queue),
            Event::Access => {
                accesses += 1;
                queue.schedule_in(access_proc.next_gap(&mut access_rng), Event::Access);
                let epoch = timeline.epoch_at(t.as_f64(), 0);
                let (view, _) = world.view();
                for site in 0..n {
                    let votes = view.votes_of(site);
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
                        denied += u64::from(!granted);
                    }
                }
            }
        }
    }
    assert_eq!(world.site_transitions(), timeline.site_transitions());
    assert_eq!(world.link_transitions(), timeline.link_transitions());
    (accesses, denied)
}

#[test]
fn failure_path_ignores_the_access_stream() {
    let horizon = 600.0;
    for topology in [
        Topology::ring_with_chords(21, 8),
        Topology::fully_connected(13),
    ] {
        for master in [5u64, 90158] {
            for batch in 0..2 {
                let (accesses, denied) = check_batch(&topology, master, batch, horizon);
                assert!(accesses > 1_000, "{accesses} accesses before the horizon");
                assert!(denied > 0, "no denial: the fixture never failed anything");
            }
        }
    }
}
