//! Event-replay comparison of the component-maintenance kernels.
//!
//! Two measurements, both over the paper's topology families:
//!
//! * **Kernel replay** — a deterministic site/link toggle trace with the
//!   simulator's hot-loop shape (1 topology event per 8 component
//!   reads), replayed three ways: queue-based full BFS per event
//!   ([`ComponentView::compute`], the oracle), word-parallel bitset BFS
//!   per event, and the incremental delta kernel driven through a
//!   [`LiveNetwork`] as the engines drive it (merge on recovery,
//!   two-sided search or single-component rescan on failure, no-op
//!   filtering), read straight from the kernel. The run asserts that
//!   all three report the same numbers and that every event lands in
//!   exactly one fast-path counter, and reports wall-clock and the
//!   full-BFS/delta speedup — the headline ratio EXPERIMENTS.md quotes
//!   for chords ≥ 256.
//! * **Engine batches** — full replica-simulator batches (ring, full,
//!   bus) at 1 and `--threads` worker threads.
//!
//! With `--manifest <path>` a run manifest is written containing every
//! wall-clock metric plus the engine counters, so the `graph.delta_*`
//! fast-path identity (counter sum = topology events) can be checked with
//! the jq expression CI applies to the other run manifests.
//!
//! Usage: cargo run -p quorum-bench --release --bin kernel_replay
//!        [-- --paper-scale --threads 2 --seed 11 --events 50000
//!            --batches 2 --manifest kernel_replay.json]

use quorum_bench::{check_batches, check_events, manifest, print_table, run_jobs, Args, Scale};
use quorum_core::{QuorumConsensus, QuorumSpec, VoteAssignment};
use quorum_graph::{
    ComponentView, DeltaConnectivity, DeltaCounters, LiveNetwork, NetworkState, Topology,
    TopologyEvent,
};
use quorum_obs::{keys, Registry, RunManifest};
use quorum_replica::{BatchStats, NullObserver, Simulation, Workload};
use std::time::Instant;

/// One replayed configuration: label, topology, votes, workload.
struct Setup {
    label: String,
    chords: usize,
    topo: Topology,
    votes: VoteAssignment,
    workload: Workload,
}

/// The paper's families at §5 scale; the bus hub (site 0) relays but
/// carries no votes and submits no accesses.
fn setups() -> Vec<Setup> {
    let mut out = Vec::new();
    for chords in [0usize, 256, 1024] {
        out.push(Setup {
            label: format!("ring-101-c{chords}"),
            chords,
            topo: Topology::ring_with_chords(101, chords),
            votes: VoteAssignment::uniform(101),
            workload: Workload::uniform(101, 0.7),
        });
    }
    out.push(Setup {
        label: "full-101".into(),
        chords: 0,
        topo: Topology::fully_connected(101),
        votes: VoteAssignment::uniform(101),
        workload: Workload::uniform(101, 0.7),
    });
    let bus = Topology::bus(100);
    let n = bus.num_sites();
    let mut votes = vec![1u64; n];
    votes[0] = 0;
    let mut weights = vec![1.0; n];
    weights[0] = 0.0;
    out.push(Setup {
        label: "bus-100".into(),
        chords: 0,
        topo: bus,
        votes: VoteAssignment::weighted(votes),
        workload: Workload::weighted(0.7, &weights, &weights),
    });
    out
}

/// Deterministic toggle trace (inline LCG; every entry is a real
/// transition when replayed from all-up). Down entities always repair
/// but up entities fail only 1 in 24 draws, so the trace settles at the
/// simulator's mostly-up steady state (§5.2 reliability 0.96) instead
/// of a coin-flip regime of half-dead networks.
fn event_trace(topo: &Topology, len: usize, seed: u64) -> Vec<TopologyEvent> {
    let n = topo.num_sites();
    let m = topo.num_links();
    let mut state = NetworkState::all_up(topo);
    let mut x = seed | 1;
    let mut draw = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let pick = draw() % (n + m);
        let up_now = if pick < n {
            state.site_up(pick)
        } else {
            state.link_up(pick - n)
        };
        if up_now && draw() % 24 != 0 {
            continue;
        }
        if pick < n {
            state.set_site(pick, !up_now);
            out.push(TopologyEvent::Site {
                site: pick,
                up: !up_now,
            });
        } else {
            state.set_link(pick - n, !up_now);
            out.push(TopologyEvent::Link {
                link: pick - n,
                up: !up_now,
            });
        }
    }
    out
}

fn apply_to_state(state: &mut NetworkState, ev: TopologyEvent) {
    match ev {
        TopologyEvent::Site { site, up } => assert!(state.set_site(site, up)),
        TopologyEvent::Link { link, up } => assert!(state.set_link(link, up)),
    }
}

/// Replays `trace` through a live network's delta kernel with 8
/// component reads per event, each read straight from the kernel as the
/// engines read it. Returns (wall seconds, vote checksum, fast-path
/// counters).
fn replay_delta(setup: &Setup, trace: &[TopologyEvent]) -> (f64, u64, DeltaCounters) {
    let n = setup.topo.num_sites();
    let mut net = LiveNetwork::new(&setup.topo, setup.votes.as_slice());
    net.partition();
    #[expect(
        clippy::disallowed_methods,
        reason = "benchmark timer: replay wall time is the result"
    )]
    let started = Instant::now();
    let mut acc = 0u64;
    for (i, &ev) in trace.iter().enumerate() {
        let changed = match ev {
            TopologyEvent::Site { site, up } => net.set_site(site, up),
            TopologyEvent::Link { link, up } => net.set_link(link, up),
        };
        assert!(changed);
        for k in 0..8usize {
            acc += net.partition().votes_of((i + k) % n);
        }
    }
    (started.elapsed().as_secs_f64(), acc, net.delta_counters())
}

/// Replays with a from-scratch view per event, built by `rebuild`: the
/// queue BFS oracle or the word-parallel bitset BFS (the middle rung
/// between queue BFS and the incremental kernel).
fn replay_rebuild(
    setup: &Setup,
    trace: &[TopologyEvent],
    rebuild: impl Fn(&Topology, &NetworkState, &[u64]) -> ComponentView,
) -> (f64, u64) {
    let votes = setup.votes.as_slice();
    let n = setup.topo.num_sites();
    let mut state = NetworkState::all_up(&setup.topo);
    #[expect(
        clippy::disallowed_methods,
        reason = "benchmark timer: replay wall time is the result"
    )]
    let started = Instant::now();
    let mut acc = 0u64;
    for (i, &ev) in trace.iter().enumerate() {
        apply_to_state(&mut state, ev);
        let view = rebuild(&setup.topo, &state, votes);
        for k in 0..8usize {
            acc += view.votes_of((i + k) % n);
        }
    }
    (started.elapsed().as_secs_f64(), acc)
}

/// Runs `batches` replica batches spread over `threads` workers exactly
/// like the production runner (one engine per worker, disjoint batch
/// indices). Returns (wall secs, merged stats).
fn engine_run(
    setup: &Setup,
    scale: Scale,
    seed: u64,
    threads: usize,
    batches: u64,
) -> (f64, BatchStats) {
    let params = scale.params();
    let spec = QuorumSpec::majority(setup.votes.total());
    #[expect(
        clippy::disallowed_methods,
        reason = "benchmark timer: engine wall time is the result"
    )]
    let started = Instant::now();
    type Job<'a> = Box<dyn FnOnce() -> BatchStats + Send + 'a>;
    let jobs: Vec<Job<'_>> = (0..batches)
        .map(|b| {
            let (topo, votes, workload) =
                (&setup.topo, setup.votes.clone(), setup.workload.clone());
            Box::new(move || {
                let mut sim = Simulation::with_votes(topo, params, votes.clone(), workload, seed);
                let mut proto = QuorumConsensus::new(votes, spec);
                sim.run_indexed_batch(&mut proto, &mut NullObserver, b)
            }) as Job<'_>
        })
        .collect();
    let results = run_jobs(threads, jobs);
    let wall = started.elapsed().as_secs_f64();
    let (first, rest) = results
        .split_first()
        .expect("check_batches: at least one batch");
    let mut combined = first.clone();
    for s in rest {
        combined.merge(s);
    }
    (wall, combined)
}

fn main() {
    let args = Args::parse();
    manifest::check_requested(&args);
    let scale = Scale::from_args(&args);
    let seed: u64 = args.get_or("seed", 11);
    let threads: usize = args.get_or("threads", 2);
    let events: usize = args
        .get_checked("events", |&e| check_events(e))
        .unwrap_or(match scale {
            Scale::Quick => 2_000,
            Scale::Medium => 10_000,
            Scale::Paper => 50_000,
        });
    let batches: u64 = args
        .get_checked("batches", |&b| check_batches(b))
        .unwrap_or(2);

    let mut m = RunManifest::new("kernel_replay", seed);
    m.params = manifest::sim_params_record(&scale.params());

    println!(
        "# Kernel replay | {events} events x 8 reads, engine batches={batches}, scale={} seed={seed}",
        scale.label()
    );
    let mut rows = Vec::new();
    let setups = setups();
    for setup in &setups {
        let trace = event_trace(&setup.topo, events, seed.wrapping_mul(0x9E3779B97F4A7C15));
        let (full_secs, full_acc) = replay_rebuild(setup, &trace, ComponentView::compute);
        let (bitset_secs, bitset_acc) = replay_rebuild(setup, &trace, |t, s, v| {
            DeltaConnectivity::new(t, s, v).to_view()
        });
        let (delta_secs, delta_acc, counters) = replay_delta(setup, &trace);
        assert_eq!(full_acc, delta_acc, "kernel changed a reported number");
        assert_eq!(full_acc, bitset_acc, "bitset BFS changed a reported number");
        assert_eq!(
            counters.total(),
            events as u64,
            "every event must land in exactly one fast-path counter"
        );
        let speedup = full_secs / delta_secs;
        rows.push(vec![
            setup.label.clone(),
            format!("{full_secs:.3}"),
            format!("{bitset_secs:.3}"),
            format!("{delta_secs:.3}"),
            format!("{speedup:.1}x"),
            format!(
                "{}/{}/{}",
                counters.merges, counters.rescans, counters.noops
            ),
        ]);
        m.set_labeled_metric(keys::REPLAY_FULL_BFS_SECS, &setup.label, full_secs);
        m.set_labeled_metric(keys::REPLAY_BITSET_BFS_SECS, &setup.label, bitset_secs);
        m.set_labeled_metric(keys::REPLAY_DELTA_SECS, &setup.label, delta_secs);
        m.set_labeled_metric(keys::REPLAY_SPEEDUP, &setup.label, speedup);
    }
    print_table(
        &[
            "config",
            "full_bfs_s",
            "bitset_bfs_s",
            "delta_s",
            "speedup",
            "merge/rescan/noop",
        ],
        &rows,
    );

    // End-to-end engine wall-clock at 1 and N threads.
    let registry = Registry::new();
    let headline = &setups[1];
    m.topology = manifest::topology_record(&headline.label, headline.chords, &headline.topo);
    let mut rows = Vec::new();
    for setup in &setups {
        for t in [1usize, threads.max(2)] {
            let (secs, stats) = engine_run(setup, scale, seed, t, batches);
            stats.observe_into(&registry);
            rows.push(vec![
                setup.label.clone(),
                format!("{t}"),
                format!("{secs:.2}"),
            ]);
            let label = format!("{}.t{t}", setup.label);
            m.set_labeled_metric(keys::ENGINE_DELTA_SECS, &label, secs);
        }
    }
    println!();
    print_table(&["config", "threads", "delta_s"], &rows);
    m.batches = batches;
    m.absorb_snapshot(&registry.snapshot());
    manifest::write_requested(&args, &m);
}
