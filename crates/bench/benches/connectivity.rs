//! Benchmarks component recomputation — the simulator's hot loop — across
//! the paper's topology range, plus the dirty-flag cache ablation
//! (DESIGN.md §5: full BFS per event vs lazy recomputation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quorum_graph::{
    ComponentCache, ComponentView, DeltaConnectivity, NetworkState, Topology, TopologyEvent,
};
use std::hint::black_box;

/// Deterministic event trace: `len` toggles (each a real transition when
/// replayed from all-up). Down entities always repair but up entities
/// fail only 1 in 24 draws, matching the simulator's mostly-up steady
/// state (§5.2 reliability 0.96). Inline LCG, no RNG dependency.
fn event_trace(topo: &Topology, len: usize) -> Vec<TopologyEvent> {
    let n = topo.num_sites();
    let m = topo.num_links();
    let mut state = NetworkState::all_up(topo);
    let mut x = 0x2545F4914F6CDD1Du64;
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

/// The simulator's hot-loop shape: 1 topology event per 8 component
/// reads, replayed under each kernel. `full_bfs` pays a queue-based BFS
/// per event (the [`ComponentView::compute`] oracle), `bitset_bfs` a
/// word-parallel rebuild per event, and `delta` only the affected
/// component (or nothing at all).
fn bench_event_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_replay");
    for chords in [0usize, 256, 1024] {
        let topo = Topology::ring_with_chords(101, chords);
        let votes = vec![1u64; 101];
        let trace = event_trace(&topo, 256);
        group.bench_with_input(BenchmarkId::new("full_bfs", chords), &chords, |b, _| {
            b.iter(|| {
                let mut state = NetworkState::all_up(&topo);
                let mut acc = 0u64;
                for (i, &ev) in trace.iter().enumerate() {
                    apply_to_state(&mut state, ev);
                    let view = ComponentView::compute(&topo, &state, &votes);
                    for k in 0..8usize {
                        acc += view.votes_of((i + k) % 101);
                    }
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("bitset_bfs", chords), &chords, |b, _| {
            b.iter(|| {
                let mut state = NetworkState::all_up(&topo);
                let mut acc = 0u64;
                for (i, &ev) in trace.iter().enumerate() {
                    apply_to_state(&mut state, ev);
                    let view = DeltaConnectivity::new(&topo, &state, &votes).to_view();
                    for k in 0..8usize {
                        acc += view.votes_of((i + k) % 101);
                    }
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("delta", chords), &chords, |b, _| {
            b.iter(|| {
                let mut state = NetworkState::all_up(&topo);
                let mut cache = ComponentCache::new();
                cache.view(&topo, &state, &votes);
                let mut acc = 0u64;
                for (i, &ev) in trace.iter().enumerate() {
                    apply_to_state(&mut state, ev);
                    cache.apply_event(&topo, &state, &votes, ev);
                    for k in 0..8usize {
                        acc += cache.view(&topo, &state, &votes).votes_of((i + k) % 101);
                    }
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("component_bfs");
    for chords in [0usize, 16, 256, 4949] {
        let topo = Topology::ring_with_chords(101, chords);
        let votes = vec![1u64; 101];
        let mut state = NetworkState::all_up(&topo);
        // Degrade ~4% of sites and links, like the steady state.
        for s in (0..101).step_by(25) {
            state.set_site(s, false);
        }
        for l in (0..topo.num_links()).step_by(25) {
            state.set_link(l, false);
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("chords={chords}")),
            &chords,
            |b, _| {
                b.iter(|| {
                    let view = ComponentView::compute(&topo, &state, &votes);
                    black_box(view.votes_of(0))
                })
            },
        );
    }
    group.finish();
}

fn bench_cache_ablation(c: &mut Criterion) {
    // Access pattern with 1 topology event per 8 accesses: the cache
    // should win ~8x over always-recompute.
    let topo = Topology::ring_with_chords(101, 256);
    let votes = vec![1u64; 101];
    let mut group = c.benchmark_group("cache_ablation");
    group.bench_function("always_recompute", |b| {
        let state = NetworkState::all_up(&topo);
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..64 {
                let view = ComponentView::compute(&topo, &state, &votes);
                acc += view.votes_of(i % 101);
            }
            black_box(acc)
        })
    });
    group.bench_function("dirty_flag_cache", |b| {
        let mut state = NetworkState::all_up(&topo);
        b.iter(|| {
            let mut cache = ComponentCache::new();
            let mut acc = 0u64;
            for i in 0..64usize {
                if i % 8 == 0 {
                    let (site, up) = (i % 101, i % 16 == 0);
                    if state.set_site(site, up) {
                        cache.apply_event(&topo, &state, &votes, TopologyEvent::Site { site, up });
                    }
                }
                acc += cache.view(&topo, &state, &votes).votes_of(i % 101);
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_bfs, bench_cache_ablation, bench_event_replay);
criterion_main!(benches);
