//! End-to-end simulator throughput: one small measurement batch per
//! iteration, on a sparse and a dense paper topology.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quorum_core::{QuorumConsensus, QuorumSpec, VoteAssignment};
use quorum_des::SimParams;
use quorum_graph::Topology;
use quorum_replica::{NullObserver, Simulation, Workload};
use std::hint::black_box;

fn bench_batches(c: &mut Criterion) {
    let params = SimParams {
        warmup_accesses: 200,
        batch_accesses: 2_000,
        ..SimParams::paper()
    };
    let mut group = c.benchmark_group("simulation_batch_2k_accesses");
    group.sample_size(10);
    for chords in [0usize, 256] {
        let topo = Topology::ring_with_chords(101, chords);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("chords={chords}")),
            &chords,
            |b, _| {
                let mut batch = 0u64;
                b.iter(|| {
                    let mut sim = Simulation::new(&topo, params, Workload::uniform(101, 0.5), 99);
                    let mut proto = QuorumConsensus::new(
                        VoteAssignment::uniform(101),
                        QuorumSpec::from_read_quorum(50, 101)
                            .expect("(50, 52) of 101 satisfies both quorum rules"),
                    );
                    batch += 1;
                    black_box(sim.run_indexed_batch(&mut proto, &mut NullObserver, batch))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_batches);
criterion_main!(benches);
