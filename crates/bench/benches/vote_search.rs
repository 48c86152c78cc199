//! Benchmarks the non-partitionable-model machinery: the subset-sum DP
//! behind exact availability, and the two vote-search strategies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use quorum_core::{
    model_uniform_access, optimal_votes_exhaustive, optimal_votes_hill_climb, site_density,
};
use std::hint::black_box;

fn bench_dp(c: &mut Criterion) {
    let mut group = c.benchmark_group("nonpartition_dp");
    for n in [8usize, 32, 101] {
        let votes = vec![1u64; n];
        let rel = vec![0.96; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(site_density(&votes, &rel, 0)))
        });
    }
    group.finish();
}

fn bench_model_build(c: &mut Criterion) {
    let votes = vec![1u64; 31];
    let rel = vec![0.9; 31];
    c.bench_function("nonpartition_model_31", |b| {
        b.iter(|| black_box(model_uniform_access(&votes, &rel)))
    });
}

fn bench_searches(c: &mut Criterion) {
    let mut group = c.benchmark_group("vote_search");
    group.sample_size(10);
    let rel5 = [0.95, 0.9, 0.85, 0.8, 0.75];
    group.bench_function("exhaustive_n5_max2", |b| {
        b.iter(|| black_box(optimal_votes_exhaustive(&rel5, 0.5, 2)))
    });
    group.bench_function("hill_climb_n5_max2", |b| {
        b.iter(|| black_box(optimal_votes_hill_climb(&rel5, 0.5, 2)))
    });
    let rel12: Vec<f64> = (0..12).map(|i| 0.8 + 0.015 * i as f64).collect();
    group.bench_function("hill_climb_n12_max3", |b| {
        b.iter(|| black_box(optimal_votes_hill_climb(&rel12, 0.5, 3)))
    });
    group.finish();
}

criterion_group!(benches, bench_dp, bench_model_build, bench_searches);
criterion_main!(benches);
