//! Criterion microbench: the two centralized algorithms the paper builds
//! on (BNL vs. SFS), plus the bounded-window BNL variant modelling
//! memory-constrained devices.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{DataSpec, Distribution};
use skyline_core::algo::{bnl, Algorithm};
use std::hint::black_box;

fn bench_algorithms(c: &mut Criterion) {
    let mut group = c.benchmark_group("centralized_algorithms");
    group.sample_size(10);
    for (tag, dist) in [("IN", Distribution::Independent), ("AC", Distribution::AntiCorrelated)] {
        let data = DataSpec::local_experiment(20_000, 2, dist, 11).generate();
        for algo in Algorithm::ALL {
            group.bench_with_input(BenchmarkId::new(format!("{algo:?}"), tag), &data, |b, d| {
                b.iter(|| black_box(algo.skyline_indices(d).len()))
            });
        }
    }
    group.finish();
}

fn bench_windowed_bnl(c: &mut Criterion) {
    let mut group = c.benchmark_group("bnl_window_pressure");
    group.sample_size(10);
    let data = DataSpec::local_experiment(10_000, 2, Distribution::AntiCorrelated, 13).generate();
    for window in [8usize, 64, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(window), &window, |b, &w| {
            b.iter(|| black_box(bnl::skyline_indices_windowed(&data, w).len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms, bench_windowed_bnl);
criterion_main!(benches);
