//! Criterion microbench: the Section 4.1 storage-model ablation — the
//! paper's hybrid scheme vs. the rejected domain and ring schemes (and
//! flat storage as the baseline), quantifying the pointer-chasing argument.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{DataSpec, Distribution};
use device_storage::{
    DeviceRelation, DomainRelation, FlatRelation, HybridRelation, LocalQuery, RingRelation,
};
use skyline_core::region::QueryRegion;
use std::hint::black_box;

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_models");
    group.sample_size(10);
    let data = DataSpec::local_experiment(10_000, 2, Distribution::Independent, 21).generate();
    let q = LocalQuery::plain(QueryRegion::unbounded());

    let flat = FlatRelation::new(data.clone());
    let hybrid = HybridRelation::new(data.clone());
    let domain = DomainRelation::new(data.clone());
    let ring = RingRelation::new(data);

    group.bench_function(BenchmarkId::new("flat", 10_000), |b| {
        b.iter(|| black_box(flat.local_skyline(&q).skyline.len()))
    });
    group.bench_function(BenchmarkId::new("hybrid", 10_000), |b| {
        b.iter(|| black_box(hybrid.local_skyline(&q).skyline.len()))
    });
    group.bench_function(BenchmarkId::new("domain", 10_000), |b| {
        b.iter(|| black_box(domain.local_skyline(&q).skyline.len()))
    });
    group.bench_function(BenchmarkId::new("ring", 10_000), |b| {
        b.iter(|| black_box(ring.local_skyline(&q).skyline.len()))
    });
    group.finish();
}

fn bench_skip_check(c: &mut Criterion) {
    // The O(n)-comparisons whole-relation skip only hybrid storage offers.
    let mut group = c.benchmark_group("hybrid_skip_fast_path");
    group.sample_size(20);
    let data = DataSpec::local_experiment(50_000, 2, Distribution::Independent, 23).generate();
    let hybrid = HybridRelation::new(data);
    let bounds = skyline_core::vdr::UpperBounds::new(vec![9.9, 9.9]);
    let mut q = LocalQuery::plain(QueryRegion::unbounded());
    q.filter = Some(skyline_core::vdr::FilterTuple::new(vec![-1.0, -1.0], &bounds));
    group.bench_function("dominating_filter_skip", |b| {
        b.iter(|| black_box(hybrid.local_skyline(&q).skip))
    });
    group.finish();
}

criterion_group!(benches, bench_models, bench_skip_check);
criterion_main!(benches);
