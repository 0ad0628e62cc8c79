//! Criterion benches: scheme construction time per Table 1 row.
//!
//! The paper's metric is bits, not seconds, but construction cost is what
//! a deployment pays to regenerate tables after a topology change — one
//! group per Table 1 scheme. The distance oracle is computed once per
//! graph, outside the timed loop, so each group times the builder alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ort_graphs::generators;
use ort_graphs::labels::Labeling;
use ort_graphs::paths::Apsp;
use ort_graphs::ports::PortAssignment;
use ort_routing::model::{Knowledge, Model, Relabeling};
use ort_routing::schemes::{
    full_information::FullInformationScheme, full_table::FullTableScheme,
    interval::IntervalScheme, landmark::LandmarkScheme, theorem1::Theorem1Scheme,
    theorem2::Theorem2Scheme, theorem3::Theorem3Scheme, theorem4::Theorem4Scheme,
    theorem5::Theorem5Scheme,
};

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    for n in [64usize, 128] {
        let g = generators::gnp_half(n, 1);
        let dists = Apsp::compute(&g);
        group.bench_with_input(BenchmarkId::new("full_table", n), &g, |b, g| {
            b.iter(|| black_box(FullTableScheme::build(g, &dists).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("full_table_ia_adversarial", n), &g, |b, g| {
            b.iter(|| {
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
                black_box(
                    FullTableScheme::build_with(
                        g,
                        &dists,
                        Model::new(Knowledge::PortsFixed, Relabeling::None),
                        PortAssignment::adversarial(g, &mut rng),
                        Labeling::identity(g.node_count()),
                    )
                    .unwrap(),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("theorem1", n), &g, |b, g| {
            b.iter(|| black_box(Theorem1Scheme::build(g, &dists).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("theorem1_ib", n), &g, |b, g| {
            b.iter(|| black_box(Theorem1Scheme::build_ib(g, &dists).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("theorem2", n), &g, |b, g| {
            b.iter(|| black_box(Theorem2Scheme::build(g, &dists).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("theorem3", n), &g, |b, g| {
            b.iter(|| black_box(Theorem3Scheme::build(g, &dists).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("theorem4", n), &g, |b, g| {
            b.iter(|| black_box(Theorem4Scheme::build(g, &dists).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("theorem5", n), &g, |b, g| {
            b.iter(|| black_box(Theorem5Scheme::build(g, &dists).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("full_information", n), &g, |b, g| {
            b.iter(|| black_box(FullInformationScheme::build(g, &dists).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("interval", n), &g, |b, g| {
            b.iter(|| black_box(IntervalScheme::build(g, &dists).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("landmark", n), &g, |b, g| {
            b.iter(|| black_box(LandmarkScheme::build(g, &dists, 3).unwrap()));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_construction
}
criterion_main!(benches);
