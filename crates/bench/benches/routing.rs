//! Criterion benches: per-message routing cost through each scheme's
//! decoded routers — the latency side of the space/stretch trade-off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ort_graphs::generators;
use ort_routing::scheme::RoutingScheme;
use ort_routing::schemes::{
    full_information::FullInformationScheme, full_table::FullTableScheme,
    theorem1::Theorem1Scheme, theorem2::Theorem2Scheme, theorem3::Theorem3Scheme,
    theorem4::Theorem4Scheme, theorem5::Theorem5Scheme,
};
use ort_routing::verify::route_pair;
use ort_graphs::paths::Apsp;

fn bench_routing(c: &mut Criterion) {
    let n = 128usize;
    let g = generators::gnp_half(n, 5);
    let limit = 4 * n;
    let dists = Apsp::compute(&g);
    let schemes: Vec<(&str, Box<dyn RoutingScheme>)> = vec![
        ("full_table", Box::new(FullTableScheme::build(&g, &dists).unwrap())),
        ("theorem1", Box::new(Theorem1Scheme::build(&g, &dists).unwrap())),
        ("theorem2", Box::new(Theorem2Scheme::build(&g, &dists).unwrap())),
        ("theorem3", Box::new(Theorem3Scheme::build(&g, &dists).unwrap())),
        ("theorem4", Box::new(Theorem4Scheme::build(&g, &dists).unwrap())),
        ("theorem5_probe", Box::new(Theorem5Scheme::build(&g, &dists).unwrap())),
        ("full_information", Box::new(FullInformationScheme::build(&g, &dists).unwrap())),
    ];
    let mut group = c.benchmark_group("route_pair");
    let pairs: Vec<(usize, usize)> =
        (0..64).map(|i| ((i * 7) % n, (i * 13 + 1) % n)).filter(|(s, t)| s != t).collect();
    for (name, scheme) in &schemes {
        group.bench_with_input(BenchmarkId::new(*name, n), scheme, |b, scheme| {
            b.iter(|| {
                for &(s, t) in &pairs {
                    black_box(route_pair(scheme.as_ref(), s, t, limit).unwrap());
                }
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_routing
}
criterion_main!(benches);
